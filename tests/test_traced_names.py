"""The traced benchmark wraps ntdice functions by name; those names must exist,
and the walks it follows must be generators. The seeded mutants edit ntdice
source by text; each text must still occur once. The startup probe builds
its commands with the benchmark's own ``cli`` plan, which must still load."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from ntdice import Tournament, balanced_nontransitive_words, iter_words
from ntdice.search import _backtrack, _edge_rule

ROOT = Path(__file__).resolve().parents[1]


def assigned(script: Path, name: str):
    """The literal value a script assigns to ``name`` at module level."""
    # Parsed, not imported, so the check writes nothing beside the script.
    tree = ast.parse(script.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {script}")


def test_every_traced_name_is_a_callable_of_its_module():
    layers = assigned(ROOT / "perfbench" / "tracing.py", "LAYERS")
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"ntdice.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ntdice.{layer}.{name}"


def test_listings_and_the_realization_walk_are_generators():
    # tracing.py times and counts a listing only when the call returns a
    # generator; any other iterator would drop its spans and counters.
    t = Tournament.from_text("1>2,2>3,3>4,4>1,1>3,2>4")
    walks = [
        iter_words(2, 3),
        balanced_nontransitive_words(3, 3),
        _backtrack(3, 4, 10 ** 6, lambda placed: _edge_rule(t, 3, placed)[:3]),
    ]
    for walk in walks:
        assert isinstance(walk, types.GeneratorType)


def test_every_mutant_anchor_occurs_once_in_its_file():
    # scripts/mutants.py refuses to run when an anchor is lost; this finds
    # it in the fast tier instead.
    mutants = assigned(ROOT / "scripts" / "mutants.py", "MUTANTS")
    assert mutants
    for name, file, old, _ in mutants:
        text = (ROOT / "src" / "ntdice" / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, f"{name}: {old!r} in {file}"


def test_the_startup_probe_builds_the_benchmarks_cli_plan(tmp_path):
    # In a child, so that this process's sys.path gains neither perfbench/
    # nor scripts/; -B writes no bytecode beside them.
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import startup_probe; "
        "plan = startup_probe.cli_invocations(sys.argv[2], sys.argv[3]); "
        "print(json.dumps([argv for argv, _, _ in plan]))"
    )
    args = [str(ROOT / "scripts"), str(ROOT / "src"), str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    argvs = [tuple(argv) for argv in json.loads(proc.stdout)]
    fixed = assigned(ROOT / "perfbench" / "workloads.py", "CLI_FIXED")
    assert len(argvs) == 11
    assert argvs[3:] == [argv for argv, _, _ in fixed]
    for command, path, *rest in argvs[:3]:
        assert (command, rest) == ("verify", ["--format", "json"])
        assert os.path.isfile(path) and Path(path).parent == tmp_path
