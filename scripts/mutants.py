#!/usr/bin/env python3
"""Seeded mutants: every one must fail the fast test tier.

Each mutant is one named source edit: a file under ``src/ntdice``, a text
that occurs there exactly once, and its replacement. For each mutant in
turn, the script copies the working tree (``src/``, ``tests/`` and the rest,
without ``.git`` and caches) to a fresh temporary directory, applies that
one edit, and runs ``python -m pytest -m "not slow" -x`` there, so the
tests and the ``python -m ntdice`` processes they start all import the
mutated copy. A mutant is killed when that run fails. Before the mutants,
the unmutated copy must pass, or a failure would prove nothing.

Prints one line per mutant (killed or SURVIVED, seconds, and the first
failing test) and exits 1 if any mutant survives, 2 if an edit no longer
matches the source or the unmutated copy fails. The whole list takes
about three minutes on 2 cores; it runs one pytest process at a time.

    python scripts/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build"
)
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-m", "not slow",
    "-p", "no:cacheprovider",
]
FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)

# (name, file under src/ntdice, text found exactly once, replacement)
MUTANTS = [
    ("need-plus-1", "search.py",
     "need = nsq // 2 + 1", "need = nsq // 2 + 2"),
    ("need-minus-1", "search.py",
     "need = nsq // 2 + 1", "need = nsq // 2"),
    ("half-plus-1", "search.py",
     "half = (nsq + 1) // 2", "half = (nsq + 1) // 2 + 1"),
    ("half-minus-1", "search.py",
     "half = (nsq + 1) // 2", "half = (nsq + 1) // 2 - 1"),
    ("cut-threshold-without-plus-1", "search.py",
     "return wins + j * (n - j) + (n - j) ** 2 // 2 + 1",
     "return wins + j * (n - j) + (n - j) ** 2 // 2"),
    ("bnt-prune-ge", "search.py",
     "return max(max(lo), need) > min(hi)", "return max(max(lo), need) >= min(hi)"),
    ("edge-prune-le", "search.py",
     "if row[y] < need:", "if row[y] <= need:"),
    ("cycle-pass-over-predecessor", "core.py",
     "cyc[x] += placed[succ[x]]", "cyc[x] += placed[x - 1]"),
    ("tail-length-plus-1", "search.py",
     "return min(t, m * n - 1)", "return min(t + 1, m * n - 1)"),
    ("clamp-cap-minus-1", "search.py",
     "cap = need + (n - clamped[a]) * (n - clamped[b])",
     "cap = need - 1 + (n - clamped[a]) * (n - clamped[b])"),
    ("clamp-cap-plus-1", "search.py",
     "cap = need + (n - clamped[a]) * (n - clamped[b])",
     "cap = need + 1 + (n - clamped[a]) * (n - clamped[b])"),
    ("reclamp-cap-plus-1", "search.py",
     "clamped[pu] = need + (n - state[p]) * (n - count - 1)",
     "clamped[pu] = need + 1 + (n - state[p]) * (n - count - 1)"),
    ("clamp-edits-shared-list", "search.py",
     "clamped = ends[:]", "clamped = ends"),
    ("successor-not-restored", "search.py",
     "ends[up] = state[up]", "ends[up] = hi"),
    ("carry-parent-low", "search.py",
     "following[key] = [mass, top, bottom]", "following[key] = [mass, top, low]"),
    ("rotation-skip-lt", "search.py",
     "if src[k] <= key[0]:", "if src[k] < key[0]:"),
    ("tail-base-empty", "search.py",
     'return [""]', "return []"),
    ("few-sides-check-at-3", "search.py",
     "if n <= 2 and", "if n <= 3 and"),
    ("few-sides-check-on-transitive", "search.py",
     "!= list(range(m))", "!= list(range(1, m + 1))"),
    ("plain-int-admits-subclasses", "core.py",
     "return type(value) is int", "return isinstance(value, int)"),
    ("int-token-skips-ascii-match", "core.py",
     "if not _INTEGER.fullmatch(token):", "if False:"),
    ("walk-words-one-letter-long", "search.py",
     "if len(path) < inner:", "if len(path) <= inner:"),
    ("walk-words-one-letter-short", "search.py",
     "inner = left - t - 1", "inner = left - t - 2"),
    ("walk-backtrack-skips-pop", "search.py",
     "placed[x] -= 1\n            pop(x)", "placed[x] -= 1"),
    ("walk-backtrack-keeps-count", "search.py",
     "placed[x] -= 1", "placed[x] -= 0"),
    ("option-reads-int", "cli.py",
     '"--sides", type=integer', '"--sides", type=int'),
]


def applies(edit) -> bool:
    name, file, old, _ = edit
    count = (ROOT / "src" / "ntdice" / file).read_text(encoding="utf-8").count(old)
    if count != 1:
        print(f"{name}: {old!r} occurs {count} times in {file}", file=sys.stderr)
    return count == 1


def run_tree(edit) -> tuple[bool, float, str]:
    """Copy the tree, apply ``edit`` (or nothing), run the fast tier there:
    (passed, seconds, first failing test or the output's last line)."""
    with tempfile.TemporaryDirectory(prefix="ntdice-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if edit is not None:
            _, file, old, new = edit
            path = tree / "src" / "ntdice" / file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        start = time.perf_counter()
        proc = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = FAILED.search(proc.stdout)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return proc.returncode == 0, seconds, failed.group(1) if failed else lines[-1]


def report(name: str, verdict: str, seconds: float, detail: str) -> None:
    print(f"{name:<30} {verdict:<9} {seconds:6.1f} s  {detail}", flush=True)


def main() -> int:
    if not all([applies(edit) for edit in MUTANTS]):
        return 2
    passed, seconds, detail = run_tree(None)
    report("unmutated", "passed" if passed else "FAILED", seconds, detail)
    if not passed:
        return 2
    survivors = 0
    for edit in MUTANTS:
        passed, seconds, detail = run_tree(edit)
        survivors += passed
        report(edit[0], "SURVIVED" if passed else "killed", seconds, detail)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
