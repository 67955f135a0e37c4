"""The traced benchmark wraps ntdice functions by name; those names must exist,
and the walks it follows must be generators."""

import ast
import importlib
import types
from pathlib import Path

from ntdice import Tournament, balanced_nontransitive_words, iter_words
from ntdice.search import _backtrack, _edge_rule

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    # Parsed, not imported, so the check writes nothing beside the script.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def test_every_traced_name_is_a_callable_of_its_module():
    layers = traced_layers()
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
