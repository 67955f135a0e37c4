"""The traced benchmark wraps ntdice functions by name; those names must exist."""

import ast
import importlib
from pathlib import Path

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
