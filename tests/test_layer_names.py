"""The benchmark's tracer wraps kimura4 functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def layer_functions() -> dict[str, list[str]]:
    """LAYER_FUNCTIONS as written in perfbench/tracer.py, read without
    importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACER}")


def test_tracer_layer_functions_resolve():
    layers = layer_functions()
    assert layers
    missing = []
    for layer, attrs in layers.items():
        mod = importlib.import_module(f"kimura4.{layer}")
        for attr in attrs:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{attr}")
    assert not missing, f"traced names missing from kimura4: {missing}"
