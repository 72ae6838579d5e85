"""The bench's tracer wraps package attributes by name (WRAPPED in
bench/tracing.py); every name it lists must still exist, or a traced bench
run fails."""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def wrapped() -> tuple:
    """WRAPPED, read from the source of bench/tracing.py without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "WRAPPED" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no WRAPPED")


@pytest.mark.parametrize("module, attr, span", wrapped())
def test_wrapped_attribute_resolves(module, attr, span):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)
