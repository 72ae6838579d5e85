"""The bench's tracer wraps package attributes by name (WRAPPED in
bench/tracing.py), and its observers in bench/run.py read the arguments and
results of the wrapped calls; every name they use must still exist, or a
traced bench run fails."""

import ast
import dataclasses
import functools
import importlib
import inspect
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


def test_observed_names_exist():
    from mpsolve.dirac import AmplitudeTrajectory
    from mpsolve.projection import EvolutionResult, ProjectionStepReport, evolve

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    # _observe_evolve reads the grid of evolve's first argument, then every report
    assert next(iter(inspect.signature(evolve).parameters)) == "psi0"
    assert "reports" in fields(EvolutionResult)
    assert {"coefficients", "basis_refreshed"} <= fields(ProjectionStepReport)
    # _observe_integrate counts the steps from the sample times
    assert "times" in fields(AmplitudeTrajectory)
