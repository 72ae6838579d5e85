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

import numpy as np
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


def test_trajectory_has_one_time_per_step():
    # _observe_integrate counts times.size - 1 as the RK4 steps taken; on a
    # window the breakpoints cut into pieces, each piece end is one time
    from mpsolve.dirac import integrate_amplitudes, rk4_pieces

    knots, span, steps = [0.3, 0.8, 1.1], (0.0, 2.0), 301
    assert rk4_pieces(knots, span, steps)[1].size == 4
    traj = integrate_amplitudes(lambda t: np.eye(3), np.array([0.5, 1.5, 2.5]),
                                np.eye(3)[0], span, steps, knots)
    assert traj.times.size - 1 == steps
    assert np.all(np.diff(traj.times) > 0)
