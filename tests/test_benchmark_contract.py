"""The library surface the benchmark uses must exist and report.

``perfbench/workloads.py`` builds its inputs from ``ExperimentConfig``
fields, and ``perfbench/tracing.py`` wraps library functions by name and
reads attributes of their results; a removed field or a rename in the
library would otherwise only surface when the benchmark runs.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from monoiga import assembly, solver
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import builtin_geometry
from monoiga.solver import FixedPointConfig, MonodomainProblem

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def perfbench():
    """``import_module`` with ``perfbench/`` on the path."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module
    finally:
        sys.path.remove(PERFBENCH)


def test_workload_inputs_reach_the_solver_config(perfbench):
    # Everything a benchmark run does before its first solve.
    for workload in perfbench("workloads").WORKLOADS.values():
        config = workload.inputs(1)
        problem, _ = workload.setup(config)
        fp = config.solver_config(stabilization="spline_upwind")
        assert isinstance(problem, MonodomainProblem)
        assert isinstance(fp, FixedPointConfig)
        assert fp.stabilization == "spline_upwind"


def test_traced_solve_reports_reaction_operator_size(perfbench):
    tracing = perfbench("tracing")
    st = SpaceTimeSpace([SplineSpace.uniform(2, 4)], SplineSpace.uniform(2, 4))
    problem = MonodomainProblem(
        geometry=builtin_geometry("unit_interval", final_time=1.0),
        space=st,
        source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
    )
    config = FixedPointConfig(stabilization="spline_upwind", tolerance=1e-6)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        result = solver.fixed_point_solve(problem, config)
    finally:
        tracer.restore()
    assert result.converged
    spans = [s for s in tracer.spans if s.name == "assembly.reaction_mass"]
    assert spans
    assert all(s.attrs["nnz"] > 0 and s.attrs["bytes"] > 0 for s in spans)
    metrics = tracing.solve_metrics(tracer.spans, 0)
    assert metrics["solver.sweeps"] == result.iterations
    assert metrics["linalg.gmres_calls"] == result.iterations
    assert solver.reaction_mass is assembly.reaction_mass
