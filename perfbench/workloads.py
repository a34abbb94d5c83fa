"""The benchmark's workloads: inputs from a seed, set-up, solve and the gate.

Each workload is the ROADMAP scenario of the same name, reduced so that one
solve takes a few seconds and a run can report the median of several.  Every
workload offers the same steps to ``run.py``:

- ``inputs(seed)``: the :class:`ExperimentConfig` the library receives;
  the same seed gives the same config;
- ``setup(config)``: geometry, space, source and problem, i.e. everything
  up to the first call of ``fixed_point_solve``;
- ``reference(config, state)``: data the gate needs, computed once per run
  outside the timed solves;
- ``solve(config, state)``: the timed call;
- ``check(config, state, outcome, reference)``: ``(quality, problems)``,
  where an empty ``problems`` list means the outcome is correct;
- ``fingerprint(outcome)``: what must repeat exactly between solves.
"""

import hashlib
import random
from dataclasses import replace

import numpy as np

from monoiga import experiments, solver

# Seed-drawn source parameters: amplitude within +-0.5 % of the default and
# window shifted by at most 0.2 time units.  The cube's oscillation moves
# about 4.5 times as much as the amplitude, and wider draws also move the
# sweep count, which would swamp the run-to-run spread the bounds allow.
AMPLITUDE_JITTER = 0.005
WINDOW_JITTER = 0.2

# Acceptance criterion 7: the stabilized oscillation is at most this share
# of the Galerkin oscillation on the same inputs.
OSCILLATION_RATIO = 0.1


class UpwindSolve:
    """One spline-upwind solve of a pulse-driven problem on the iterative path."""

    def __init__(self, name, **fields):
        self.name = name
        self.base = experiments.ExperimentConfig(
            kind="solve",
            stabilization="spline_upwind",
            linear_solver="iterative",
            max_iterations=100,
            **fields,
        )

    def inputs(self, seed):
        rng = random.Random(seed)
        defaults = experiments.make_source(
            self.base.source,
            self.base.final_time,
            self.base.constants,
            self.base.source_params,
        ).params
        start = defaults["window_start"] + rng.uniform(-WINDOW_JITTER, WINDOW_JITTER)
        width = defaults["window_end"] - defaults["window_start"]
        amplitude = defaults["amplitude"] * (
            1.0 + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER)
        )
        params = {"amplitude": amplitude, "window_start": start, "window_end": start + width}
        return replace(self.base, source_params=params)

    def setup(self, config):
        geo = experiments.build_geometry(config.geometry, final_time=config.final_time)
        space = experiments.build_space(
            geo, config.degree, config.h_space, config.h_time
        )
        source = experiments.make_source(
            config.source, config.final_time, config.constants, config.source_params
        )
        problem = solver.MonodomainProblem(
            geometry=geo, space=space, source=source, **config.constants
        )
        return problem, source

    def _solve(self, config, state, stabilization):
        problem, _ = state
        return solver.fixed_point_solve(
            problem, config.solver_config(stabilization=stabilization)
        )

    def solve(self, config, state):
        return self._solve(config, state, "spline_upwind")

    def oscillation(self, config, state, result):
        """``oscillation_metric`` with the onset margin ``run_compare`` uses."""
        problem, source = state
        margin = min(
            experiments.support_bleed_margin(problem.space, config.final_time),
            0.5 * source.activation_start,
        )
        return experiments.oscillation_metric(
            problem.space,
            problem.geometry,
            result.u,
            source.activation_start,
            margin=margin,
        )

    def reference(self, config, state):
        """The Galerkin solve on the same inputs, summarised."""
        try:
            result = self._solve(config, state, "off")
        except solver.FixedPointDiverged as exc:
            # run_compare also scores a non-converged Galerkin run by its
            # last iterate.
            result = exc.result
        return {
            "galerkin_oscillation": self.oscillation(config, state, result),
            "galerkin_sweeps": result.iterations,
            "galerkin_converged": result.converged,
        }

    def check(self, config, state, result, reference):
        problems = []
        if not result.converged:
            problems.append("fixed point did not converge")
        if not (np.all(np.isfinite(result.u)) and np.all(np.isfinite(result.w))):
            problems.append("non-finite coefficients")
        osc = self.oscillation(config, state, result)
        galerkin = reference["galerkin_oscillation"]
        if not osc <= OSCILLATION_RATIO * galerkin:
            problems.append(
                "oscillation %.6g above %g x Galerkin %.6g"
                % (osc, OSCILLATION_RATIO, galerkin)
            )
        return osc, problems

    def fingerprint(self, result):
        digest = hashlib.sha256(result.u.tobytes() + result.w.tobytes()).hexdigest()
        return (
            result.iterations,
            tuple(result.gmres_iterations),
            tuple(result.pcg_iterations),
            digest,
        )


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        UpwindSolve(
            "annulus2d_upwind",
            geometry="ellipse_annulus",
            degree=3,
            h_space=[1.0 / 12, 1.0 / 2],
            h_time=1.0 / 12,
            final_time=120.0,
            source="gaussian_pulse_2d",
        ),
        UpwindSolve(
            "cube3d_upwind",
            geometry="unit_cube",
            degree=2,
            h_space=[1.0 / 4],
            h_time=1.0 / 8,
            final_time=80.0,
            source="layer_pulse_3d",
            # The oscillation metric samples Gauss times before the window
            # opening minus one temporal support width (30 here).  With the
            # library's opening at 45 that cutoff sits on the Gauss point
            # t = 15, and the seed's window shift would move it in and out
            # of the metric; an opening at 44.5 keeps the cutoff clear of it
            # and samples the same points as the default.
            source_params={"window_start": 44.5, "window_end": 59.5},
        ),
    )
}
