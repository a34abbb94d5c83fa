"""Relaxed fixed-point driver for the coupled potential/recovery system.

Each sweep freezes the reaction coefficient at the previous iterate, solves
the two decoupled linear systems, relaxes, and stops when the max-abs change
of the potential coefficients drops below the tolerance.  The potential
system is solved matrix-free by GMRES with the fast-diagonalization
preconditioner, started from the previous sweep's solution; the recovery
system is solved exactly by one dense temporal matrix applied along the
time axis (:func:`solve_w_system`).

One workspace per solve holds the discretization data: a single
default-rule Gauss grid serves the reaction mass, the load vector and the
residual indicator, and with stabilization on it also holds the upwind
weights and the stabilizer's refined grid.  One step turns an indicator
into the stabilizer's Kronecker terms, whether it is recomputed every sweep
or latched from the start.
"""

import logging
import time as _time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    KroneckerOperator,
    SpatialQuadratureData,
    TimeQuadratureData,
    field_on_grid,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
)
from .linalg import FastDiagPreconditioner, gmres, solve_w_system
from .stabilization import (
    _StabilizationGrid,
    assemble_stabilization,
    compute_tau,
    compute_theta,
    lowrank_factorize,
)

__all__ = [
    "MonodomainProblem",
    "FixedPointConfig",
    "SolveResult",
    "FixedPointDiverged",
    "fixed_point_solve",
    "l2_error",
]

log = logging.getLogger(__name__)

# With relaxation below one, the recomputed indicator is latched once its
# damped change between sweeps (max-abs, relaxation times drift) is at most
# this.
INDICATOR_FREEZE_TOL = 0.02


class FixedPointDiverged(RuntimeError):
    """Fixed-point iteration exhausted its budget; carries the last state."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class MonodomainProblem:
    """Monodomain equation with Rogers-McCulloch kinetics on a spline domain.

    The homogeneous Neumann condition is natural in the weak form and both
    unknowns start from zero initial data.  ``source`` is a callable
    ``f(x, t)`` on physical coordinates (arrays of shape ``(m, d)`` and
    ``(m,)``), or ``None`` for a quiescent problem.
    """

    geometry: object
    space: object
    source: object = None
    C_m: float = 1.0
    D: float = 1e-4
    a: float = 0.13
    b: float = 0.013
    c1: float = 0.26
    c2: float = 0.1
    d_e: float = 1.0

    def __post_init__(self):
        for name in ("C_m", "D", "a", "b", "c1", "c2", "d_e"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be nonnegative" % name)
        if self.geometry.final_time <= 0:
            raise ValueError("final time must be positive")
        if self.geometry.dim != self.space.num_spatial_dims:
            raise ValueError("geometry and space dimensions differ")

    @property
    def final_time(self):
        return self.geometry.final_time

    def reaction_constants(self):
        return {"c1": self.c1, "a": self.a, "c2": self.c2}


@dataclass
class FixedPointConfig:
    """Options for the fixed-point sweep.

    ``stabilization`` is ``"off"`` for plain Galerkin or ``"spline_upwind"``;
    ``indicator_update`` is ``"every_sweep"`` (recompute the indicator from
    each iterate) or ``"frozen"`` (take it from a Galerkin pre-solve; see
    :func:`fixed_point_solve`); ``linear_tol`` is the relative tolerance of
    the preconditioned GMRES solve of every sweep.  ``indicator_override``
    replaces the residual indicator computation (testing hook).
    """

    relaxation: float = 0.5
    tolerance: float = 1e-4
    max_iterations: int = 100
    stabilization: str = "off"
    lowrank_tol: float = 0.1
    indicator_update: str = "every_sweep"
    linear_tol: float = 1e-8
    evolve_recovery: bool = True
    indicator_override: object = None

    def __post_init__(self):
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.stabilization not in ("off", "spline_upwind"):
            raise ValueError("unknown stabilization %r" % self.stabilization)
        if self.indicator_update not in ("every_sweep", "frozen"):
            raise ValueError("unknown indicator update %r" % self.indicator_update)


@dataclass
class SolveResult:
    """Solver output: coefficients plus iteration diagnostics."""

    u: np.ndarray
    w: np.ndarray
    iterations: int
    increments: list = field(default_factory=list)
    converged: bool = True
    gmres_iterations: list = field(default_factory=list)
    wall_time: float = 0.0
    indicator: object = None

    @property
    def avg_gmres(self):
        return float(np.mean(self.gmres_iterations)) if self.gmres_iterations else 0.0

    @property
    def pcg_iterations(self):
        # Always empty (the recovery map needs no PCG); the benchmark fingerprints it.
        return ()


class _Workspace:
    """Discretization-dependent data shared across fixed-point sweeps.

    One default-rule quadrature grid serves the operator, the load vector
    and the residual indicator; with stabilization on, the workspace also
    holds the upwind weights ``tau`` and the stabilizer's refined grid.
    """

    def __init__(self, problem, config):
        st = problem.space
        geo = problem.geometry
        self.spatial_data = SpatialQuadratureData(st.spatial, geo)
        self.time_data = TimeQuadratureData(st, problem.final_time)
        self.W_t, self.M_t = time_matrices(
            st, problem.final_time, time_data=self.time_data
        )
        self.M_s, self.K_s = spatial_operators(
            st.spatial, geo, spatial_data=self.spatial_data
        )
        self.f_vec = rhs_vectors(
            st,
            geo,
            problem.source,
            spatial_data=self.spatial_data,
            time_data=self.time_data,
        )
        self.precond = FastDiagPreconditioner.build(
            st,
            problem.final_time,
            problem.C_m,
            problem.D,
            problem.a * problem.c1,
            spatial_data=self.spatial_data,
        )
        self.tau = None
        self.stab_grid = None
        if config.stabilization == "spline_upwind":
            self.tau = compute_tau(st.time)
            self.stab_grid = _StabilizationGrid(self.tau, st, geo)

    def indicator(self, problem, config, u, w):
        """Residual indicator at an iterate, on the workspace's grid."""
        if config.indicator_override is not None:
            return config.indicator_override(problem, u, w)
        return compute_theta(problem, u, w, self.spatial_data, self.time_data)

    def stabilizer_terms(self, problem, config, indicator):
        """Kronecker terms of the stabilizer an indicator switches on."""
        lowrank = lowrank_factorize(indicator, config.lowrank_tol)
        stab = assemble_stabilization(
            self.tau,
            lowrank,
            problem.space,
            problem.geometry,
            problem.C_m,
            self.stab_grid,
        )
        return stab.terms()

    def operator(self, problem, u_k, w_k, stab_terms):
        st = problem.space
        terms = [
            (problem.C_m, self.W_t, self.M_s),
            (problem.D, self.M_t, self.K_s),
        ]
        correction = None
        if not np.any(u_k) and not np.any(w_k):
            # Zero iterate: the frozen reaction coefficient is the constant
            # c1 * a, which keeps the Kronecker structure exact.
            terms.append((problem.c1 * problem.a, self.M_t, self.M_s))
        else:
            correction = reaction_mass(
                st,
                problem.geometry,
                problem.reaction_constants(),
                u_k,
                w_k,
                spatial_data=self.spatial_data,
                time_data=self.time_data,
            )
        terms.extend(stab_terms)
        return KroneckerOperator(st.num_time, st.num_space, terms, correction)


def fixed_point_solve(problem, config=None):
    """Run the relaxed fixed-point iteration from the zero initial iterate.

    Each iteration freezes the reaction coefficient (and, with stabilization
    enabled, the residual indicator) at the previous iterate, solves the
    decoupled potential and recovery systems, and relaxes both updates.
    Stops when the max-abs change of the potential coefficients is at most
    ``config.tolerance``.

    Raises :class:`FixedPointDiverged` (carrying the partial result) when the
    iteration budget is exhausted.

    With ``indicator_update == "every_sweep"`` the residual indicator is
    recomputed from the current iterate before every sweep (it then tracks
    layers as they develop); with relaxation below one it is damped along
    with the iterates and latched once its damped change drops to
    ``INDICATOR_FREEZE_TOL``.  With ``"frozen"`` a plain Galerkin solve runs
    first and its indicator is latched from the first sweep; the coupled
    recomputation settles at a self-amplified indicator level that caps the
    accuracy on smooth problems, so the frozen variant is the one that
    preserves optimal convergence orders.  The stabilized sweeps start from
    the pre-solve's iterate, and both phases share one workspace.
    """
    if config is None:
        config = FixedPointConfig()
    t0 = _time.perf_counter()
    ws = _Workspace(problem, config)
    if config.stabilization == "spline_upwind" and config.indicator_update == "frozen":
        pre = _sweeps(problem, replace(config, stabilization="off"), ws, t0)
        indicator = ws.indicator(problem, config, pre.u, pre.w)
        return _sweeps(problem, config, ws, t0, start=pre, indicator=indicator)
    return _sweeps(problem, config, ws, t0)


def _sweeps(problem, config, ws, t0, start=None, indicator=None):
    """Fixed-point sweeps from the zero iterate or from a ``start`` result.

    Sweeps continue the numbering of ``start``, whose iterate also starts
    the first GMRES solve.  A given ``indicator`` is latched: its stabilizer
    serves every sweep.
    """
    st = problem.space
    if start is None:
        done = 0
        u = np.zeros(st.num_dof)
        w = np.zeros(st.num_dof)
        u_tilde = None
    else:
        done = start.iterations
        u, w, u_tilde = start.u, start.w, start.u
    increments = []
    gmres_iters = []
    alpha = config.relaxation
    stabilized = config.stabilization == "spline_upwind"
    latched = indicator is not None
    stab_terms = None

    for k in range(done + 1, done + config.max_iterations + 1):
        if stabilized and not (latched and stab_terms is not None):
            if not latched:
                fresh = ws.indicator(problem, config, u, w)
                if indicator is not None and alpha < 1.0:
                    # Relax the indicator along with the iterates: an
                    # undamped recomputation flip-flops between activation
                    # patterns on under-resolved sharp layers.
                    drift = float(np.max(np.abs(fresh.values - indicator.values)))
                    fresh.values = (
                        alpha * fresh.values + (1.0 - alpha) * indicator.values
                    )
                    # Once the damped indicator settles, latch it: flickering
                    # activation patterns otherwise sustain iterate cycles.
                    latched = k > done + 1 and drift * alpha <= INDICATOR_FREEZE_TOL
                indicator = fresh
            stab_terms = ws.stabilizer_terms(problem, config, indicator)
        op = ws.operator(problem, u, w, stab_terms or [])

        # Warm start from the previous sweep's unrelaxed solution: the
        # systems of consecutive sweeps differ only in the frozen terms.
        u_tilde, nit, _ = gmres(
            op, ws.f_vec, precond=ws.precond, tol=config.linear_tol, x0=u_tilde
        )
        gmres_iters.append(nit)

        if config.evolve_recovery:
            w_tilde = solve_w_system(ws.W_t, ws.M_t, problem.b, problem.d_e, u)
        else:
            w_tilde = w

        u_new = alpha * u_tilde + (1.0 - alpha) * u
        w_new = alpha * w_tilde + (1.0 - alpha) * w
        inc = float(np.max(np.abs(u_new - u)))
        increments.append(inc)
        log.info(
            "sweep %3d: increment %.3e, %d GMRES iterations",
            k,
            inc,
            nit,
            extra={"sweep": k, "increment": inc, "gmres_iterations": nit},
        )
        u, w = u_new, w_new
        if inc <= config.tolerance:
            return SolveResult(
                u,
                w,
                k,
                increments,
                True,
                gmres_iters,
                _time.perf_counter() - t0,
                indicator,
            )
    result = SolveResult(
        u,
        w,
        done + config.max_iterations,
        increments,
        False,
        gmres_iters,
        _time.perf_counter() - t0,
        indicator,
    )
    raise FixedPointDiverged(
        "fixed point did not reach %.2e in %d iterations"
        % (config.tolerance, config.max_iterations),
        result,
    )


def l2_error(space_time, geo, coeffs, exact):
    """Relative space-time L2 distance between a field and a reference.

    ``exact`` is a callable on physical coordinates and times.  Uses
    ``degree + 2`` Gauss points per element in time and in space (the
    largest spatial degree).  When the reference has zero norm the absolute
    error is returned and a warning is emitted.
    """
    st = space_time
    sd = SpatialQuadratureData(
        st.spatial, geo, npoints=max(s.degree for s in st.spatial) + 2
    )
    td = TimeQuadratureData(st, geo.final_time, npoints=st.time.degree + 2)
    ue = sd.sample(exact, td).reshape(td.weights.size, -1)
    uh = field_on_grid(st, coeffs, td.c0, sd.c0).reshape(ue.shape)
    wsp = (sd.wgrid * np.abs(sd.detj)).reshape(-1)
    werr = np.einsum("t,q,tq->", td.weights, wsp, (uh - ue) ** 2)
    wref = np.einsum("t,q,tq->", td.weights, wsp, ue**2)
    if wref == 0.0:
        warnings.warn(
            "reference field has zero norm; returning the absolute error",
            RuntimeWarning,
            stacklevel=2,
        )
        return float(np.sqrt(werr))
    return float(np.sqrt(werr / wref))
