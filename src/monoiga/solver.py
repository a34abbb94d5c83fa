"""Newton-Krylov solver for the coupled potential/recovery system.

The recovery variable is a linear map of the potential, ``w = R u`` with
``R = b (K_t^{-1} M_t kron I)`` and ``K_t = W_t + b d_e M_t`` (the exact
solution of its system, :func:`solve_w_system`), so the coupled system is
one nonlinear equation in ``u``.  Each inexact Newton step solves the
Jacobian system matrix-free by GMRES with the fast-diagonalization
preconditioner, takes the full step and updates ``w = R u``; the solve
stops when the max-abs step of the potential coefficients drops below the
tolerance.  ``relaxation`` only damps the recomputed residual indicator.

One workspace per solve holds the discretization data: a single
default-rule Gauss grid serves the reaction terms, the load vector and the
residual indicator, and with stabilization on it also holds the
stabilizer's refined grid of the upwind weights.  Each step evaluates its
iterate on that grid once (:meth:`_Workspace.evaluate`), and the indicator,
the reaction mass and the residual all read that evaluation.  Each
indicator, whether recomputed every step or latched from the start, becomes
one system: one complete Kronecker operator (the workspace's constant
operator plus the stabilizer's terms) and one preconditioner, built
together from the same stabilizer terms (:meth:`_Workspace.system`).
"""

import copy
import logging
import time as _time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    IterateOnGrid,
    KroneckerOperator,
    SpatialQuadratureData,
    TimeQuadratureData,
    WeightedMass,
    contract_space,
    field_on_grid,
    load_vector,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
)
from .linalg import FastDiagPreconditioner, gmres, solve_w_system
from .stabilization import (
    StabilizationGrid,
    assemble_stabilization,
    compute_tau,
    compute_theta,
    lowrank_factorize,
)
from .tensorops import mode_apply

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
# damped change between steps (max-abs, relaxation times drift) is at most
# this.
INDICATOR_FREEZE_TOL = 0.02

# Cap of the Newton forcing term after the first step.
ETA_MAX = 0.3


class FixedPointDiverged(RuntimeError):
    """The nonlinear solve exhausted its step budget; carries the last state."""

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
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError("%s must be finite and nonnegative" % name)
        if not 0.0 < self.geometry.final_time < np.inf:
            raise ValueError("final time must be positive and finite")
        if self.geometry.dim != self.space.num_spatial_dims:
            raise ValueError("geometry and space dimensions differ")

    @property
    def final_time(self):
        return self.geometry.final_time

    def reaction_constants(self):
        return {"c1": self.c1, "a": self.a, "c2": self.c2}


@dataclass
class FixedPointConfig:
    """Options for the Newton solve.

    ``relaxation`` damps the recomputed residual indicator (it damps
    nothing else; steps are taken in full); ``tolerance`` bounds the max-abs
    step at convergence and ``max_iterations`` the number of steps.
    ``stabilization`` is ``"off"`` for plain Galerkin or ``"spline_upwind"``;
    ``indicator_update`` is ``"every_sweep"`` (recompute the indicator from
    each iterate) or ``"frozen"`` (take it from a Galerkin pre-solve; see
    :func:`fixed_point_solve`); ``linear_tol`` is the first step's forcing
    term and the floor of every step's GMRES solve.
    """

    relaxation: float = 0.5
    tolerance: float = 1e-4
    max_iterations: int = 100
    stabilization: str = "off"
    lowrank_tol: float = 0.1
    indicator_update: str = "every_sweep"
    linear_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.stabilization not in ("off", "spline_upwind"):
            raise ValueError("unknown stabilization %r" % self.stabilization)
        if not 0.0 < self.lowrank_tol < 1.0:
            raise ValueError("lowrank_tol must lie in (0, 1)")
        if self.indicator_update not in ("every_sweep", "frozen"):
            raise ValueError("unknown indicator update %r" % self.indicator_update)
        if not 0.0 < self.linear_tol < 1.0:
            raise ValueError("linear_tol must lie in (0, 1)")


@dataclass
class SolveResult:
    """Solver output: coefficients plus the record each Newton step logs.

    A record holds the step's ``sweep`` number (from 1), ``increment``
    (max-abs step), ``residual`` (``||F||``), ``forcing``,
    ``gmres_iterations``, ``gmres_residual`` (the final relative
    preconditioned residual: 0.0 for a zero right-hand side, 1.0 when
    GMRES returned without iterating) and its
    stabilizer: the low-rank indicator's
    ``rank``, the indicator's maximum ``theta_max``, whether it is
    ``latched``, its ``drift`` (the undamped max-abs change of a recomputed
    indicator, 0.0 where none is computed) and whether its
    ``denominator_vanished`` (rank 0, 0.0, False, 0.0 and False on an
    unstabilized step); the properties below read the records.
    """

    u: np.ndarray
    w: np.ndarray
    steps: list
    converged: bool
    wall_time: float
    indicator: object

    @property
    def iterations(self):
        return len(self.steps)

    @property
    def increments(self):
        return [step["increment"] for step in self.steps]

    @property
    def gmres_iterations(self):
        return [step["gmres_iterations"] for step in self.steps]

    @property
    def avg_gmres(self):
        return float(np.mean(self.gmres_iterations)) if self.gmres_iterations else 0.0

    @property
    def pcg_iterations(self):
        # Always empty (the recovery map needs no PCG); the benchmark fingerprints it.
        return ()


class _Workspace:
    """Per-solve constants shared across Newton steps.

    One default-rule quadrature grid serves the operator, the load vector
    and the residual indicator; with stabilization on, the workspace also
    holds the stabilizer's :class:`StabilizationGrid` of the upwind weights.
    It holds the dense temporal factor ``R_t = b K_t^{-1} M_t`` of the
    recovery map ``w = (R_t kron I) u``, the stacked temporal trial factors
    ``[C_t, C_t R_t]`` of the Jacobian's reaction part (they also evaluate
    ``u`` and ``w`` together, see :meth:`evaluate`; no space-time measure
    is held, :meth:`linearize` forms it slab by slab), ``operator``, the
    Kronecker operator of the constant terms
    ``(C_m W_t + c1 a M_t) kron M_s`` and ``D M_t kron K_s`` (one term per
    spatial factor, so a matvec applies ``M_s`` once), and ``precond``,
    their fast-diagonalization preconditioner (built from the assembled
    ``M_s``, ``K_s``, ``W_t`` and ``M_t``; exact in space unless the patch
    is mapped and large).  The operator's stack is the one copy of ``M_s``
    and ``K_s`` the workspace keeps.  :meth:`system` builds each step's
    operator and preconditioner from these and a stabilizer.
    """

    def __init__(self, problem, config):
        st = problem.space
        geo = problem.geometry
        self.spatial_data = SpatialQuadratureData(st.spatial, geo)
        self.time_data = TimeQuadratureData(st, problem.final_time)
        self.W_t, self.M_t = time_matrices(self.time_data)
        M_s, K_s = spatial_operators(self.spatial_data)
        self.f_vec = rhs_vectors(problem.source, self.spatial_data, self.time_data)
        self.precond = FastDiagPreconditioner.build(
            problem.C_m,
            problem.D,
            problem.a * problem.c1,
            self.spatial_data,
            (M_s, K_s),
            (self.W_t, self.M_t),
        )
        self.recovery = solve_w_system(self.W_t, self.M_t, problem.b, problem.d_e)
        ct = self.time_data.c0
        self.jacobian_trials = np.stack([ct, ct @ self.recovery])
        self.stab_grid = None
        if config.stabilization == "spline_upwind":
            self.stab_grid = StabilizationGrid(compute_tau(st.time), st, geo)
        mass_t = problem.C_m * self.W_t + problem.c1 * problem.a * self.M_t
        self.operator = KroneckerOperator(
            st.num_time,
            st.num_space,
            [(1.0, mass_t, M_s), (problem.D, self.M_t, K_s)],
        )
        self.capacitance = problem.C_m
        self.space_time = st

    def recover(self, u):
        """The recovery field ``w = R u`` of a potential."""
        nt = self.recovery.shape[0]
        return (self.recovery @ u.reshape(nt, -1)).reshape(-1)

    def evaluate(self, u):
        """The :class:`IterateOnGrid` of ``u`` and ``w = R u`` on the default grid.

        One spatial contraction of ``u`` and one temporal contraction with
        the stacked ``jacobian_trials`` give both fields, since
        ``[C_t; C_t R_t] U_s = [u; w]`` on the grid; their ``stack`` has the
        shape of the Jacobian's weights, which :meth:`linearize` writes over
        it.
        """
        u_s = contract_space(self.space_time, u, self.spatial_data.c0)
        trials = self.jacobian_trials
        vals = mode_apply(trials.reshape(-1, trials.shape[-1]), u_s, 0)
        return IterateOnGrid(u_s, vals.reshape((2, -1) + vals.shape[1:]))

    def system(self, lowrank=None):
        """The operator, preconditioner and ``||P f||`` of one stabilizer.

        The operator is ``operator`` with the stabilizer terms of
        ``lowrank`` appended (see :meth:`KroneckerOperator.plus`), or
        ``operator`` itself without one, and the preconditioner ``precond``
        with the same stabilizer's terms added to its temporal solves (see
        :func:`assemble_stabilization`); without stabilizer terms it is
        ``precond`` itself.  ``||P f||``, the norm of the preconditioned
        load vector, is the absolute floor of the step's GMRES tolerance.
        """
        op, precond = self.operator, self.precond
        if lowrank is not None:
            stab, precond_terms = assemble_stabilization(
                lowrank, self.stab_grid, self.capacitance, precond.eigenvectors
            )
            op = op.plus(stab)
            if precond_terms:
                precond = FastDiagPreconditioner(
                    precond.eigenvectors, precond.terms + precond_terms
                )
        norm_pf = float(np.linalg.norm(precond.apply(self.f_vec)))
        return op, precond, norm_pf

    def _jacobian_slabs(self, problem, weights):
        """Form the Jacobian's weights slab by slab; yield the residual's integrand.

        ``weights`` stacks ``u`` and the grid of ``c`` times the measure
        (:func:`reaction_mass`, written over ``w``).  One slab of temporal
        elements at a time, with its own space-time measure (the spatial
        measure times the temporal weights), each slab yields
        ``(rows, (c - c1 a) u times the measure)`` for :func:`load_vector`,
        so the integrand is never a whole grid, after ``j2`` is written over
        the slab of ``c`` and ``j1`` over that of ``u``.
        """
        c1, a, c2 = problem.c1, problem.a, problem.c2
        spatial = self.spatial_data.measure
        times = self.time_data.weights
        for rows in self.time_data.slabs(spatial.size):
            u_vals, j2 = weights[:, rows]
            # The outer product by einsum: a broadcast multiply takes twice as long.
            measure = np.einsum("t,...->t...", times[rows], spatial)
            # (c - c1 a) times the measure: the reaction beyond the one in K.
            rest = np.multiply(measure, c1 * a)
            np.subtract(j2, rest, out=rest)
            np.multiply(u_vals, c2, out=j2)
            j2 *= measure
            integrand = rest * u_vals
            yield rows, integrand
            # Integrated: the integrand's memory takes 2 u - 1 - a.
            factor = np.multiply(u_vals, 2.0, out=integrand)
            factor -= 1.0 + a
            j1 = np.multiply(u_vals, factor, out=u_vals)
            j1 *= c1
            j1 *= measure
            j1 += rest

    def linearize(self, problem, u, op, on_grid):
        """Residual ``F(u)`` and Jacobian operator at an iterate ``u``, ``w = R u``.

        ``op`` is the Kronecker operator ``K`` of :meth:`system`, which is
        not written, and ``on_grid`` the iterate's :meth:`evaluate`, which
        the Jacobian's weights are written over, so it is not valid
        afterwards.  With the reaction coefficient
        ``c = c1 (u - a)(u - 1) + c2 w``,
        ``F(u) = K u + int (c - c1 a) u v - f``, and the Jacobian is ``K``
        plus the :class:`WeightedMass`
        ``C_t^T diag(j1) C_t + C_t^T diag(j2) C_t R_t`` with
        ``j1 = c - c1 a + c1 u (2 u - 1 - a)`` and ``j2 = c2 u``, both times
        the quadrature measure: a shallow copy of ``op`` (sharing its
        stacks) with that correction.  At the zero iterate the remainder
        vanishes: ``F = -f`` and the Jacobian is ``op`` itself.
        :func:`reaction_mass` writes ``c`` times the measure over ``w``, and
        the weights and the residual's integrand are then formed by slabs of
        temporal elements (:meth:`_jacobian_slabs`) in place over
        ``on_grid.stack``, so no grid is made.
        """
        if not np.any(u):
            return -self.f_vec, op
        ct = self.time_data.c0
        cs = self.spatial_data.c0
        reaction_mass(
            problem.reaction_constants(),
            on_grid,
            self.spatial_data,
            self.time_data,
            out=on_grid.w,
        )
        integrand = self._jacobian_slabs(problem, on_grid.stack)
        residual = op.matvec(u) + load_vector(ct, cs, integrand) - self.f_vec
        jac = copy.copy(op)
        jac.correction = WeightedMass(ct, cs, on_grid.stack, self.jacobian_trials)
        return residual, jac


def fixed_point_solve(problem, config=None):
    """Solve the coupled system by inexact Newton-Krylov on the potential.

    The recovery variable is the linear map ``w = R u`` of the potential,
    so the coupled system is one nonlinear equation ``F(u) = 0`` (see
    :meth:`_Workspace.linearize`).  Each step solves ``J delta = -F`` by
    GMRES with the fast-diagonalization preconditioner (built with the
    step's operator from the same stabilizer terms), from zero, to the
    relative tolerance
    ``max(eta_k, linear_tol ||P f|| / ||P F_k||)``: the
    first step's forcing term is ``linear_tol``, and later ones are
    ``min(ETA_MAX, 0.9 (||F_k|| / ||F_{k-1}||)^2)`` (Eisenstat & Walker's
    choice 2).  The second term is an absolute floor, so a step whose
    residual already meets ``linear_tol`` returns ``delta = 0``.  Steps are
    taken in full; the solve stops when the max-abs step ``max |delta|`` is
    at most ``config.tolerance``.  The first step solves the same system as
    a frozen-coefficient sweep from the zero iterate.

    Raises :class:`FixedPointDiverged` (carrying the partial result) when the
    step budget is exhausted.

    With ``indicator_update == "every_sweep"`` the residual indicator is
    recomputed from the current iterate before every step (it then tracks
    layers as they develop); with relaxation below one it is damped by the
    relaxation and latched once its damped change drops to
    ``INDICATOR_FREEZE_TOL``.  With ``"frozen"`` a plain Galerkin solve runs
    first and its indicator is latched from the first step; the coupled
    recomputation settles at a self-amplified indicator level that caps the
    accuracy on smooth problems, so the frozen variant is the one that
    preserves optimal convergence orders.  The stabilized steps start from
    the pre-solve's iterate, and both phases share one workspace.
    """
    if config is None:
        config = FixedPointConfig()
    t0 = _time.perf_counter()
    ws = _Workspace(problem, config)
    if config.stabilization == "spline_upwind" and config.indicator_update == "frozen":
        pre = _newton(problem, replace(config, stabilization="off"), ws, t0)
        indicator = compute_theta(
            problem, pre.u, ws.evaluate(pre.u), ws.spatial_data, ws.time_data
        )
        return _newton(problem, config, ws, t0, start=pre, indicator=indicator)
    return _newton(problem, config, ws, t0)


def _newton(problem, config, ws, t0, start=None, indicator=None):
    """Newton steps from the zero iterate or from a ``start`` result.

    Steps continue the records of ``start``, whose iterate starts the
    iteration.  A given ``indicator`` is latched: its stabilizer serves
    every step.  The phase builds one system (:meth:`_Workspace.system`)
    per stabilizer, and an unstabilized phase one without stabilizer terms.
    Each step evaluates its iterate on the default grid once, for the
    indicator and the linearization.
    """
    if start is None:
        steps = []
        u = np.zeros(problem.space.num_dof)
    else:
        steps = list(start.steps)
        u = start.u
    done = len(steps)
    alpha = config.relaxation
    stabilized = config.stabilization == "spline_upwind"
    latched = indicator is not None
    system = None if stabilized else ws.system()

    for k in range(done + 1, done + config.max_iterations + 1):
        drift = 0.0
        rebuild = stabilized and not (latched and system is not None)
        if rebuild:
            # The last step's system is not used again: release its
            # stabilizer stack and per-mode inverses before this step's
            # evaluation, indicator and system are built.
            system = op = precond = None
        on_grid = ws.evaluate(u)
        if rebuild:
            if not latched:
                fresh = compute_theta(
                    problem, u, on_grid, ws.spatial_data, ws.time_data
                )
                if indicator is not None and alpha < 1.0:
                    # Damp the indicator by the relaxation: an undamped
                    # recomputation flip-flops between activation patterns
                    # on under-resolved sharp layers.
                    drift = float(np.max(np.abs(fresh.values - indicator.values)))
                    fresh.values = (
                        alpha * fresh.values + (1.0 - alpha) * indicator.values
                    )
                    # Once the damped indicator settles, latch it: flickering
                    # activation patterns otherwise sustain iterate cycles.
                    latched = drift * alpha <= INDICATOR_FREEZE_TOL
                indicator = fresh
            lowrank = lowrank_factorize(indicator, config.lowrank_tol)
            system = ws.system(lowrank)
        op, precond, norm_pf = system
        residual, jac = ws.linearize(problem, u, op, on_grid)
        # The grid evaluation is not read past the linearization.
        del on_grid
        res = float(np.linalg.norm(residual))
        if k == done + 1:
            eta = config.linear_tol
        else:
            eta = min(ETA_MAX, 0.9 * (res / steps[-1]["residual"]) ** 2)
        delta, nit, history = gmres(
            jac,
            -residual,
            precond=precond,
            tol=eta,
            atol=config.linear_tol * norm_pf,
        )
        # The Jacobian's weight grid is not needed past its solve.
        del jac
        u = u + delta
        step = {
            "sweep": k,
            "increment": float(np.max(np.abs(delta))),
            "residual": res,
            "forcing": eta,
            "gmres_iterations": nit,
            "gmres_residual": float(history[-1]),
            "rank": lowrank.rank if stabilized else 0,
            "theta_max": indicator.max if stabilized else 0.0,
            "latched": stabilized and latched,
            "drift": drift,
            "denominator_vanished": stabilized and indicator.denominator_vanished,
        }
        steps.append(step)
        log.info(
            "sweep %(sweep)3d: increment %(increment).3e, residual %(residual).3e, "
            "forcing %(forcing).1e, %(gmres_iterations)d GMRES iterations",
            step,
            extra=step,
        )
        converged = step["increment"] <= config.tolerance
        if converged:
            break
    wall_time = _time.perf_counter() - t0
    result = SolveResult(u, ws.recover(u), steps, converged, wall_time, indicator)
    if not converged:
        raise FixedPointDiverged(
            "Newton iteration did not reach %.2e in %d steps"
            % (config.tolerance, config.max_iterations),
            result,
        )
    return result


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
    wsp = sd.measure.reshape(-1)
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
