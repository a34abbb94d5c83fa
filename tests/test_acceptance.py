"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite includes two long-running entries (the convergence
study and the desk-scale 2D comparison).
"""

import numpy as np
import pytest

from monoiga import linalg, solver
from monoiga.assembly import (
    KroneckerOperator,
    SpatialQuadratureData,
    TimeQuadratureData,
    reaction_mass,
    spatial_operators,
    time_matrices,
)
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.experiments import ExperimentConfig, run_compare, run_convergence
from monoiga.geometry import builtin_geometry
from monoiga.linalg import (
    FastDiagPreconditioner,
    gmres,
    solve_w_system,
)
from monoiga.solver import (
    FixedPointConfig,
    MonodomainProblem,
    fixed_point_solve,
)
from monoiga.stabilization import (
    ResidualIndicator,
    StabilizationGrid,
    assemble_stabilization,
    compute_tau,
    compute_theta,
    lowrank_factorize,
    multilinear_grid,
)
from oracles import (
    dense_space_time_basis,
    dense_weighted_space_time_mass,
    iterate_on_grid,
    weighted_mass_sparse,
)

RNG = np.random.default_rng(2025)
A_RM, C1_RM = 0.13, 0.26


def report(num, message):
    print("\n[acceptance %d] PASS: %s" % (num, message))


def test_criterion_1_convergence_order(tmp_path):
    """Optimal L2 convergence of the stabilized method for p = 2, 3."""
    cfg = ExperimentConfig(kind="convergence", output_dir=str(tmp_path))
    rows, slopes = run_convergence(cfg)
    for p in (2, 3):
        assert slopes[p] >= p + 1 - 0.25, "slope %.3f too low for p=%d" % (slopes[p], p)
        errors = [r[2] for r in rows if r[0] == str(p)]
        assert all(e1 > e2 for e1, e2 in zip(errors[:-1], errors[1:]))
    report(1, "regression slopes %s against thresholds {2: 2.75, 3: 3.75}"
           % {p: round(s, 3) for p, s in slopes.items()})


def test_criterion_2_classical_upwind_limit():
    """Degree-1 upwind weight equals half the step on interior elements."""
    for elements in (4, 8, 16, 32):
        space = SplineSpace.uniform(1, elements)
        tau = compute_tau(space)
        h = 1.0 / elements
        mids = (np.arange(1, elements) + 0.5) / elements
        vals = tau.evaluate(1, mids)
        assert np.max(np.abs(vals - h / 2)) < 1e-10
    report(2, "tau_1 = h/2 on interior elements for 4..32 elements")


def test_criterion_3_tau_constraint_residuals():
    """Defining conditions satisfied to 1e-10 for all shipped sizes."""
    worst = 0.0
    for p in (1, 2, 3):
        for nt in range(4, 33):
            elements = nt - p + 1
            if elements < 2:
                continue
            tau = compute_tau(SplineSpace.uniform(p, elements))
            worst = max(worst, tau.residual)
            assert tau.residual <= 1e-10
    report(3, "worst relative residual %.2e over p in {1,2,3}, N_t in 4..32" % worst)


def test_criterion_4_lowrank_contract():
    """Every factorization meets the tolerance; rank-1 input gives R = 1."""
    tol = 0.1

    def indicator(values):
        nt, ns = values.shape
        return ResidualIndicator(
            values, np.linspace(0, 1, nt), [np.linspace(0, 1, ns)], (ns,)
        )

    for trial in range(20):
        values = RNG.random((RNG.integers(3, 12), RNG.integers(3, 40)))
        lr = lowrank_factorize(indicator(values), tol)
        recon = (lr.time_factors * lr.weights) @ lr.space_factors.T
        assert np.linalg.norm(values - recon) / np.linalg.norm(values) <= tol
    a = np.abs(RNG.standard_normal(7)) + 0.1
    b = np.abs(RNG.standard_normal(13)) + 0.1
    lr = lowrank_factorize(indicator(np.outer(a, b)), tol)
    assert lr.rank == 1
    recon = (lr.time_factors * lr.weights) @ lr.space_factors.T
    assert np.max(np.abs(recon - np.outer(a, b))) < 1e-12
    report(4, "20 random factorizations within tol 0.1; rank-1 recovered at R=1")


@pytest.mark.parametrize("elements", [8, 16])
def test_criterion_5_preconditioner_exactness(elements):
    """Exact surrogate inversion: GMRES in at most 3 iterations at 16^3 x 16."""
    p = 2
    st = SpaceTimeSpace(
        [SplineSpace.uniform(p, elements)] * 3, SplineSpace.uniform(p, elements)
    )
    geo = builtin_geometry("unit_cube", final_time=1.0)
    cm, diff, react = 1.0, 1e-3, A_RM * C1_RM
    sdata = SpatialQuadratureData(st.spatial, geo)
    W_t, M_t = time_matrices(TimeQuadratureData(st, 1.0))
    M_s, K_s = spatial_operators(sdata)
    op = KroneckerOperator(
        st.num_time,
        st.num_space,
        [(cm, W_t, M_s), (diff, M_t, K_s), (react, M_t, M_s)],
    )
    precond = FastDiagPreconditioner.build(
        cm, diff, react, sdata, (M_s, K_s), (W_t, M_t)
    )
    rhs = RNG.standard_normal(st.num_dof)
    x, iters, _ = gmres(op, rhs, precond=precond, tol=1e-8)
    assert iters <= 3
    resid = np.linalg.norm(op.matvec(x) - rhs) / np.linalg.norm(rhs)
    assert resid < 1e-6
    report(5, "%d^3 x %d elements, p=2: GMRES converged in %d iteration(s)"
           % (elements, elements, iters))


def test_criterion_6_dense_oracle_equivalence():
    """Structured paths match dense brute force on small instances."""
    st = SpaceTimeSpace(
        [SplineSpace.uniform(2, 3), SplineSpace.uniform(2, 2)],
        SplineSpace.uniform(2, 3),
    )
    geo = builtin_geometry("unit_square", final_time=2.0)
    consts = {"c1": C1_RM, "a": A_RM, "c2": 0.1}
    u = RNG.standard_normal(st.num_dof)
    w = RNG.standard_normal(st.num_dof)

    # reaction mass against dense quadrature
    sdata = SpatialQuadratureData(st.spatial, geo)
    tdata = TimeQuadratureData(st, geo.final_time)
    MR = reaction_mass(consts, iterate_on_grid(st, u, w, sdata, tdata), sdata, tdata)

    def cr_weight(pts):
        B = dense_space_time_basis(st, pts, [0, 0], 0)
        uv = B @ u
        wv = B @ w
        return consts["c1"] * (uv - consts["a"]) * (uv - 1.0) + consts["c2"] * wv

    MR_ref = dense_weighted_space_time_mass(st, geo, cr_weight)
    scale = max(np.max(np.abs(MR_ref)), 1.0)
    assert np.max(np.abs(weighted_mass_sparse(MR).toarray() - MR_ref)) / scale < 1e-10

    # stabilizer terms against dense quadrature
    tau = compute_tau(st.time)
    theta = ResidualIndicator(
        RNG.random((st.num_time, st.num_space)),
        st.time_greville(),
        [s.greville() for s in st.spatial],
        st.spatial_shape,
    )
    lr = lowrank_factorize(theta, 0.3)
    eye = [np.eye(s.dimension) for s in st.spatial]
    terms, _ = assemble_stabilization(lr, StabilizationGrid(tau, st, geo), 1.0, eye)
    total = sum(coef * np.kron(tm, sm.toarray()) for coef, tm, sm in terms)
    pdeg = st.time.degree
    grevs = [s.greville() for s in st.spatial]
    extra = grevs + [theta.time_greville]
    stab_ref = np.zeros_like(total)
    for r in range(lr.rank):
        for k in range(1, pdeg + 1):

            def weight(pts, r=r, k=k):
                tv = tau.evaluate(k, pts[:, 2]) * lr.time_profile(r, pts[:, 2])
                prof = lr.space_factors[:, r].reshape(st.spatial_shape)
                sv = np.array(
                    [multilinear_grid(grevs, prof, [q[0:1], q[1:2]])[0, 0] for q in pts]
                )
                return tv * sv

            stab_ref += (
                lr.weights[r]
                / geo.final_time
                * dense_weighted_space_time_mass(
                    st, geo, weight, npoints=pdeg + 3, extra_breaks=extra, time_order=k
                )
            )
    sscale = max(np.max(np.abs(stab_ref)), 1e-30)
    assert np.max(np.abs(total - stab_ref)) / sscale < 1e-10

    # full operator matvec against a dense assembly
    W_t, M_t = time_matrices(tdata)
    M_s, K_s = spatial_operators(sdata)
    op = KroneckerOperator(
        st.num_time,
        st.num_space,
        [(1.0, W_t, M_s), (1e-3, M_t, K_s)] + terms,
        correction=MR,
    )
    dense = (
        np.kron(W_t, M_s.toarray())
        + 1e-3 * np.kron(M_t, K_s.toarray())
        + MR_ref
        + stab_ref
    )
    x = RNG.standard_normal(st.num_dof)
    mscale = max(np.max(np.abs(dense @ x)), 1.0)
    assert np.max(np.abs(op.matvec(x) - dense @ x)) / mscale < 1e-10

    # preconditioner against a dense solve of its surrogate (the unit
    # square's separable factors are the exact mass and stiffness)
    react = A_RM * C1_RM
    P = FastDiagPreconditioner.build(
        1.0, 1e-3, react, sdata, (M_s, K_s), (W_t, M_t)
    )
    surrogate = (
        np.kron(W_t + react * M_t, M_s.toarray())
        + 1e-3 * np.kron(M_t, K_s.toarray())
    )
    r = RNG.standard_normal(st.num_dof)
    ref = np.linalg.solve(surrogate, r)
    assert np.linalg.norm(P.apply(r) - ref) / np.linalg.norm(ref) < 1e-10

    # recovery-variable solve against a dense solve; kron(M_t, M_s) is SPD,
    # so this right-hand side covers every right-hand side
    u = RNG.standard_normal(st.num_dof)
    wsol = solve_w_system(W_t, M_t, 0.013, 1.0, u)
    L = np.kron(W_t + 0.013 * M_t, M_s.toarray())
    g = 0.013 * np.kron(M_t, M_s.toarray()) @ u
    ref = np.linalg.solve(L, g)
    assert np.linalg.norm(wsol - ref) / np.linalg.norm(ref) < 1e-10
    report(6, "matvec, reaction mass, stabilizer, preconditioner and recovery "
           "solves match dense oracles to 1e-10")


def test_criterion_7_stabilization_effect(tmp_path):
    """Desk-scale 2D comparison: oscillation ratio and sweep counts."""
    cfg = ExperimentConfig(
        kind="compare",
        geometry="ellipse_annulus",
        degree=3,
        h_space=[2.0**-5, 2.0**-3],
        h_time=2.0**-5,
        final_time=300.0,
        source="gaussian_pulse_2d",
        max_iterations=250,
        linear_solver="iterative",
        output_dir=str(tmp_path),
    )
    rep = run_compare(cfg)
    gal = rep["galerkin"]
    su = rep["spline_upwind"]
    assert su["oscillation"] <= 0.1 * gal["oscillation"], (
        "oscillation ratio %.3f" % (su["oscillation"] / max(gal["oscillation"], 1e-300))
    )
    assert su["fixed_point_iterations"] <= gal["fixed_point_iterations"]
    report(
        7,
        "oscillation %.3e (stabilized) vs %.3e (Galerkin), sweeps %d vs %d"
        % (
            su["oscillation"],
            gal["oscillation"],
            su["fixed_point_iterations"],
            gal["fixed_point_iterations"],
        ),
    )


def test_criterion_8_solver_invariants(monkeypatch):
    """Equilibrium, zero-indicator consistency and the linear case."""
    st = SpaceTimeSpace([SplineSpace.uniform(2, 4)], SplineSpace.uniform(2, 4))
    geo = builtin_geometry("unit_interval")

    # zero source -> zero solution at the first sweep
    quiet = MonodomainProblem(geometry=geo, space=st)
    res = fixed_point_solve(quiet, FixedPointConfig(tolerance=1e-8))
    assert res.iterations == 1
    assert np.max(np.abs(res.u)) < 1e-8 and np.max(np.abs(res.w)) < 1e-8

    # stabilized solve with the indicator forced to zero equals Galerkin
    driven = MonodomainProblem(
        geometry=geo,
        space=st,
        source=lambda x, t: np.exp(-3 * (t - 0.5) ** 2),
    )

    def zero_indicator(*args, **kwargs):
        return ResidualIndicator(
            np.zeros((st.num_time, st.num_space)),
            st.time_greville(),
            [s.greville() for s in st.spatial],
            st.spatial_shape,
        )

    monkeypatch.setattr(solver, "compute_theta", zero_indicator)
    r_gal = fixed_point_solve(
        driven, FixedPointConfig(tolerance=1e-9, max_iterations=200)
    )
    r_su = fixed_point_solve(
        driven,
        FixedPointConfig(
            tolerance=1e-9,
            max_iterations=200,
            stabilization="spline_upwind",
        ),
    )
    assert np.max(np.abs(r_gal.u - r_su.u)) < 1e-8

    # linear problem with full relaxation needs at most two sweeps
    linear = MonodomainProblem(
        geometry=geo,
        space=st,
        source=lambda x, t: np.sin(np.pi * t),
        c1=0.0,
        c2=0.0,
    )
    r_lin = fixed_point_solve(
        linear, FixedPointConfig(relaxation=1.0, tolerance=1e-10)
    )
    assert r_lin.iterations <= 2
    report(8, "equilibrium exact, zero-indicator matches Galerkin to 1e-8, "
           "linear case converged in %d sweep(s)" % r_lin.iterations)


def _criterion_9_counts():
    """First-step GMRES iterations on criterion 9's levels, gated below 2x."""
    counts = []
    # levels refine uniformly; the starting temporal mesh is chosen so the
    # quadrature of every level samples the source's activation window
    levels = [
        ([2.0**-3, 2.0**-1], 2.0**-4),
        ([2.0**-4, 2.0**-2], 2.0**-5),
        ([2.0**-5, 2.0**-3], 2.0**-6),
    ]
    geo = builtin_geometry("ellipse_annulus", final_time=300.0)
    from monoiga.experiments import DEFAULT_CONSTANTS, build_space, make_source
    from monoiga.solver import FixedPointDiverged

    for h_space, h_time in levels:
        st = build_space(geo, 3, h_space, h_time)
        source = make_source("gaussian_pulse_2d", 300.0, dict(DEFAULT_CONSTANTS))
        problem = MonodomainProblem(geometry=geo, space=st, source=source, D=1e-4)
        config = FixedPointConfig(tolerance=1e-4, max_iterations=1)
        try:
            res = fixed_point_solve(problem, config)
        except FixedPointDiverged as exc:
            res = exc.result
        counts.append(res.gmres_iterations[0])
    for coarse, fine in zip(counts[:-1], counts[1:]):
        assert fine < 2 * coarse, "counts %s grew too fast" % (counts,)
    return counts


def test_criterion_9_gmres_growth_under_refinement():
    """Preconditioned GMRES iteration growth below 2x per refinement level."""
    counts = _criterion_9_counts()
    report(9, "GMRES iterations per level: %s (each below 2x the previous)" % counts)


def test_criterion_9_separable_surrogate_growth(monkeypatch):
    """Criterion 9's levels with the separable surrogate on every level.

    With the exact spatial factor the first Galerkin step takes one
    iteration on every level; with the limit at 0 the growth the surrogate's
    separable weights cost stays measured, under the same bound.
    """
    monkeypatch.setattr(linalg, "EXACT_SPACE_LIMIT", 0)
    counts = _criterion_9_counts()
    # An exact preconditioner would take one iteration per level.
    assert min(counts) > 1, "counts %s: the surrogate was not used" % (counts,)
    report(9, "separable surrogate, GMRES iterations per level: %s" % counts)
