"""Tests for the fixed-point driver and field evaluation utilities."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from monoiga.assembly import (
    KroneckerOperator,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
)
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import builtin_geometry
from monoiga.solver import (
    FixedPointConfig,
    FixedPointDiverged,
    MonodomainProblem,
    evaluate_field,
    fixed_point_solve,
    l2_error,
)
from monoiga.stabilization import ResidualIndicator, compute_theta

RNG = np.random.default_rng(123)


def make_problem(d=1, p=2, elements=4, final_time=1.0, source=None, **kw):
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p, elements)
    st = SpaceTimeSpace(spatial, time)
    names = {1: "unit_interval", 2: "unit_square", 3: "unit_cube"}
    geo = builtin_geometry(names[d], final_time=final_time)
    return MonodomainProblem(geometry=geo, space=st, source=source, **kw)


class TestFixedPoint:
    def test_zero_source_converges_immediately_to_zero(self):
        problem = make_problem(d=1, p=2, elements=3)
        result = fixed_point_solve(problem, FixedPointConfig(tolerance=1e-8))
        assert result.iterations == 1
        assert np.max(np.abs(result.u)) < 1e-12
        assert np.max(np.abs(result.w)) < 1e-12

    def test_linear_problem_converges_in_two_sweeps(self):
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            c1=0.0,
            c2=0.0,
            source=lambda x, t: np.sin(np.pi * t) * np.ones(t.shape),
        )
        config = FixedPointConfig(relaxation=1.0, tolerance=1e-10)
        result = fixed_point_solve(problem, config)
        assert result.iterations <= 2
        assert np.max(np.abs(result.u)) > 0

    def test_budget_exhaustion_raises_with_state(self):
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.ones(t.shape)
        )
        with pytest.raises(FixedPointDiverged) as err:
            fixed_point_solve(
                problem, FixedPointConfig(tolerance=1e-14, max_iterations=2)
            )
        assert err.value.result.iterations == 2
        assert len(err.value.result.increments) == 2

    def test_fixed_point_is_relaxation_invariant(self):
        # One extra sweep from a converged state moves the coefficients by
        # no more than the linear-solver tolerance, for any relaxation.
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.exp(-t)
        )
        tight = FixedPointConfig(
            relaxation=1.0, tolerance=1e-13, max_iterations=300, linear_tol=1e-13
        )
        res = fixed_point_solve(problem, tight)
        assert len(res.gmres_iterations) == res.iterations
        st = problem.space
        geo = problem.geometry
        W_t, M_t = time_matrices(st, problem.final_time)
        M_s, K_s = spatial_operators(st.spatial, geo)
        MR = reaction_mass(
            st, geo, problem.reaction_constants(), res.u, res.w
        )
        f_vec = rhs_vectors(st, geo, problem.source)
        g_vec = problem.b * (sp.kron(M_t, M_s) @ res.u)
        op = KroneckerOperator(
            st.num_time,
            st.num_space,
            [(problem.C_m, W_t, M_s), (problem.D, M_t, K_s)],
            correction=MR,
        )
        u_tilde = spla.spsolve(sp.csc_matrix(op.tosparse()), f_vec)
        L = sp.kron(W_t + problem.b * problem.d_e * M_t, M_s)
        w_tilde = spla.spsolve(sp.csc_matrix(L), g_vec)
        for alpha in (0.25, 0.5, 1.0):
            du = alpha * np.max(np.abs(u_tilde - res.u))
            dw = alpha * np.max(np.abs(w_tilde - res.w))
            assert du < 1e-10
            assert dw < 1e-10

    def test_recovery_follows_potential(self):
        problem = make_problem(
            d=1,
            p=2,
            elements=4,
            source=lambda x, t: np.where(t < 0.5, 1.0, 0.0),
        )
        result = fixed_point_solve(
            problem, FixedPointConfig(relaxation=0.5, tolerance=1e-8, max_iterations=200)
        )
        assert result.converged
        assert np.max(np.abs(result.w)) > 0

    def test_frozen_recovery_stays_zero(self):
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: np.ones(t.shape)
        )
        config = FixedPointConfig(
            relaxation=1.0, tolerance=1e-9, max_iterations=100, evolve_recovery=False
        )
        result = fixed_point_solve(problem, config)
        assert np.all(result.w == 0.0)

    def test_stabilized_with_zero_indicator_equals_galerkin(self):
        problem = make_problem(
            d=1,
            p=2,
            elements=5,
            source=lambda x, t: np.exp(-5 * (t - 0.4) ** 2),
        )
        st = problem.space

        def zero_indicator(problem_, u, w):
            return ResidualIndicator(
                np.zeros((st.num_time, st.num_space)),
                st.time_greville(),
                [s.greville() for s in st.spatial],
                st.spatial_shape,
            )

        base = FixedPointConfig(relaxation=0.5, tolerance=1e-9, max_iterations=200)
        su = FixedPointConfig(
            relaxation=0.5,
            tolerance=1e-9,
            max_iterations=200,
            stabilization="spline_upwind",
            indicator_override=zero_indicator,
        )
        r_gal = fixed_point_solve(problem, base)
        r_su = fixed_point_solve(problem, su)
        assert np.max(np.abs(r_gal.u - r_su.u)) < 1e-8

    def test_stabilizer_switches_off_on_resolved_solution(self):
        from monoiga.experiments import make_source

        constants = {"C_m": 1.0, "D": 1e-4, "c1": 0.26, "a": 0.13}
        source = make_source("manufactured_1d", 1.0, constants)
        problem = make_problem(d=1, p=2, elements=32, source=source, D=1e-4)
        frozen = FixedPointConfig(
            relaxation=1.0,
            tolerance=1e-9,
            max_iterations=100,
            stabilization="spline_upwind",
            indicator_update="frozen",
            evolve_recovery=False,
        )
        result = fixed_point_solve(problem, frozen)
        theta = compute_theta(problem, result.u, result.w)
        assert theta.max < 0.1
        # the coupled recomputation settles at a higher but still small level
        coupled = FixedPointConfig(
            relaxation=1.0,
            tolerance=1e-4,
            max_iterations=100,
            stabilization="spline_upwind",
            evolve_recovery=False,
        )
        result = fixed_point_solve(problem, coupled)
        assert result.indicator.max < 0.1


class TestEvaluateField:
    def test_all_one_coefficients_beyond_initial_layer(self):
        problem = make_problem(d=2, p=2, elements=3)
        st = problem.space
        pts = np.column_stack([RNG.random(10), RNG.random(10), RNG.uniform(0.4, 1.0, 10)])
        vals = evaluate_field(st, problem.geometry, np.ones(st.num_dof), pts)
        assert_allclose(vals, 1.0, atol=1e-13)

    def test_bilinear_reproduction(self):
        problem = make_problem(d=1, p=2, elements=4)
        st = problem.space
        gs = st.spatial[0].greville()
        gt = st.time_greville()
        coeffs = np.outer(gt, gs).reshape(-1)
        pts = np.column_stack([RNG.random(20), RNG.random(20)])
        vals = evaluate_field(st, problem.geometry, coeffs, pts)
        assert np.max(np.abs(vals - pts[:, 0] * pts[:, 1])) < 1e-12

    def test_gradient_matches_finite_differences(self):
        problem = make_problem(d=2, p=2, elements=3)
        st = problem.space
        coeffs = RNG.standard_normal(st.num_dof)
        pts = np.column_stack(
            [RNG.uniform(0.1, 0.9, 8), RNG.uniform(0.1, 0.9, 8), RNG.uniform(0.1, 0.9, 8)]
        )
        out = evaluate_field(st, problem.geometry, coeffs, pts, gradient=True)
        step = 1e-6
        for q in range(pts.shape[0]):
            for a in range(2):
                e = np.zeros(3)
                e[a] = step
                vp = evaluate_field(st, problem.geometry, coeffs, pts[q] + e)
                vm = evaluate_field(st, problem.geometry, coeffs, pts[q] - e)
                fd = (vp[0] - vm[0]) / (2 * step)
                scale = max(abs(out["grad"][q, a]), 1.0)
                assert abs(fd - out["grad"][q, a]) / scale < 1e-6

    def test_time_derivative_scaling(self):
        problem = make_problem(d=1, p=2, elements=4, final_time=5.0)
        st = problem.space
        gs = st.spatial[0].greville()
        gt = st.time_greville()
        coeffs = np.outer(gt, np.ones_like(gs)).reshape(-1)
        pts = np.column_stack([RNG.random(10), RNG.uniform(0.1, 0.9, 10)])
        out = evaluate_field(st, problem.geometry, coeffs, pts, time_derivative=True)
        # field is tau = t / T, so the physical time derivative is 1 / T
        assert_allclose(out["dt"], 1.0 / 5.0, atol=1e-12)

    def test_point_outside_box_raises(self):
        problem = make_problem(d=1, p=2, elements=3)
        st = problem.space
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            evaluate_field(st, problem.geometry, np.zeros(st.num_dof), [[0.5, 1.2]])


class TestL2Error:
    def test_exact_spline_solution(self):
        problem = make_problem(d=1, p=2, elements=4, final_time=2.0)
        st = problem.space
        gs = st.spatial[0].greville()
        gt = st.time_greville()
        coeffs = np.outer(gt, gs).reshape(-1)

        def exact(x, t):
            return x[:, 0] * (t / 2.0)

        assert l2_error(st, problem.geometry, coeffs, exact) < 1e-12

    def test_zero_field_gives_unit_relative_error(self):
        problem = make_problem(d=1, p=2, elements=3)
        st = problem.space

        def exact(x, t):
            return np.ones(t.shape)

        err = l2_error(st, problem.geometry, np.zeros(st.num_dof), exact)
        assert_allclose(err, 1.0, atol=1e-12)

    def test_zero_reference_returns_absolute_with_warning(self):
        problem = make_problem(d=1, p=2, elements=3)
        st = problem.space
        coeffs = np.ones(st.num_dof)
        with pytest.warns(RuntimeWarning, match="zero norm"):
            err = l2_error(st, problem.geometry, coeffs, lambda x, t: np.zeros(t.shape))
        assert err > 0


def test_decoupled_systems_are_order_independent():
    # The two linear solves of one sweep both read the previous iterate, so
    # either ordering must give bitwise-identical updates.
    problem = make_problem(
        d=1, p=2, elements=4, source=lambda x, t: np.exp(-t)
    )
    st = problem.space
    geo = problem.geometry
    rng = np.random.default_rng(5)
    u_k = rng.standard_normal(st.num_dof)
    w_k = rng.standard_normal(st.num_dof)
    W_t, M_t = time_matrices(st, problem.final_time)
    M_s, K_s = spatial_operators(st.spatial, geo)

    def solve_u():
        MR = reaction_mass(st, geo, problem.reaction_constants(), u_k, w_k)
        f_vec = rhs_vectors(st, geo, problem.source)
        op = KroneckerOperator(
            st.num_time,
            st.num_space,
            [(problem.C_m, W_t, M_s), (problem.D, M_t, K_s)],
            correction=MR,
        )
        return spla.spsolve(sp.csc_matrix(op.tosparse()), f_vec)

    def solve_w():
        g_vec = problem.b * (sp.kron(M_t, M_s) @ u_k)
        L = sp.kron(W_t + problem.b * problem.d_e * M_t, M_s)
        return spla.spsolve(sp.csc_matrix(L), g_vec)

    u1 = solve_u()
    w1 = solve_w()
    w2 = solve_w()
    u2 = solve_u()
    assert np.array_equal(u1, u2)
    assert np.array_equal(w1, w2)
