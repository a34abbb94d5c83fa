"""Tests for the eigendecompositions, preconditioner and Krylov solvers."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from monoiga.assembly import (
    KroneckerOperator,
    UnivariateMatrices,
    spatial_operators,
    time_matrices,
)
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import builtin_geometry
from monoiga.linalg import (
    DecompositionError,
    FastDiagPreconditioner,
    NonConvergenceError,
    build_time_pencil,
    generalized_eig,
    gmres,
    pcg,
    solve_w_system,
)

RNG = np.random.default_rng(77)


def make_st(d=1, p=2, elements=3, elements_t=None):
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p, elements_t or elements)
    return SpaceTimeSpace(spatial, time)


class TestGeneralizedEig:
    def test_equal_matrices_give_unit_eigenvalues(self):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        U, lam = generalized_eig(M, M)
        assert_allclose(lam, [1.0, 1.0], atol=1e-13)
        assert_allclose(U.T @ M @ U, np.eye(2), atol=1e-13)

    def test_diagonal_hand_case(self):
        K = np.diag([1.0, 4.0])
        U, lam = generalized_eig(K, np.eye(2))
        assert_allclose(lam, [1.0, 4.0], atol=1e-14)
        assert_allclose(np.abs(U), np.eye(2), atol=1e-14)

    def test_spline_matrices_residual(self):
        space = SplineSpace.uniform(3, 6)
        mats = UnivariateMatrices(space)
        K = mats.stiffness.toarray()
        M = mats.mass.toarray()
        U, lam = generalized_eig(K, M)
        assert np.linalg.norm(K @ U - M @ U @ np.diag(lam)) < 1e-10
        assert_allclose(U.T @ M @ U, np.eye(space.dimension), atol=1e-10)
        assert np.all(np.diff(lam) >= -1e-9)

    def test_indefinite_mass_raises(self):
        with pytest.raises(DecompositionError):
            generalized_eig(np.eye(2), np.diag([1.0, -1.0]))


class TestTimePencil:
    def test_smallest_case_against_dense(self):
        # N_t = 2, p_t = 1: the interior pencil is 1 x 1 and everything can
        # be cross-checked densely.
        st = make_st(p=1, elements=1, elements_t=2)
        W_t, M_t = time_matrices(st, final_time=1.0)
        pencil = build_time_pencil(W_t, M_t)
        W = W_t.toarray()
        M = M_t.toarray()
        U = pencil.U_full
        assert_allclose(U.conj().T @ M @ U, np.eye(2), atol=1e-12)
        assert_allclose(pencil.delta, U.conj().T @ W @ U, atol=1e-14)
        Mi = M[:-1, :-1]
        m = M[:-1, -1]
        assert_allclose(Mi @ pencil.v, -m, atol=1e-12)

    @pytest.mark.parametrize("p,elements", [(1, 4), (2, 5), (3, 4)])
    def test_orthonormality_and_arrowhead(self, p, elements):
        st = make_st(p=p, elements=elements)
        W_t, M_t = time_matrices(st, final_time=2.0)
        pencil = build_time_pencil(W_t, M_t)
        U = pencil.U_full
        M = M_t.toarray()
        assert np.max(np.abs(U.conj().T @ M @ U - np.eye(st.num_time))) < 1e-10
        assert pencil.off_arrow_max < 1e-10
        # arrowhead data matches the congruence
        nt = st.num_time
        assert_allclose(
            np.diag(pencil.delta)[: nt - 1], pencil.eigenvalues, atol=1e-10
        )
        assert_allclose(pencil.delta[:-1, -1], pencil.g, atol=1e-10)
        assert_allclose(pencil.delta[-1, :-1], -np.conj(pencil.g), atol=1e-10)
        assert_allclose(pencil.delta[-1, -1], pencil.sigma, atol=1e-12)

    def test_interior_block_is_skew(self):
        st = make_st(p=2, elements=6)
        W_t, _ = time_matrices(st, final_time=1.0)
        Wi = W_t.toarray()[:-1, :-1]
        assert np.max(np.abs(Wi + Wi.T)) < 1e-13


def surrogate_operator(st, geo, final_time, cm, diff, react):
    W_t, M_t = time_matrices(st, final_time)
    M_s, K_s = spatial_operators(st.spatial, geo)
    return KroneckerOperator(
        st.num_time,
        st.num_space,
        [(cm, W_t, M_s), (diff, M_t, K_s), (react, M_t, M_s)],
    )


class TestFastDiagPreconditioner:
    def test_inverts_surrogate_exactly(self):
        st = make_st(d=2, p=2, elements=3)
        geo = builtin_geometry("unit_square", final_time=2.0)
        cm, diff, react = 1.0, 1e-2, 0.26 * 0.13
        op = surrogate_operator(st, geo, 2.0, cm, diff, react)
        P = FastDiagPreconditioner.build(st, 2.0, cm, diff, react)
        x = RNG.standard_normal(st.num_dof)
        r = op.matvec(x)
        assert np.linalg.norm(P.apply(r) - x) / np.linalg.norm(x) < 1e-8

    def test_single_space_dof_reduces_to_time_solve(self):
        # One spatial degree of freedom, no diffusion: the preconditioner is
        # the inverse of C_m W_t alone.
        spatial = [SplineSpace.uniform(1, 1)]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 4))
        W_t, M_t = time_matrices(st, 1.0)
        # collapse space to a single dof by taking the 1x1 leading block
        Ms1 = sp.csr_matrix(np.array([[1.0]]))
        cm = 1.0
        op = KroneckerOperator(st.num_time, 1, [(cm, W_t, Ms1)])
        eigs = [(np.array([[1.0]]), np.array([0.0]))]
        pencil = build_time_pencil(W_t, M_t)

        P = FastDiagPreconditioner(eigs, np.zeros(1), pencil, cm, 0.0, 0.0)
        x = RNG.standard_normal(st.num_time)
        r = op.matvec(x)
        # mass factor differs, so apply with the pencil's own mass weighting:
        # here M_s = 1 means the surrogate equals C_m W_t exactly.
        assert np.linalg.norm(P.apply(r) - x) / np.linalg.norm(x) < 1e-8

    def test_pure_reaction_is_inverse_mass(self):
        st = make_st(d=1, p=2, elements=4)
        geo = builtin_geometry("unit_interval", final_time=1.0)
        W_t, M_t = time_matrices(st, 1.0)
        M_s, _ = spatial_operators(st.spatial, geo)
        op = KroneckerOperator(st.num_time, st.num_space, [(1.0, M_t, M_s)])
        P = FastDiagPreconditioner.build(st, 1.0, 0.0, 0.0, 1.0)
        x = RNG.standard_normal(st.num_dof)
        assert np.linalg.norm(P.apply(op.matvec(x)) - x) < 1e-8 * np.linalg.norm(x)

    def test_arrowhead_solve_matches_dense(self):
        st = make_st(d=1, p=2, elements=4)
        P = FastDiagPreconditioner.build(st, 1.5, 1e-3, 0.2, 0.05)
        nt, ns = P.num_time, P.num_space
        H_int, H_last, B = P._diag_blocks()
        y = RNG.standard_normal((nt, ns)) + 1j * RNG.standard_normal((nt, ns))
        for s in range(ns):
            A = np.zeros((nt, nt), dtype=complex)
            A[np.arange(nt - 1), np.arange(nt - 1)] = H_int[:, s]
            A[: nt - 1, -1] = B[:, 0]
            A[-1, : nt - 1] = -np.conj(B[:, 0])
            A[-1, -1] = H_last[s]
            ref = np.linalg.solve(A, y[:, s])
            denom = H_last[s] + np.sum(np.abs(B[:, 0]) ** 2 / H_int[:, s])
            x_last = (y[-1, s] + np.sum(np.conj(B[:, 0]) * y[:-1, s] / H_int[:, s])) / denom
            x_int = (y[:-1, s] - B[:, 0] * x_last) / H_int[:, s]
            ours = np.concatenate([x_int, [x_last]])
            assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


class TestGMRES:
    def test_identity_one_iteration(self):
        b = RNG.standard_normal(8)
        x, it, hist = gmres(sp.identity(8, format="csr"), b)
        assert it == 1
        assert_allclose(x, b, atol=1e-12)

    def test_three_distinct_eigenvalues(self):
        diag = np.array([1.0] * 4 + [2.0] * 3 + [5.0] * 3)
        A = sp.diags(diag)
        b = RNG.standard_normal(10)
        x, it, _ = gmres(A, b, tol=1e-10)
        assert it <= 3
        assert np.linalg.norm(A @ x - b) < 1e-8

    def test_exact_preconditioner_converges_immediately(self):
        st = make_st(d=2, p=2, elements=3)
        geo = builtin_geometry("unit_square", final_time=1.0)
        cm, diff, react = 1.0, 1e-4, 0.26 * 0.13
        op = surrogate_operator(st, geo, 1.0, cm, diff, react)
        P = FastDiagPreconditioner.build(st, 1.0, cm, diff, react)
        b = RNG.standard_normal(st.num_dof)
        x, it, _ = gmres(op, b, precond=P, tol=1e-8)
        assert it <= 3
        assert np.linalg.norm(op.matvec(x) - b) < 1e-6 * np.linalg.norm(b)

    def test_zero_rhs(self):
        x, it, _ = gmres(sp.identity(5), np.zeros(5))
        assert it == 0
        assert np.all(x == 0.0)

    def test_nonconvergence_carries_history(self):
        A = sp.diags(np.linspace(1, 1e4, 50))
        b = np.ones(50)
        with pytest.raises(NonConvergenceError) as err:
            gmres(A, b, tol=1e-14, max_iter=3)
        assert err.value.iterations == 3
        assert len(err.value.residuals) == 4

    def test_workspace_grows_past_first_block(self):
        # 200 distinct eigenvalues need more iterations than the first block
        diag = np.linspace(1.0, 1e3, 200)
        b = np.random.default_rng(5).standard_normal(200)
        x, it, hist = gmres(sp.diags(diag), b, tol=1e-10)
        assert it > 64
        assert len(hist) == it + 1
        assert_allclose(x, np.linalg.solve(np.diag(diag), b), rtol=1e-8)

    def test_nonconvergence_contract_past_first_block(self):
        A = sp.diags(np.linspace(1, 1e4, 200))
        b = np.ones(200)
        with pytest.raises(NonConvergenceError) as err:
            gmres(A, b, tol=1e-14, max_iter=100)
        assert err.value.iterations == 100
        assert len(err.value.residuals) == 101

    def test_memory_scales_with_iterations_not_unknowns_squared(self):
        # numpy reports its buffers to tracemalloc, so an n x n workspace
        # shows up here even where the kernel would grant it lazily.
        n = 200_000
        A = sp.identity(n, format="csr")
        b = np.random.default_rng(5).standard_normal(n)
        tracemalloc.start()
        try:
            x, it, _ = gmres(A, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert it == 1
        assert_allclose(x, b, atol=1e-12)
        assert peak < 16 * n * 8


class TestPCG:
    def test_identity_one_iteration(self):
        b = RNG.standard_normal(6)
        x, it = pcg(sp.identity(6, format="csr"), b)
        assert it == 1
        assert_allclose(x, b, atol=1e-12)

    def test_zero_rhs_zero_iterations(self):
        x, it = pcg(sp.identity(6), np.zeros(6))
        assert it == 0
        assert np.all(x == 0.0)

    def test_non_spd_detected(self):
        A = sp.diags([1.0, -1.0, 1.0])
        with pytest.raises(DecompositionError, match="positive definite"):
            pcg(A, np.ones(3))


def dense_recovery_system(W_t, M_t, M_s, b, d_e, u):
    """Oracle: the assembled ``(K_t kron M_s, b (M_t kron M_s) u)``."""
    M_s = M_s.toarray() if sp.issparse(M_s) else M_s
    L = np.kron((W_t + b * d_e * M_t).toarray(), M_s)
    return L, b * np.kron(M_t.toarray(), M_s) @ u


class TestWSystem:
    def test_zero_rhs(self):
        st = make_st(d=1, p=2, elements=3)
        W_t, M_t = time_matrices(st, 1.0)
        w = solve_w_system(W_t, M_t, 0.013, 1.0, np.zeros(st.num_dof))
        assert np.all(w == 0.0)

    def test_single_space_dof_matches_dense(self):
        st = make_st(p=2, elements=4)
        W_t, M_t = time_matrices(st, 1.0)
        u = RNG.standard_normal(st.num_time)
        w = solve_w_system(W_t, M_t, 0.013, 1.0, u)
        dense, g = dense_recovery_system(W_t, M_t, np.array([[2.0]]), 0.013, 1.0, u)
        assert np.max(np.abs(dense @ w - g)) < 1e-12

    def test_random_system_matches_dense_kron_solve(self):
        st = make_st(d=2, p=2, elements=2)
        geo = builtin_geometry("unit_square", final_time=3.0)
        W_t, M_t = time_matrices(st, 3.0)
        M_s, _ = spatial_operators(st.spatial, geo)
        u = RNG.standard_normal(st.num_dof)
        w = solve_w_system(W_t, M_t, 0.013, 1.0, u)
        L, g = dense_recovery_system(W_t, M_t, M_s, 0.013, 1.0, u)
        ref = np.linalg.solve(L, g)
        assert np.linalg.norm(w - ref) / np.linalg.norm(ref) < 1e-10

    def test_structured_solves_match_dense_small(self):
        # random small instances: structured solve equals dense direct solve
        for trial in range(3):
            st = make_st(d=1, p=2, elements=trial + 2)
            geo = builtin_geometry("unit_interval", final_time=1.0 + trial)
            W_t, M_t = time_matrices(st, 1.0 + trial)
            M_s, _ = spatial_operators(st.spatial, geo)
            u = RNG.standard_normal(st.num_dof)
            w = solve_w_system(W_t, M_t, 0.1, 2.0, u)
            L, g = dense_recovery_system(W_t, M_t, M_s, 0.1, 2.0, u)
            assert np.linalg.norm(L @ w - g) / np.linalg.norm(g) < 1e-10
            ref = np.linalg.solve(L, g)
            assert np.linalg.norm(w - ref) / np.linalg.norm(ref) < 1e-10

    def test_mapped_annulus_matches_dense_kron_solve(self):
        # the pulled-back annulus mass is not a Kronecker product
        spatial = [SplineSpace.uniform(2, 4), SplineSpace.uniform(2, 3)]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 4))
        geo = builtin_geometry("ellipse_annulus", final_time=2.0)
        W_t, M_t = time_matrices(st, 2.0)
        M_s, _ = spatial_operators(st.spatial, geo)
        u = RNG.standard_normal(st.num_dof)
        w = solve_w_system(W_t, M_t, 0.013, 1.0, u)
        L, g = dense_recovery_system(W_t, M_t, M_s, 0.013, 1.0, u)
        ref = np.linalg.solve(L, g)
        assert np.linalg.norm(w - ref) / np.linalg.norm(ref) < 1e-10

    def test_singular_temporal_matrix_raises(self):
        st = make_st(d=1, p=2, elements=3)
        _, M_t = time_matrices(st, 1.0)
        with pytest.raises(DecompositionError, match="singular"):
            solve_w_system(-0.013 * M_t, M_t, 0.013, 1.0, np.ones(st.num_dof))
