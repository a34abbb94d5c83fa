"""Tests for the eigendecompositions, preconditioner and Krylov solvers."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from monoiga.assembly import (
    KroneckerOperator,
    SpatialQuadratureData,
    banded_gram,
    spatial_operators,
    time_matrices,
)
from monoiga import linalg
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import GeometryMap, builtin_geometry
from monoiga.linalg import (
    DecompositionError,
    FastDiagPreconditioner,
    NonConvergenceError,
    generalized_eig,
    gmres,
    pcg,
    solve_w_system,
)
from oracles import kronecker_sparse

RNG = np.random.default_rng(77)


def make_st(d=1, p=2, elements=3, elements_t=None):
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p, elements_t or elements)
    return SpaceTimeSpace(spatial, time)


class TestGeneralizedEig:
    def test_equal_matrices_give_unit_eigenvalues(self):
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        U, lam = generalized_eig(sp.csr_matrix(M), sp.csr_matrix(M))
        assert_allclose(lam, [1.0, 1.0], atol=1e-13)
        assert_allclose(U.T @ M @ U, np.eye(2), atol=1e-13)

    def test_diagonal_hand_case(self):
        K = sp.csr_matrix(np.diag([1.0, 4.0]))
        U, lam = generalized_eig(K, sp.identity(2, format="csr"))
        assert_allclose(lam, [1.0, 4.0], atol=1e-14)
        assert_allclose(np.abs(U), np.eye(2), atol=1e-14)

    def test_spline_matrices_residual(self):
        space = SplineSpace.uniform(3, 6)
        data = SpatialQuadratureData([space], builtin_geometry("unit_interval"))
        U, lam = generalized_eig(data.stiffness(), data.mass())
        K = data.stiffness().toarray()
        M = data.mass().toarray()
        assert np.linalg.norm(K @ U - M @ U @ np.diag(lam)) < 1e-10
        assert_allclose(U.T @ M @ U, np.eye(space.dimension), atol=1e-10)
        assert np.all(np.diff(lam) >= -1e-9)

    def test_indefinite_mass_raises(self):
        with pytest.raises(DecompositionError):
            generalized_eig(
                sp.identity(2, format="csr"), sp.csr_matrix(np.diag([1.0, -1.0]))
            )


class TestTimePencil:
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


def separable_surrogate(st, spatial_data, final_time, cm, diff, react):
    """The preconditioner's surrogate on a mapped domain, from its separable weights."""
    w_mass, w_stiff = FastDiagPreconditioner._separable_weights(spatial_data)
    d = st.num_spatial_dims
    c0, c1 = spatial_data.c0, spatial_data.c1
    w = [r.flat_weights for r in spatial_data.rules]
    M = [banded_gram([c0[l]], [c0[l]], w[l] * w_mass[l]) for l in range(d)]
    K = [banded_gram([c1[l]], [c1[l]], w[l] * w_stiff[l]) for l in range(d)]

    def kron(factors):
        # Direction d is the slowest.
        out = factors[0]
        for f in factors[1:]:
            out = sp.kron(f, out, format="csr")
        return out

    M_s = kron(M)
    K_s = sum(kron([K[l] if l == a else M[l] for l in range(d)]) for a in range(d))
    W_t, M_t = time_matrices(st, final_time)
    terms = [(cm, W_t, M_s), (diff, M_t, K_s), (react, M_t, M_s)]
    return KroneckerOperator(st.num_time, st.num_space, terms), w_mass, w_stiff


def small_space(d):
    spatial = [
        SplineSpace.uniform(2, 4),
        SplineSpace.uniform(2, 2),
        SplineSpace.uniform(1, 2),
    ]
    return SpaceTimeSpace(spatial[:d], SplineSpace.uniform(2, 3))


class TestFastDiagPreconditioner:
    @pytest.mark.parametrize(
        "geometry", ["unit_interval", "unit_square", "unit_cube", "ellipse_annulus"]
    )
    def test_inverts_surrogate_exactly(self, geometry, monkeypatch):
        geo = builtin_geometry(geometry, final_time=2.0)
        cm, diff, react = 1.0, 1e-2, 0.26 * 0.13
        if geometry == "ellipse_annulus":
            # Built on the mapped grid, the univariate factors carry
            # separable weights of the pulled-back measure and metric.
            monkeypatch.setattr(linalg, "EXACT_SPACE_LIMIT", 0)
            st = SpaceTimeSpace(
                [SplineSpace.uniform(2, 8), SplineSpace.uniform(2, 2)],
                SplineSpace.uniform(2, 3),
            )
            sdata = SpatialQuadratureData(st.spatial, geo)
            op, w_mass, w_stiff = separable_surrogate(st, sdata, 2.0, cm, diff, react)
            assert max(np.ptp(np.log(w)) for w in w_mass + w_stiff) > 0.1
        else:
            st = make_st(d=geo.dim, p=2, elements=3)
            sdata = SpatialQuadratureData(st.spatial, geo)
            op = surrogate_operator(st, geo, 2.0, cm, diff, react)
        P = FastDiagPreconditioner.build(st, 2.0, cm, diff, react, spatial_data=sdata)
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

        P = FastDiagPreconditioner(
            [np.array([[1.0]])], [(W_t, np.full(1, cm)), (M_t, np.zeros(1))]
        )
        x = RNG.standard_normal(st.num_time)
        r = op.matvec(x)
        # M_s = 1 means the surrogate equals C_m W_t exactly.
        assert np.linalg.norm(P.apply(r) - x) / np.linalg.norm(x) < 1e-8

    def test_pure_reaction_is_inverse_mass(self):
        st = make_st(d=1, p=2, elements=4)
        geo = builtin_geometry("unit_interval", final_time=1.0)
        W_t, M_t = time_matrices(st, 1.0)
        M_s, _ = spatial_operators(st.spatial, geo)
        op = KroneckerOperator(st.num_time, st.num_space, [(1.0, M_t, M_s)])
        sdata = SpatialQuadratureData(st.spatial, geo)
        P = FastDiagPreconditioner.build(st, 1.0, 0.0, 0.0, 1.0, spatial_data=sdata)
        x = RNG.standard_normal(st.num_dof)
        assert np.linalg.norm(P.apply(op.matvec(x)) - x) < 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize(
        "geometry", ["unit_interval", "unit_square", "unit_cube", "ellipse_annulus"]
    )
    def test_apply_matches_dense_surrogate_solve(self, geometry, monkeypatch):
        # The per-mode temporal solves are exact: apply equals a dense solve
        # of the separable surrogate, mapped or not.
        monkeypatch.setattr(linalg, "EXACT_SPACE_LIMIT", 0)
        geo = builtin_geometry(geometry, final_time=1.5)
        st = small_space(geo.dim)
        sdata = SpatialQuadratureData(st.spatial, geo)
        cm, diff, react = 1e-3, 0.2, 0.05
        op, _, _ = separable_surrogate(st, sdata, 1.5, cm, diff, react)
        P = FastDiagPreconditioner.build(st, 1.5, cm, diff, react, spatial_data=sdata)
        r = RNG.standard_normal(st.num_dof)
        ref = np.linalg.solve(kronecker_sparse(op).toarray(), r)
        assert np.linalg.norm(P.apply(r) - ref) < 1e-10 * np.linalg.norm(ref)

    def test_fold_matches_dense_per_mode_solve(self, monkeypatch):
        # A stabilizer term c S^t kron S^s enters as (S^t, c d), which adds
        # c d_k S^t to every mode's temporal matrix, d_k the diagonal of
        # U^T S^s U.
        monkeypatch.setattr(linalg, "EXACT_SPACE_LIMIT", 0)
        geo = builtin_geometry("ellipse_annulus", final_time=1.5)
        st = small_space(2)
        sdata = SpatialQuadratureData(st.spatial, geo)
        cm, diff, react = 1.0, 1e-2, 0.03
        op, _, _ = separable_surrogate(st, sdata, 1.5, cm, diff, react)
        P = FastDiagPreconditioner.build(st, 1.5, cm, diff, react, spatial_data=sdata)
        nt, ns = st.num_time, st.num_space
        rng = np.random.default_rng(3)
        U = np.ones((1, 1))
        for U_l in P.eigenvectors:
            U = np.kron(U_l, U)
        # The surrogate's spatial eigenvalues, from its stiffness K~.
        lam = np.diag(U.T @ op.terms[1][2].toarray() @ U)
        terms, diags = [], []
        for c in (0.7, 0.2):
            S_t = rng.standard_normal((nt, nt))
            weights = sdata.measure * (1.0 + rng.random(sdata.grid_shape))
            S_s = sdata.mass(weights)
            terms.append((c, sp.csr_matrix(S_t), S_s))
            diags.append(np.diag(U.T @ S_s.toarray() @ U))
        F = FastDiagPreconditioner(
            P.eigenvectors,
            P.terms + [(S_t, c * dg) for (c, S_t, _), dg in zip(terms, diags)],
        )
        r = RNG.standard_normal(st.num_dof)
        # Reference: transform in space densely, solve each mode, transform back.
        R = r.reshape(nt, ns) @ U
        Y = np.empty_like(R)
        W_t, M_t = time_matrices(st, 1.5)
        for k in range(ns):
            A = cm * W_t.toarray() + (react + diff * lam[k]) * M_t.toarray()
            for (c, S_t, _), dg in zip(terms, diags):
                A = A + c * dg[k] * S_t.toarray()
            Y[:, k] = np.linalg.solve(A, R[:, k])
        ref = (Y @ U.T).reshape(-1)
        assert np.linalg.norm(F.apply(r) - ref) < 1e-10 * np.linalg.norm(ref)
        # The surrogate's own terms rebuild it exactly.
        rebuilt = FastDiagPreconditioner(P.eigenvectors, P.terms)
        assert np.array_equal(rebuilt.apply(r), P.apply(r))

    def test_mapped_patch_apply_matches_dense_galerkin_solve(self):
        # Below the limit a mapped patch gets one factor over both
        # directions, the exact eigenvectors of the true (K_s, M_s): apply
        # equals a dense solve of the Galerkin operator itself.
        geo = builtin_geometry("ellipse_annulus", final_time=1.5)
        st = small_space(2)
        sdata = SpatialQuadratureData(st.spatial, geo)
        cm, diff, react = 1e-3, 0.2, 0.05
        P = FastDiagPreconditioner.build(st, 1.5, cm, diff, react, spatial_data=sdata)
        assert [U.shape for U in P.eigenvectors] == [(st.num_space, st.num_space)]
        op = surrogate_operator(st, geo, 1.5, cm, diff, react)
        r = RNG.standard_normal(st.num_dof)
        ref = np.linalg.solve(kronecker_sparse(op).toarray(), r)
        assert np.linalg.norm(P.apply(r) - ref) < 1e-10 * np.linalg.norm(ref)
        # The workspace passes its assembled matrices; the result is the same.
        given = FastDiagPreconditioner.build(
            st, 1.5, cm, diff, react, spatial_data=sdata,
            spatial_matrices=spatial_operators(st.spatial, geo),
        )
        assert np.array_equal(given.apply(r), P.apply(r))

    @pytest.mark.parametrize("geometry", ["unit_interval", "unit_square", "unit_cube"])
    def test_boxes_keep_one_factor_per_direction(self, geometry):
        geo = builtin_geometry(geometry)
        st = small_space(geo.dim)
        sdata = SpatialQuadratureData(st.spatial, geo)
        P = FastDiagPreconditioner.build(st, 1.0, 1.0, 1e-2, 0.03, spatial_data=sdata)
        assert len(P.eigenvectors) == geo.dim
        assert [U.shape[0] for U in P.eigenvectors] == [s.dimension for s in st.spatial]

    def test_curved_interval_keeps_its_exact_factor(self):
        # In 1D the separable weights are the pulled-back data themselves, so
        # a non-affine map keeps its univariate factor, which is exact.
        space = SplineSpace.uniform(2, 1)
        geo = GeometryMap([space], [[0.0], [0.1], [1.0]], final_time=1.0)
        st = SpaceTimeSpace([SplineSpace.uniform(2, 5)], SplineSpace.uniform(2, 3))
        sdata = SpatialQuadratureData(st.spatial, geo)
        assert np.ptp(sdata.detj) > 0.5
        cm, diff, react = 1.0, 1e-2, 0.03
        P = FastDiagPreconditioner.build(st, 1.0, cm, diff, react, spatial_data=sdata)
        assert len(P.eigenvectors) == 1
        op = surrogate_operator(st, geo, 1.0, cm, diff, react)
        r = RNG.standard_normal(st.num_dof)
        ref = np.linalg.solve(kronecker_sparse(op).toarray(), r)
        assert np.linalg.norm(P.apply(r) - ref) < 1e-10 * np.linalg.norm(ref)

    def test_mapped_patch_above_the_limit_keeps_separable_factors(self, monkeypatch):
        geo = builtin_geometry("ellipse_annulus")
        st = small_space(2)
        sdata = SpatialQuadratureData(st.spatial, geo)
        factors = []
        for limit in (st.num_space, st.num_space - 1):
            monkeypatch.setattr(linalg, "EXACT_SPACE_LIMIT", limit)
            P = FastDiagPreconditioner.build(st, 1.0, 1.0, 1e-2, 0.03, spatial_data=sdata)
            factors.append(len(P.eigenvectors))
        assert factors == [1, 2]

    def test_singular_mode_raises(self):
        # The per-mode inverses are computed on the first application.
        st = make_st(d=1, p=2, elements=3)
        sdata = SpatialQuadratureData(st.spatial, builtin_geometry("unit_interval"))
        P = FastDiagPreconditioner.build(st, 1.0, 0.0, 0.0, 0.0, spatial_data=sdata)
        with pytest.raises(DecompositionError, match="singular"):
            P.apply(np.ones(st.num_dof))

    def test_holds_one_inverse_stack(self):
        # The preconditioner forms its per-mode stack, N_s N_t^2 doubles, on
        # its first application, inverts it in place and keeps it, and little
        # else; adding a stabilizer's terms forms no stack until applied.
        st = make_st(d=2, p=2, elements=14)
        geo = builtin_geometry("unit_square", final_time=1.0)
        sdata = SpatialQuadratureData(st.spatial, geo)
        nt, ns = st.num_time, st.num_space
        stack = ns * nt * nt * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            P = FastDiagPreconditioner.build(st, 1.0, 1.0, 1e-3, 0.03, spatial_data=sdata)
            built = tracemalloc.get_traced_memory()[0] - before
            S_t = sp.identity(nt, format="csr")
            F = FastDiagPreconditioner(P.eigenvectors, P.terms + [(S_t, np.ones(ns))])
            built_both = tracemalloc.get_traced_memory()[0] - before
            P.apply(np.ones(st.num_dof))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert built < stack / 2
        assert built_both - built < stack / 2
        assert held - built_both <= 3 * stack
        assert F.num_space == ns


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
        sdata = SpatialQuadratureData(st.spatial, geo)
        P = FastDiagPreconditioner.build(st, 1.0, cm, diff, react, spatial_data=sdata)
        b = RNG.standard_normal(st.num_dof)
        x, it, _ = gmres(op, b, precond=P, tol=1e-8)
        assert it <= 3
        assert np.linalg.norm(op.matvec(x) - b) < 1e-6 * np.linalg.norm(b)

    @staticmethod
    def _perturbed_system():
        # Surrogate operator plus a pointwise perturbation: the
        # fast-diagonalization preconditioner is no longer exact.
        st = make_st(d=2, p=2, elements=3)
        geo = builtin_geometry("unit_square", final_time=1.0)
        cm, diff, react = 1.0, 1e-4, 0.26 * 0.13
        op = surrogate_operator(st, geo, 1.0, cm, diff, react)
        rng = np.random.default_rng(21)
        op.correction = sp.diags(0.05 * rng.random(st.num_dof))
        sdata = SpatialQuadratureData(st.spatial, geo)
        P = FastDiagPreconditioner.build(st, 1.0, cm, diff, react, spatial_data=sdata)
        return op, P, rng.standard_normal(st.num_dof)

    def test_absolute_bound(self):
        op, P, b = self._perturbed_system()
        pb = np.linalg.norm(P.apply(b))
        _, it_rel, _ = gmres(op, b, precond=P, tol=1e-8)
        x, it, _ = gmres(op, b, precond=P, tol=1e-8, atol=1e-4 * pb)
        assert 0 < it < it_rel
        assert np.linalg.norm(P.apply(b - op.matvec(x))) <= 1.01e-4 * pb
        # A right-hand side already below the absolute bound gives zero.
        x, it, _ = gmres(op, b, precond=P, tol=1e-8, atol=2.0 * pb)
        assert it == 0 and not np.any(x)

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
