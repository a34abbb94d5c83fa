"""Tests for quadrature, matrix assembly and the Kronecker operator."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from monoiga.assembly import (
    BandMatrix,
    GramKernel,
    KroneckerOperator,
    QuadratureRule,
    SpatialQuadratureData,
    TimeQuadratureData,
    WeightedMass,
    banded_gram,
    gauss_legendre,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
)
from monoiga import tensorops
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import box_geometry, builtin_geometry
from oracles import (
    band_csr,
    band_matrix,
    dense_space_time_basis,
    dense_univariate,
    dense_weighted_space_time_mass,
    iterate_on_grid,
    kronecker_sparse,
    space_time_quadrature,
    weighted_mass_sparse,
)
from test_mapped_convergence import warped_square

CONSTANTS = {"c1": 0.26, "a": 0.13, "c2": 0.1}


def reaction_mass_of(st, geo, u, w, out=None):
    """:func:`reaction_mass` of ``u`` and ``w`` on fresh default quadrature data."""
    sdata = SpatialQuadratureData(st.spatial, geo)
    tdata = TimeQuadratureData(st, geo.final_time)
    on_grid = iterate_on_grid(st, u, w, sdata, tdata)
    return reaction_mass(CONSTANTS, on_grid, sdata, tdata, out=out)


def make_st(d=1, p=2, elements=2, elements_t=None):
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p, elements_t or elements)
    return SpaceTimeSpace(spatial, time)


class TestQuadrature:
    def test_polynomial_exactness(self):
        rule = QuadratureRule([0.0, 0.3, 1.0], 4)
        for k in range(2 * 4):
            val = np.sum(rule.flat_weights * rule.points**k)
            assert_allclose(val, 1.0 / (k + 1), rtol=1e-13)

    @pytest.mark.parametrize("q", range(1, 21))
    def test_gauss_legendre_matches_numpy(self, q):
        # numpy's leggauss weights are themselves off by up to 1.8e-15 from
        # 40-digit values (q = 18 and 20), where these are within 1.6e-16,
        # so the weights are compared at twice that and checked for
        # exactness on their own.
        x, w = gauss_legendre(q)
        ref_x, ref_w = np.polynomial.legendre.leggauss(q)
        assert_allclose(x, ref_x, rtol=0, atol=1e-15)
        assert_allclose(w, ref_w, rtol=0, atol=2e-15)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(2 * q):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * x**k) - exact) <= 1e-15

    def test_refined_rule_matches(self):
        space = SplineSpace.uniform(3, 3)
        geo = builtin_geometry("unit_interval")
        M1 = SpatialQuadratureData([space], geo, npoints=4).mass()
        M2 = SpatialQuadratureData([space], geo, npoints=6).mass()
        assert np.max(np.abs(M1.toarray() - M2.toarray())) < 1e-12


def univariate_grams(space, weight_grid=None):
    """Dense mass, stiffness and advection of a space on the unit interval.

    Built from 1D quadrature data; ``advection[i, j] = int b'_j b_i``.  The
    mass is weighted by ``weight_grid`` on the quadrature points, if given.
    """
    data = SpatialQuadratureData([space], builtin_geometry("unit_interval"))
    w = data.rules[0].flat_weights
    W = banded_gram([data.c0[0]], [data.c1[0]], w)
    weights = None if weight_grid is None else data.measure * weight_grid
    return data.mass(weights).toarray(), data.stiffness().toarray(), W.toarray()


class TestUnivariate:
    def test_linear_single_element_exact(self):
        space = SplineSpace.uniform(1, 1)
        M, K, W = univariate_grams(space)
        assert_allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
        assert_allclose(K, [[1, -1], [-1, 1]], atol=1e-14)
        assert_allclose(W, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)

    def test_mass_row_sums_are_basis_integrals(self):
        space = SplineSpace.uniform(2, 3)
        M, _, _ = univariate_grams(space)
        rule = QuadratureRule.for_space(space, 5)
        C = space.collocation_matrix(rule.points, 0)
        integrals = rule.flat_weights @ C
        assert_allclose(M.sum(axis=1), integrals, atol=1e-14)

    def test_constant_weight_is_linear(self):
        space = SplineSpace.uniform(2, 4)
        plain, _, _ = univariate_grams(space)
        q = QuadratureRule.for_space(space).points.size
        weighted, _, _ = univariate_grams(space, weight_grid=np.full(q, 3.5))
        assert np.max(np.abs(weighted - 3.5 * plain)) < 1e-14

    def test_against_dense_oracle(self):
        space = SplineSpace.uniform(3, 3)
        M, K, W = univariate_grams(space)
        for ours, (ot, otr) in zip((M, K, W), [(0, 0), (1, 1), (0, 1)]):
            ref = dense_univariate(space, ot, otr)
            assert np.max(np.abs(ours - ref)) < 1e-13

    def test_time_matrices_against_dense_oracle(self):
        st = make_st(p=3, elements=2, elements_t=3)
        W, M = time_matrices(TimeQuadratureData(st, 2.5))
        W_ref = dense_univariate(st.time, 0, 1)[1:, 1:]
        M_ref = 2.5 * dense_univariate(st.time)[1:, 1:]
        assert np.max(np.abs(W - W_ref)) < 1e-13
        assert np.max(np.abs(M - M_ref)) < 1e-13

    def test_spd_structure(self):
        space = SplineSpace.uniform(2, 5)
        M, K, _ = univariate_grams(space)
        assert_allclose(M, M.T, atol=1e-15)
        assert_allclose(K, K.T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(M) > 0)
        assert np.min(np.linalg.eigvalsh(K)) > -1e-12

    def test_advection_integration_by_parts(self):
        space = SplineSpace.uniform(2, 4)
        _, _, W = univariate_grams(space)
        n = space.dimension
        boundary = np.zeros((n, n))
        boundary[-1, -1] = 1.0
        boundary[0, 0] = -1.0
        assert_allclose(W + W.T, boundary, atol=1e-13)


def test_constrained_time_advection_rank_one():
    st = make_st(p=3, elements=4)
    W, M = time_matrices(TimeQuadratureData(st, 2.0))
    S = W + W.T
    expected = np.zeros_like(S)
    expected[-1, -1] = 1.0
    assert np.max(np.abs(S - expected)) < 1e-13
    # temporal mass scales with the final time
    _, M1 = time_matrices(TimeQuadratureData(st, 1.0))
    assert_allclose(M, 2.0 * M1, atol=1e-15)


class TestSpatialOperators:
    def test_constants_in_stiffness_kernel(self):
        geo = builtin_geometry("unit_square")
        spaces = [SplineSpace.uniform(2, 3)] * 2
        _, K = spatial_operators(SpatialQuadratureData(spaces, geo))
        ones = np.ones(K.shape[0])
        assert np.max(np.abs(K @ ones)) < 1e-12

    @pytest.mark.parametrize("lengths", [[1.0, 1.0, 1.0], [2.0, 0.5, 1.5]])
    def test_box_matches_scaled_univariate_kronecker_factors(self, lengths):
        geo = box_geometry(lengths)
        spaces = [
            SplineSpace.uniform(2, 2),
            SplineSpace.uniform(3, 3),
            SplineSpace.uniform(2, 3),
        ]
        M, K = spatial_operators(SpatialQuadratureData(spaces, geo))
        mass = [L * dense_univariate(s) for L, s in zip(lengths, spaces)]
        stiff = [dense_univariate(s, 1, 1) / L for L, s in zip(lengths, spaces)]
        # Direction d is the slowest Kronecker factor.
        M_ref = functools.reduce(np.kron, mass[::-1])
        K_ref = sum(
            functools.reduce(
                np.kron, [stiff[l] if l == a else mass[l] for l in (2, 1, 0)]
            )
            for a in range(3)
        )
        assert np.max(np.abs(M.toarray() - M_ref)) <= 1e-13 * np.max(np.abs(M_ref))
        assert np.max(np.abs(K.toarray() - K_ref)) <= 1e-13 * np.max(np.abs(K_ref))

    def test_affine_scaling_2d(self):
        spaces = [SplineSpace.uniform(2, 2)] * 2
        unit = SpatialQuadratureData(spaces, builtin_geometry("unit_square"))
        M_ref, K_ref = spatial_operators(unit)
        M, K = spatial_operators(SpatialQuadratureData(spaces, box_geometry([2.0, 2.0])))
        assert np.max(np.abs(M.toarray() - 4.0 * M_ref.toarray())) < 1e-12
        assert np.max(np.abs(K.toarray() - K_ref.toarray())) < 1e-12

    def test_curved_geometry_mass_symmetric_positive(self):
        geo = builtin_geometry("ellipse_annulus")
        spaces = [SplineSpace.uniform(2, 8), SplineSpace.uniform(2, 2)]
        M, K = spatial_operators(SpatialQuadratureData(spaces, geo))
        Md = M.toarray()
        assert_allclose(Md, Md.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(Md) > 0)
        assert np.max(np.abs(K @ np.ones(K.shape[0]))) < 1e-10


class TestLaplacianTable:
    @pytest.mark.parametrize("geometry", ["ellipse_annulus", "warped_square"])
    def test_harmonic_coordinates_and_squared_radius(self, geometry):
        # The table applied to the map's own coordinates: each x_c is
        # harmonic and the Laplacian of |x|^2 is 2 d.
        if geometry == "warped_square":
            geo = warped_square()
            spaces = [SplineSpace.uniform(2, 3)] * 2
        else:
            geo = builtin_geometry(geometry)
            spaces = [SplineSpace.uniform(3, 6), SplineSpace.uniform(3, 2)]
        sdata = SpatialQuadratureData(spaces, geo)
        axes = [r.points for r in sdata.rules]
        x, jac, hess = (geo.tabulate(axes, order) for order in range(3))
        lap_x = 0.0
        lap_r2 = 0.0
        for orders, c in sdata.laplacian:
            dirs = [k for k, o in enumerate(orders) for _ in range(o)]
            dx = jac[..., dirs[0]] if len(dirs) == 1 else hess[..., dirs[0], dirs[1]]
            lap_x = lap_x + c[..., None] * dx
            # d_a d_b |x|^2 = 2 (d_a x . d_b x + x . d_a d_b x)
            dr2 = 2.0 * np.sum(x * dx, axis=-1)
            if len(dirs) == 2:
                dr2 += 2.0 * np.sum(jac[..., dirs[0]] * jac[..., dirs[1]], axis=-1)
            lap_r2 = lap_r2 + c * dr2
        assert np.max(np.abs(lap_x)) <= 1e-12
        assert np.max(np.abs(lap_r2 - 4.0)) <= 1e-12

    def test_unit_cube_keeps_only_pure_second_orders(self):
        spaces = [SplineSpace.uniform(2, 3)] * 3
        sdata = SpatialQuadratureData(spaces, builtin_geometry("unit_cube"))
        table = sdata.laplacian
        assert [orders for orders, _ in table] == [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        for _, c in table:
            assert np.all(c == 1.0)


class TestReactionMass:
    def test_zero_state_reduces_to_scaled_mass(self):
        st = make_st(d=2, p=2, elements=2)
        geo = builtin_geometry("unit_square", final_time=1.5)
        z = np.zeros(st.num_dof)
        MR = reaction_mass_of(st, geo, z, z)
        W_t, M_t = time_matrices(TimeQuadratureData(st, 1.5))
        M_s, _ = spatial_operators(SpatialQuadratureData(st.spatial, geo))
        ref = CONSTANTS["a"] * CONSTANTS["c1"] * sp.kron(M_t, M_s.toarray())
        assert np.max(np.abs((weighted_mass_sparse(MR) - ref).toarray())) < 1e-12

    def test_vanishes_where_field_is_one(self):
        # With all-one coefficients the field equals 1 away from the first
        # temporal element, so the reaction coefficient vanishes there and
        # only blocks touching the initial layer survive.
        st = make_st(d=1, p=2, elements=3)
        geo = builtin_geometry("unit_interval")
        ones = np.ones(st.num_dof)
        MR = reaction_mass_of(st, geo, ones, np.zeros(st.num_dof))
        p = st.time.degree
        ns = st.num_space
        dense = weighted_mass_sparse(MR).toarray()
        far = dense[p * ns :, p * ns :]
        assert np.max(np.abs(far)) < 1e-14

    def test_random_state_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        st = make_st(d=2, p=2, elements=2)
        geo = builtin_geometry("unit_square", final_time=2.0)
        u = rng.standard_normal(st.num_dof)
        w = rng.standard_normal(st.num_dof)
        MR = weighted_mass_sparse(reaction_mass_of(st, geo, u, w)).toarray()

        def weight(pts):
            B = dense_space_time_basis(st, pts, [0, 0], 0)
            uv = B @ u
            wv = B @ w
            return (
                CONSTANTS["c1"] * (uv - CONSTANTS["a"]) * (uv - 1.0)
                + CONSTANTS["c2"] * wv
            )

        ref = dense_weighted_space_time_mass(st, geo, weight)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(MR - ref)) / scale < 1e-12


def random_reaction_operator(st, geo, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(st.num_dof)
    w = rng.standard_normal(st.num_dof)
    return reaction_mass_of(st, geo, u, w)


def stacked_trial_operator(MR, seed=0):
    """``[C_t; C_t]^T diag([W_1; W_2]) [C_t; C_t R]`` with a dense random ``R``.

    The form of the reaction part of the Newton derivative; ``W_1`` is the
    weight grid of ``MR``, and the operator is one term on a doubled
    temporal grid.  Returns the operator, ``R`` and ``W_2``.
    """
    rng = np.random.default_rng(seed)
    ct = MR.time_colloc
    R = rng.standard_normal((ct.shape[1], ct.shape[1]))
    (W1,) = MR.data
    W2 = rng.standard_normal(W1.shape) * np.abs(W1)
    op = WeightedMass(
        np.vstack([ct, ct]),
        MR.space_collocs,
        np.concatenate([W1, W2])[None],
        np.vstack([ct, ct @ R])[None],
    )
    return op, R, W2


def test_reaction_mass_writes_its_weights_into_out():
    st = make_st(d=2, p=2, elements=2)
    geo = builtin_geometry("ellipse_annulus", final_time=3.0)
    rng = np.random.default_rng(14)
    u = rng.standard_normal(st.num_dof)
    w = rng.standard_normal(st.num_dof)
    MR = reaction_mass_of(st, geo, u, w)
    out = np.empty((2,) + MR.data.shape[1:])
    given = reaction_mass_of(st, geo, u, w, out=out[1])
    assert np.shares_memory(given.data, out)
    assert np.array_equal(out[1], MR.data[0])


@pytest.mark.parametrize("budget", [1, 2**40])
def test_reaction_mass_may_write_over_w(monkeypatch, budget):
    # Each slab of w is read before the weights are written over it.
    monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
    st = make_st(d=2, p=2, elements=2, elements_t=3)
    geo = builtin_geometry("ellipse_annulus", final_time=3.0)
    sdata = SpatialQuadratureData(st.spatial, geo)
    tdata = TimeQuadratureData(st, geo.final_time)
    rng = np.random.default_rng(15)
    u = rng.standard_normal(st.num_dof)
    w = rng.standard_normal(st.num_dof)
    MR = reaction_mass(CONSTANTS, iterate_on_grid(st, u, w, sdata, tdata), sdata, tdata)
    on_grid = iterate_on_grid(st, u, w, sdata, tdata)
    over = reaction_mass(CONSTANTS, on_grid, sdata, tdata, out=on_grid.w)
    assert np.shares_memory(over.data, on_grid.stack)
    assert np.array_equal(on_grid.w, MR.data[0])


class TestWeightedMass:
    @pytest.mark.parametrize(
        "d, geometry, p, elements",
        [
            (1, "unit_interval", 3, 4),
            (2, "ellipse_annulus", 2, 3),
            (3, "unit_cube", 2, 2),
        ],
    )
    def test_matvec_matches_assembled_matrix(self, d, geometry, p, elements):
        st = make_st(d=d, p=p, elements=elements)
        geo = builtin_geometry(geometry, final_time=3.0)
        MR = random_reaction_operator(st, geo)
        assert isinstance(MR, WeightedMass)
        x = np.random.default_rng(1).standard_normal(st.num_dof)
        # The reaction mass and the stacked form with a distinct trial factor.
        for op in (MR, stacked_trial_operator(MR, seed=d)[0]):
            assert op.shape == (st.num_dof, st.num_dof)
            assert op.nnz == op.data.size
            ref = weighted_mass_sparse(op) @ x
            assert np.linalg.norm(op.matvec(x) - ref) <= 1e-13 * np.linalg.norm(ref)
            assert_allclose(op @ x, op.matvec(x), rtol=0, atol=0)

    @pytest.mark.parametrize(
        "d, geometry, p, elements",
        [(1, "unit_interval", 2, 3), (2, "ellipse_annulus", 2, 2)],
    )
    def test_tosparse_columns_equal_matvec(self, d, geometry, p, elements):
        st = make_st(d=d, p=p, elements=elements)
        MR = random_reaction_operator(st, builtin_geometry(geometry), seed=3)
        for op in (MR, stacked_trial_operator(MR, seed=4)[0]):
            S = weighted_mass_sparse(op).toarray()
            cols = np.column_stack([op.matvec(e) for e in np.eye(st.num_dof)])
            assert np.max(np.abs(S - cols)) <= 1e-13 * np.max(np.abs(S))

    def test_stacked_trial_factor_sums_its_terms(self):
        # [C_t; C_t]^T diag([W_1; W_2]) [C_t; C_t R] = WM(W_1) + WM(W_2) (R kron I).
        st = make_st(d=2, p=2, elements=2)
        MR = random_reaction_operator(st, builtin_geometry("ellipse_annulus"), seed=5)
        op, R, W2 = stacked_trial_operator(MR, seed=6)
        second = weighted_mass_sparse(
            WeightedMass(
                MR.time_colloc, MR.space_collocs, W2[None], MR.time_colloc[None]
            )
        )
        ref = weighted_mass_sparse(MR) + second @ sp.kron(R, sp.eye(st.num_space))
        S = weighted_mass_sparse(op)
        assert np.max(np.abs((S - ref).toarray())) <= 1e-13 * np.max(np.abs(S))

    def test_rejects_mismatched_weight_grid(self):
        with pytest.raises(ValueError, match="weight grid"):
            WeightedMass(
                np.ones((4, 2)), [np.ones((3, 2))], np.ones((1, 4, 4)), np.ones((1, 4, 2))
            )
        with pytest.raises(ValueError, match="one trial factor"):
            WeightedMass(
                np.ones((4, 2)), [np.ones((3, 2))], np.ones((2, 4, 3)), np.ones((3, 4, 2))
            )

    @pytest.mark.parametrize(
        "d, geometry", [(1, "unit_interval"), (2, "ellipse_annulus"), (3, "unit_cube")]
    )
    def test_stacked_weights_sum_their_masses(self, d, geometry):
        # C_t^T diag(W_1) C_t + C_t^T diag(W_2) C_t R, one grid per term,
        # equals the stacked [C_t; C_t]^T diag([W_1; W_2]) [C_t; C_t R].
        st = make_st(d=d, p=2, elements=2)
        MR = random_reaction_operator(st, builtin_geometry(geometry), seed=8)
        stacked, R, W2 = stacked_trial_operator(MR, seed=9)
        ct = MR.time_colloc
        op = WeightedMass(
            ct, MR.space_collocs, np.stack([MR.data[0], W2]), np.stack([ct, ct @ R])
        )
        assert op.nnz == 2 * MR.data.size
        x = np.random.default_rng(10).standard_normal(st.num_dof)
        ref = stacked.matvec(x)
        assert np.linalg.norm(op.matvec(x) - ref) <= 1e-13 * np.linalg.norm(ref)
        S = weighted_mass_sparse(op)
        assert np.max(np.abs((S - weighted_mass_sparse(stacked)).toarray())) <= (
            1e-13 * np.max(np.abs(S))
        )

    def test_kronecker_operator_assembles_the_sum_of_its_parts(self):
        st = make_st(d=2, p=2, elements=2)
        geo = builtin_geometry("ellipse_annulus", final_time=2.0)
        MR = random_reaction_operator(st, geo, seed=4)
        W_t, M_t = time_matrices(TimeQuadratureData(st, 2.0))
        M_s, K_s = spatial_operators(SpatialQuadratureData(st.spatial, geo))
        op = KroneckerOperator(
            st.num_time, st.num_space, [(1.0, W_t, M_s), (1e-3, M_t, K_s)], MR
        )
        ref = (
            sp.kron(W_t, M_s.toarray())
            + 1e-3 * sp.kron(M_t, K_s.toarray())
            + weighted_mass_sparse(MR)
        )
        assert np.max(np.abs((kronecker_sparse(op) - ref).toarray())) < 1e-14
        x = np.random.default_rng(2).standard_normal(st.num_dof)
        assert_allclose(op.matvec(x), ref @ x, rtol=1e-13, atol=1e-15)

    def test_memory_scales_with_quadrature_points(self):
        # The operator keeps a grid of weights; the assembled matrix it
        # replaces holds (2p+1)^(d+1) entries per row in the interior.
        st = make_st(d=3, p=3, elements=3)
        geo = builtin_geometry("unit_cube")
        sdata = SpatialQuadratureData(st.spatial, geo)
        tdata = TimeQuadratureData(st, geo.final_time)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(st.num_dof)
        w = rng.standard_normal(st.num_dof)
        on_grid = iterate_on_grid(st, u, w, sdata, tdata)
        tracemalloc.start()
        try:
            MR = reaction_mass(CONSTANTS, on_grid, sdata, tdata)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        S = weighted_mass_sparse(MR)
        csr_bytes = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
        assert peak < 8 * MR.data.nbytes
        assert peak < csr_bytes / 4


def refined_spatial_data(spaces, geo):
    """Quadrature data on the stabilizer's rule: p + 2 points, Greville breaks."""
    return SpatialQuadratureData(
        spaces,
        geo,
        npoints=max(s.degree for s in spaces) + 2,
        extra_breaks=[s.greville() for s in spaces],
    )


def measure_oracle(data):
    """``wgrid |det J|`` on the grid of ``data``, point by point.

    The weights are multiplied on a mesh and the determinants are LU
    determinants of the map's scattered Jacobians.
    """
    axes = [r.points for r in data.rules]
    mesh = np.meshgrid(*axes[::-1], indexing="ij")
    pts = np.column_stack([m.reshape(-1) for m in reversed(mesh)])
    weights = np.meshgrid(*[r.flat_weights for r in data.rules][::-1], indexing="ij")
    wgrid = functools.reduce(np.multiply, weights)
    det = np.linalg.det(data.geo.jacobian(pts)).reshape(wgrid.shape)
    return wgrid * np.abs(det)


class TestBandedGram:
    @pytest.mark.parametrize(
        "geometry, p, elements",
        [
            ("unit_interval", 3, [5]),
            ("ellipse_annulus", 2, [4, 3]),
            ("unit_cube", 2, [2, 3, 2]),
        ],
    )
    def test_matches_explicit_product_with_mixed_orders(self, geometry, p, elements):
        spaces = [SplineSpace.uniform(p, n) for n in elements]
        data = refined_spatial_data(spaces, builtin_geometry(geometry))
        d = len(spaces)
        rng = np.random.default_rng(5)
        W = rng.standard_normal(data.grid_shape) * np.abs(data.detj)
        # Derivative on the test side in direction 1, on the trial side in
        # direction d (both in 1D); factor lists run in grid order (d first).
        tests = [data.c1[l] if l == 0 else data.c0[l] for l in reversed(range(d))]
        trials = [
            data.c1[l] if l == d - 1 else data.c0[l] for l in reversed(range(d))
        ]
        A = functools.reduce(sp.kron, [sp.csr_matrix(c) for c in tests]).toarray()
        B = functools.reduce(sp.kron, [sp.csr_matrix(c) for c in trials]).toarray()
        ref = A.T @ (W.reshape(-1)[:, None] * B)
        G = banded_gram(tests, trials, W)
        assert isinstance(G, BandMatrix)
        assert np.max(np.abs(G.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "geometry, p, elements", [("ellipse_annulus", 3, [6, 2]), ("unit_cube", 2, [3, 2, 4])]
    )
    def test_weighted_mass_on_refined_rule_matches_triple_product(
        self, geometry, p, elements
    ):
        spaces = [SplineSpace.uniform(p, n) for n in elements]
        data = refined_spatial_data(spaces, builtin_geometry(geometry))
        prof = np.random.default_rng(7).random(data.grid_shape)
        C = functools.reduce(sp.kron, [sp.csr_matrix(c) for c in reversed(data.c0)])
        w = (measure_oracle(data) * prof).reshape(-1)
        ref = (C.T @ sp.diags(w) @ C).toarray()
        M = data.mass(data.measure * prof).toarray()
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "geometry, p, elements", [("ellipse_annulus", 3, [6, 2]), ("unit_cube", 2, [3, 2, 4])]
    )
    def test_refined_rule_holds_only_its_measure(
        self, monkeypatch, geometry, p, elements
    ):
        # The measure is tabulated by slabs of the slowest direction; the
        # refined rule keeps neither the determinants nor the weight grid.
        spaces = [SplineSpace.uniform(p, n) for n in elements]
        geo = builtin_geometry(geometry)
        ref = measure_oracle(refined_spatial_data(spaces, geo))
        for budget in (1, ref[0].size * 3, 2**40):
            monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
            data = refined_spatial_data(spaces, geo)
            assert not {"detj", "wgrid"} & set(vars(data))
            assert not data.measure.flags.writeable
            assert_allclose(data.measure, ref, rtol=1e-13, atol=0)

    def test_mass_memory_scales_with_the_result(self):
        # A sparse triple product with the Kronecker collocation matrix of
        # this rule, (p+1)^3 entries per quadrature point, peaks at about 130
        # times the bytes of the assembled mass matrix on this mesh.
        spaces = [SplineSpace.uniform(2, 4)] * 3
        data = refined_spatial_data(spaces, builtin_geometry("unit_cube"))
        prof = np.random.default_rng(8).random(data.grid_shape)
        tracemalloc.start()
        try:
            data.mass(data.measure * prof)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The bound is the CSR storage of the same matrix's full band.
        c = data.c0[::-1]
        S = band_csr(GramKernel(c, c, data.bands[::-1]), data.measure * prof)
        csr_bytes = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
        assert peak < 8 * csr_bytes


class TestRhsVectors:
    def test_zero_source_and_zero_state(self):
        st = make_st(d=1, p=2, elements=3)
        geo = builtin_geometry("unit_interval")
        sdata = SpatialQuadratureData(st.spatial, geo)
        f = rhs_vectors(None, sdata, TimeQuadratureData(st, geo.final_time))
        assert f.shape == (st.num_dof,)
        assert np.all(f == 0.0)

    def test_unit_source_entries_are_basis_integrals(self):
        st = make_st(d=2, p=2, elements=2)
        geo = builtin_geometry("unit_square", final_time=3.0)
        sdata = SpatialQuadratureData(st.spatial, geo)
        tdata = TimeQuadratureData(st, geo.final_time)
        f = rhs_vectors(lambda x, t: np.ones(t.shape), sdata, tdata)
        pts, w = space_time_quadrature(st, npoints=4)
        B = dense_space_time_basis(st, pts, [0, 0], 0)
        ref = (w * 3.0) @ B
        assert np.max(np.abs(f - ref)) < 1e-12

    def test_source_sample_is_evaluated_once_per_callable_and_rule(self):
        st = make_st(d=2, p=2, elements=2)
        geo = builtin_geometry("ellipse_annulus", final_time=3.0)
        sdata = SpatialQuadratureData(st.spatial, geo)
        tdata = TimeQuadratureData(st, geo.final_time)
        calls = []

        def source(x, t):
            calls.append(t[0])
            return x[:, 0] * x[:, 1] + t

        f = rhs_vectors(source, sdata, tdata)
        # One call per temporal element, with all its Gauss times.
        assert len(calls) == tdata.rule.num_cells
        grid = sdata.sample(source, tdata)
        assert len(calls) == tdata.rule.num_cells
        x = sdata.geo.tabulate([r.points for r in sdata.rules])[None]
        t = (tdata.points * geo.final_time).reshape(-1, 1, 1)
        assert np.array_equal(grid, x[..., 0] * x[..., 1] + t)
        assert np.array_equal(
            f, rhs_vectors(source, sdata, tdata)
        )
        # Another callable or another temporal rule is sampled afresh.
        doubled = sdata.sample(lambda x, t: 2.0 * t, tdata)
        assert np.array_equal(doubled, np.broadcast_to(2.0 * t, grid.shape))
        finer = TimeQuadratureData(st, geo.final_time, npoints=4)
        shape = (finer.points.size,) + sdata.grid_shape
        assert sdata.sample(source, finer).shape == shape


def band_identity(like):
    """The identity in the band pattern of the :class:`BandMatrix` ``like``."""
    sizes, bands = like.pattern.sizes, like.pattern.bands
    eyes = [np.eye(n) for n in sizes]
    return banded_gram(eyes, eyes, np.ones(sizes), bands=bands)


class TestBandMatrix:
    # Fast-axis lengths 7, 13 and 9 split into blocks of 4, 5 and 5 rows,
    # with padded rows; 6 is one block.
    @pytest.mark.parametrize(
        "geometry, p, elements",
        [
            ("unit_interval", 2, [5]),
            ("ellipse_annulus", 3, [10, 2]),
            ("unit_cube", 2, [7, 2, 3]),
            ("unit_cube", 2, [4, 3, 4]),
        ],
    )
    def test_matches_csr_of_its_band(self, monkeypatch, geometry, p, elements):
        spaces = [SplineSpace.uniform(p, n) for n in elements]
        data = refined_spatial_data(spaces, builtin_geometry(geometry))
        c = data.c0[::-1]
        kernel = GramKernel(c, c, data.bands[::-1])
        W = data.measure * np.random.default_rng(3).random(data.grid_shape)
        ref = band_csr(kernel, W)
        M = kernel(W)
        assert M.shape == ref.shape
        scale = np.max(np.abs(ref.data))
        assert np.max(np.abs(M.toarray() - ref.toarray())) <= 1e-14 * scale
        rng = np.random.default_rng(4)
        x = rng.standard_normal(M.shape[0])
        X = rng.standard_normal((M.shape[0], 3))
        for arg in (x, X):
            y = ref @ arg
            assert (M @ arg).shape == y.shape
            assert np.max(np.abs(M @ arg - y)) <= 1e-14 * np.max(np.abs(y))
            # One block and one column per slab of the windows.
            monkeypatch.setattr(tensorops, "SLAB_POINTS", 1)
            sliced = M @ arg
            monkeypatch.undo()
            assert np.max(np.abs(sliced - y)) <= 1e-14 * np.max(np.abs(y))

    @pytest.mark.parametrize("nt", [1, 3])
    def test_stacked_factors_match_the_sum_of_kronecker_products(self, nt):
        # k > 1 factors per stack and two stacks; one row of X (nt = 1) is
        # a 1-D input of the kernel, several rows a multi-column one.
        spaces = [SplineSpace.uniform(3, 10), SplineSpace.uniform(3, 2)]
        geo = builtin_geometry("ellipse_annulus")
        data = SpatialQuadratureData(spaces, geo)
        M_s, K_s = spatial_operators(data)
        rng = np.random.default_rng(5)
        S = data.mass(data.measure * rng.random(data.grid_shape))
        temporal = [rng.standard_normal((nt, nt)) for _ in range(4)]
        terms = list(zip([1.0, 1e-3, 0.5, -2.0], temporal, [M_s, K_s, S, M_s]))
        op = KroneckerOperator(nt, M_s.shape[0], terms[:2]).plus(terms[2:])
        x = rng.standard_normal(op.shape[0])
        ref = kronecker_sparse(op) @ x
        assert np.max(np.abs(op.matvec(x) - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestKroneckerOperator:
    def test_identity_terms(self):
        rng = np.random.default_rng(0)
        op = KroneckerOperator(3, 4, [(1.0, sp.identity(3), band_matrix(np.eye(4)))])
        x = rng.standard_normal(12)
        assert_allclose(op.matvec(x), x, atol=1e-15)

    def test_matches_dense_kron(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((3, 3))
        C = rng.standard_normal((2, 2))
        D = rng.standard_normal((3, 3))
        op = KroneckerOperator(
            2,
            3,
            [(1.3, sp.csr_matrix(A), band_matrix(B)), (-0.4, C, band_matrix(D))],
        )
        dense = 1.3 * np.kron(A, B) - 0.4 * np.kron(C, D)
        x = rng.standard_normal(6)
        assert np.max(np.abs(op.matvec(x) - dense @ x)) < 1e-14
        assert np.max(np.abs(kronecker_sparse(op).toarray() - dense)) < 1e-14

    def test_correction_term(self):
        rng = np.random.default_rng(3)
        corr = sp.random(6, 6, density=0.5, random_state=4)
        op = KroneckerOperator(
            2, 3, [(1.0, sp.identity(2), band_matrix(np.eye(3)))], correction=corr
        )
        x = rng.standard_normal(6)
        assert_allclose(op.matvec(x), x + corr @ x, atol=1e-14)

    def test_spatial_factors_share_one_band_pattern(self):
        with pytest.raises(TypeError, match="BandMatrix"):
            KroneckerOperator(2, 3, [(1.0, np.eye(2), np.eye(3))])
        wide = band_matrix(np.ones((3, 3)))
        narrow = band_matrix(np.eye(3))
        op = KroneckerOperator(2, 3, [(1.0, np.eye(2), wide)])
        with pytest.raises(ValueError, match="one band pattern"):
            op.plus([(1.0, np.eye(2), narrow)])

    def test_zero_state_operator_reduces_to_time_ode(self):
        # Applying the zero-state system operator to a constant-in-space
        # vector reproduces the univariate time discretization blocks.
        st = make_st(d=1, p=2, elements=3)
        geo = builtin_geometry("unit_interval")
        W_t, M_t = time_matrices(TimeQuadratureData(st, 1.0))
        M_s, K_s = spatial_operators(SpatialQuadratureData(st.spatial, geo))
        cm, diff, react = 1.0, 1e-4, 0.26 * 0.13
        op = KroneckerOperator(
            st.num_time,
            st.num_space,
            [(cm, W_t, M_s), (diff, M_t, K_s), (react, M_t, M_s)],
        )
        rng = np.random.default_rng(8)
        ut = rng.standard_normal(st.num_time)
        x = np.kron(ut, np.ones(st.num_space))
        m = M_s @ np.ones(st.num_space)
        ref = np.kron((cm * W_t + react * M_t) @ ut, m)
        assert np.max(np.abs(op.matvec(x) - ref)) < 1e-13

    def test_stacked_matvec_mixes_factor_formats(self):
        # CSR, DIA (sp.identity) and dense temporal factors, band spatial
        # factors, plus a matrix-free correction, in one stacked apply.
        st = make_st(d=2, p=2, elements=3)
        geo = builtin_geometry("ellipse_annulus", final_time=2.0)
        MR = random_reaction_operator(st, geo, seed=6)
        W_t, M_t = time_matrices(TimeQuadratureData(st, 2.0))
        M_s, K_s = spatial_operators(SpatialQuadratureData(st.spatial, geo))
        nt, ns = st.num_time, st.num_space
        rng = np.random.default_rng(12)
        dense_t = rng.standard_normal((nt, nt))
        terms = [
            (1.0, W_t, M_s),
            (1e-3, M_t, K_s),
            (0.7, sp.identity(nt), M_s),
            (-0.2, dense_t, band_identity(M_s)),
        ]
        op = KroneckerOperator(nt, ns, terms, MR)
        x = rng.standard_normal(st.num_dof)
        ref = kronecker_sparse(op) @ x
        assert np.linalg.norm(op.matvec(x) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_plus_appends_terms_and_leaves_the_base(self):
        # An operator extended by further terms, in mixed formats, applies
        # the sum of all terms; the base keeps its own terms and stacks.
        st = make_st(d=2, p=2, elements=3)
        geo = builtin_geometry("ellipse_annulus", final_time=2.0)
        W_t, M_t = time_matrices(TimeQuadratureData(st, 2.0))
        M_s, K_s = spatial_operators(SpatialQuadratureData(st.spatial, geo))
        nt, ns = st.num_time, st.num_space
        rng = np.random.default_rng(13)
        base_terms = [(1.0, W_t, M_s), (1e-3, M_t, K_s)]
        extra = [
            (0.7, sp.identity(nt), M_s),
            (-0.2, rng.standard_normal((nt, nt)), band_identity(M_s)),
        ]
        base = KroneckerOperator(nt, ns, base_terms)
        x = rng.standard_normal(st.num_dof)
        before = base.matvec(x)
        base.correction = random_reaction_operator(st, geo, seed=7)
        op = base.plus(extra)
        assert op.correction is None
        ref = kronecker_sparse(KroneckerOperator(nt, ns, base_terms + extra)) @ x
        assert np.linalg.norm(op.matvec(x) - ref) <= 1e-13 * np.linalg.norm(ref)
        base.correction = None
        assert len(base.terms) == 2
        assert np.array_equal(base.matvec(x), before)
        # Each spatial factor is a view of one of the operator's stacks and
        # equals the factor it was given; the base's stack is shared.
        stacks = [space for space, _ in op._stacks]
        for (_, _, smat), given in zip(op.terms, base_terms + extra):
            assert sum(np.shares_memory(smat.data, s) for s in stacks) == 1
            assert np.array_equal(smat.toarray(), given[2].toarray())
        for (_, _, smat), (_, _, mine) in zip(op.terms, base.terms):
            assert np.shares_memory(smat.data, mine.data)

    def test_plus_takes_a_pattern_stack_without_a_copy(self):
        # Matrices assembled into the slots of GramPattern.stack become the
        # new stack as they are; the same matrices in any other order, or
        # separately assembled, are copied into one.
        st = make_st(d=2, p=2, elements=3)
        geo = builtin_geometry("ellipse_annulus", final_time=2.0)
        sdata = SpatialQuadratureData(st.spatial, geo)
        W_t, M_t = time_matrices(TimeQuadratureData(st, 2.0))
        nt, ns = st.num_time, st.num_space
        rng = np.random.default_rng(16)
        grids = [sdata.measure * rng.random(sdata.grid_shape) for _ in range(3)]
        slots = sdata.mass_stack(3)
        mats = [sdata.mass(g, out=slot) for g, slot in zip(grids, slots)]
        assert all(m is slot for m, slot in zip(mats, slots))
        base = KroneckerOperator(nt, ns, [(1.0, W_t, sdata.mass())])
        terms = [(0.5 + t, M_t, m) for t, m in enumerate(mats)]
        op = base.plus(terms)
        (space, _) = op._stacks[-1]
        assert np.shares_memory(space, slots[0].data)
        copied = base.plus(terms[::-1])
        assert not np.shares_memory(copied._stacks[-1][0], slots[0].data)
        ref = [(c, t, sdata.mass(g)) for (c, t, _), g in zip(terms, grids)]
        assert not np.shares_memory(base.plus(ref)._stacks[-1][0], slots[0].data)
        x = rng.standard_normal(st.num_dof)
        want = base.plus(ref).matvec(x)
        assert np.array_equal(op.matvec(x), want)
        scale = np.abs(want).max()
        assert_allclose(copied.matvec(x), want, rtol=0, atol=1e-14 * scale)
        for m, g in zip(mats, grids):
            assert np.array_equal(m.toarray(), sdata.mass(g).toarray())

    def test_dimension_mismatch(self):
        op = KroneckerOperator(2, 2, [(1.0, sp.identity(2), band_matrix(np.eye(2)))])
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.matvec(np.zeros(5))
