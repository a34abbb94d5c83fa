"""Tests for the upwind weights, residual indicator and stabilizer assembly."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.interpolate import RegularGridInterpolator

from monoiga.assembly import (
    QuadratureRule,
    SpatialQuadratureData,
    TimeQuadratureData,
    iterate_on_grid,
    spatial_operators,
)
from monoiga import linalg, tensorops
from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import builtin_geometry
from monoiga.linalg import FastDiagPreconditioner, gmres
from monoiga.solver import FixedPointConfig, MonodomainProblem, _Workspace
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
    dense_basis_values,
    dense_univariate,
    dense_weighted_space_time_mass,
    field_derivatives,
    strong_residual,
    support_extension,
)

RNG = np.random.default_rng(2024)


def make_problem(d=1, p=2, elements=4, final_time=1.0, source=None, **kw):
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p, elements)
    st = SpaceTimeSpace(spatial, time)
    names = {1: "unit_interval", 2: "unit_square", 3: "unit_cube"}
    geo = builtin_geometry(names[d], final_time=final_time)
    return MonodomainProblem(geometry=geo, space=st, source=source, **kw)


def indicator_of(st, values):
    return ResidualIndicator(
        values,
        st.time_greville(),
        [s.greville() for s in st.spatial],
        st.spatial_shape,
    )


def stabilizer_terms(lr, tau, st, geo):
    """The operator terms of ``lr``'s stabilizer (diagonals in the unit basis)."""
    eye = [np.eye(s.dimension) for s in st.spatial]
    return assemble_stabilization(lr, StabilizationGrid(tau, st, geo), 1.0, eye)[0]


def tau_constraint_residual(tau, time_space):
    """Re-derive the defining conditions with an independent dense rule."""
    p = time_space.degree
    nt = time_space.dimension - 1
    rule = QuadratureRule.for_space(time_space, npoints=3 * p + 2)
    pts = rule.points
    w = rule.flat_weights
    basis = [dense_basis_values(time_space, pts, k)[:, 1:] for k in range(p + 1)]
    worst = 0.0
    scale = 0.0
    for i in range(nt - 1):
        for ell in range(1, min(p, nt - 1 - i) + 1):
            j = i + ell
            target = np.sum(w * basis[1][:, j] * basis[0][:, i])
            total = target
            for k in range(1, p + 1):
                tv = tau.evaluate(k, pts)
                total += np.sum(w * tv * basis[k][:, j] * basis[k][:, i])
            worst = max(worst, abs(total))
            scale = max(scale, abs(target))
    return worst / max(scale, 1e-300)


class TestUpwindWeights:
    def test_classical_upwind_limit(self):
        for elements in (4, 9, 16):
            space = SplineSpace.uniform(1, elements)
            tau = compute_tau(space)
            h = 1.0 / elements
            mids = (np.arange(elements) + 0.5) / elements
            vals = tau.evaluate(1, mids)
            assert np.max(np.abs(vals[1:] - h / 2)) < 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("elements", [4, 8, 17])
    def test_defining_conditions_hold(self, p, elements):
        space = SplineSpace.uniform(p, elements)
        tau = compute_tau(space)
        assert tau.residual <= 1e-10
        assert tau_constraint_residual(tau, space) <= 1e-10

    def test_nonuniform_mesh(self):
        space = SplineSpace.from_knots(
            [0, 0, 0, 0.1, 0.25, 0.7, 0.85, 1, 1, 1], 2
        )
        tau = compute_tau(space)
        assert tau_constraint_residual(tau, space) <= 1e-10

    def test_interior_translation_invariance(self):
        # Boundary effects decay geometrically; deep interior coefficients
        # repeat to high accuracy on a uniform mesh.
        space = SplineSpace.uniform(2, 56)
        tau = compute_tau(space)
        for k in (1, 2):
            c = tau.coeffs[k - 1]
            interior = c[18:-18]
            assert interior.size >= 10
            assert np.max(np.abs(interior - interior[0])) < 1e-10

    def test_min_value_diagnostic(self):
        tau = compute_tau(SplineSpace.uniform(2, 8))
        bp = tau.time_space.breakpoints
        pts = np.concatenate(
            [np.linspace(a, b, 8, endpoint=False) for a, b in zip(bp[:-1], bp[1:])]
            + [np.array([1.0])]
        )
        mins = np.array([tau.evaluate(k, pts).min() for k in (1, 2)])
        assert mins.shape == (2,)


class TestStrongResidual:
    def test_resting_state_solves_pde(self):
        problem = make_problem(d=1, p=2, elements=3)
        z = np.zeros(problem.space.num_dof)
        pts = RNG.random((20, 2))
        res = strong_residual(problem, z, z, pts)
        assert np.max(np.abs(res)) == 0.0

    def test_equilibrium_state_away_from_initial_layer(self):
        # All-one coefficients represent u = 1 beyond the first temporal
        # element, where every term of the residual vanishes.
        problem = make_problem(d=1, p=2, elements=4)
        st = problem.space
        ones = np.ones(st.num_dof)
        pts = np.column_stack([RNG.random(20), RNG.uniform(0.3, 1.0, 20)])
        res = strong_residual(problem, ones, np.zeros(st.num_dof), pts)
        assert np.max(np.abs(res)) < 1e-12

    def test_manufactured_interpolant_consistency(self):
        from monoiga.experiments import make_source, manufactured_exact_1d

        constants = {"C_m": 1.0, "D": 1e-4, "c1": 0.26, "a": 0.13}
        source = make_source("manufactured_1d", 1.0, constants)
        p = 2
        samples = RNG.uniform(0.15, 0.85, (30, 2))
        maxima = []
        for elements in (8, 16, 32):
            problem = make_problem(
                d=1, p=p, elements=elements, source=source, D=1e-4
            )
            st = problem.space
            gs = st.spatial[0].greville()
            gt = st.time_greville()
            vals = manufactured_exact_1d(
                np.tile(gs, gt.size), np.repeat(gt, gs.size)
            ).reshape(gt.size, gs.size)
            Ct = st.time_collocation(gt, 0)
            Cs = st.spatial[0].collocation_matrix(gs, 0)
            coeffs = np.linalg.solve(Ct, vals) @ np.linalg.inv(Cs).T
            res = strong_residual(
                problem, coeffs.reshape(-1), np.zeros(st.num_dof), samples
            )
            maxima.append(np.max(np.abs(res)))
        orders = np.log2(np.array(maxima[:-1]) / np.array(maxima[1:]))
        assert np.all(orders > p - 1 - 0.5)


class TestResidualIndicator:
    def test_zero_state_zero_source(self):
        problem = make_problem(d=1, p=2, elements=4)
        z = np.zeros(problem.space.num_dof)
        theta = compute_theta(problem, z, z)
        assert np.all(theta.values == 0.0)
        assert theta.values.shape == (
            problem.space.num_time,
            problem.space.num_space,
        )

    def test_saturated_residual_clamps_to_one(self):
        problem = make_problem(
            d=1, p=2, elements=4, source=lambda x, t: 1e6 * np.ones(t.shape)
        )
        st = problem.space
        u = 1e-3 * RNG.standard_normal(st.num_dof)
        theta = compute_theta(problem, u, np.zeros(st.num_dof))
        assert np.all(theta.values == 1.0)

    def test_zero_denominator_activates_and_is_recorded(self):
        problem = make_problem(
            d=1,
            p=2,
            elements=16,
            source=lambda x, t: np.where(t < 0.1, 1.0, 0.0),
        )
        z = np.zeros(problem.space.num_dof)
        theta = compute_theta(problem, z, z)
        assert theta.denominator_vanished
        u = 1e-3 * RNG.standard_normal(problem.space.num_dof)
        assert not compute_theta(problem, u, z).denominator_vanished
        assert set(np.unique(theta.values)) <= {0.0, 1.0}
        assert theta.values.max() == 1.0
        assert theta.values.min() == 0.0

    def test_entries_in_unit_interval_and_source_monotonicity(self):
        # With a source that dominates the iterate's own residual, scaling
        # the source by 10 can only push the indicator up.
        def src(scale):
            return lambda x, t: scale * np.exp(-t) * (1.0 + x[:, 0])

        st_kw = dict(d=1, p=2, elements=5)
        base = make_problem(source=src(1.0), **st_kw)
        st = base.space
        u = 1e-3 * RNG.standard_normal(st.num_dof)
        w = 1e-3 * RNG.standard_normal(st.num_dof)
        theta1 = compute_theta(base, u, w)
        assert np.all(theta1.values >= 0.0) and np.all(theta1.values <= 1.0)
        scaled = make_problem(source=src(10.0), **st_kw)
        theta10 = compute_theta(scaled, u, w)
        assert np.all(theta10.values >= theta1.values - 1e-14)

    @pytest.mark.parametrize(
        "geometry, elements",
        [("ellipse_annulus", [4, 2]), ("unit_cube", [2, 2, 2])],
    )
    def test_matches_pointwise_oracle(self, geometry, elements):
        # Independent route: the strong residual by scattered evaluation at
        # every Gauss point, and each entry's maximum over the elements that
        # intersect its basis function's support extension.
        spatial = [SplineSpace.uniform(2, n) for n in elements]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 3))
        geo = builtin_geometry(geometry, final_time=2.0)
        problem = MonodomainProblem(
            geometry=geo, space=st, source=lambda x, t: 1e-3 * np.exp(-t) * x[:, 0]
        )
        rng = np.random.default_rng(8)
        u = 0.1 * rng.standard_normal(st.num_dof)
        w = 0.1 * rng.standard_normal(st.num_dof)
        theta = compute_theta(problem, u, w)

        rules = [QuadratureRule.for_space(s) for s in spatial + [st.time]]
        mesh = np.meshgrid(*[r.points for r in rules], indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        absres = np.abs(strong_residual(problem, u, w, pts)).reshape(mesh[0].shape)
        fields = field_derivatives(st, geo, u, pts)
        denom = problem.C_m * (
            np.max(np.abs(fields["value"])) / geo.final_time
            + np.max(np.abs(fields["dt"]))
        )
        # Left and right ends of the element holding each point, per axis.
        ends = [
            (np.repeat(r.cells[:-1], r.npoints), np.repeat(r.cells[1:], r.npoints))
            for r in rules
        ]
        expected = np.empty((st.num_time, st.num_space))
        for c in range(st.num_time):
            for index in itertools.product(*[range(s.dimension) for s in spatial]):
                box = support_extension(st, index, c)
                masks = [
                    (left < hi) & (right > lo)
                    for (left, right), (lo, hi) in zip(ends, box)
                ]
                numer = absres[np.ix_(*masks)].max()
                flat = np.ravel_multi_index(index[::-1], st.spatial_shape)
                expected[c, flat] = min(numer / denom, 1.0)
        assert np.any((expected > 0.01) & (expected < 0.99))
        assert np.max(np.abs(theta.values - expected)) <= 1e-14

    def test_peak_memory_is_a_few_space_time_grids(self):
        # The Laplacian table is built once per grid, so an indicator call
        # holds the iterate's fields and one derivative at a time.
        problem = make_problem(
            d=3, p=2, elements=6, source=lambda x, t: np.exp(-t) * x[:, 0]
        )
        st = problem.space
        sdata = SpatialQuadratureData(st.spatial, problem.geometry)
        tdata = TimeQuadratureData(st, problem.final_time)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(st.num_dof)
        w = rng.standard_normal(st.num_dof)
        compute_theta(problem, u, w, sdata, tdata)
        tracemalloc.start()
        try:
            compute_theta(problem, u, w, sdata, tdata)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid_bytes = tdata.points.size * sdata.measure.size * 8
        assert peak <= 10 * grid_bytes

    def test_peak_memory_is_a_few_slabs(self):
        # Given the solver's grid evaluation, an indicator call forms the
        # time derivative, the Laplacian and the residual one slab of
        # temporal elements at a time; beyond the slabs it holds only the
        # Laplacian on the spatial grid, one value per temporal function and
        # spatial point (N_t Q_s), and one spatial contraction at a time.
        spatial = [SplineSpace.uniform(2, 8)] * 3
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 16))
        geo = builtin_geometry("unit_cube", final_time=2.0)
        problem = MonodomainProblem(
            geometry=geo, space=st, source=lambda x, t: np.exp(-t) * x[:, 0]
        )
        sdata = SpatialQuadratureData(st.spatial, geo)
        tdata = TimeQuadratureData(st, geo.final_time)
        slabs = tdata.slabs(sdata.measure.size)
        assert len(slabs) >= 4
        rng = np.random.default_rng(6)
        u = rng.standard_normal(st.num_dof)
        w = rng.standard_normal(st.num_dof)
        on_grid = iterate_on_grid(st, u, w, tdata.c0, sdata.c0)
        compute_theta(problem, u, w, sdata, tdata, on_grid)
        tracemalloc.start()
        try:
            compute_theta(problem, u, w, sdata, tdata, on_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab_bytes = max(s.stop - s.start for s in slabs) * sdata.measure.size * 8
        spatial_bytes = st.num_time * sdata.measure.size * 8
        assert peak <= 6 * slab_bytes + 3 * spatial_bytes
        assert peak < on_grid.u.nbytes

    @pytest.mark.parametrize(
        "geometry, elements", [("ellipse_annulus", [6, 3]), ("unit_cube", [3, 2, 3])]
    )
    def test_slabbed_and_single_slab_indicators_agree(
        self, monkeypatch, geometry, elements
    ):
        spatial = [SplineSpace.uniform(2, n) for n in elements]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(2, 6))
        geo = builtin_geometry(geometry, final_time=2.0)
        problem = MonodomainProblem(
            geometry=geo, space=st, source=lambda x, t: 1e-2 * np.exp(-t) * x[:, 0]
        )
        sdata = SpatialQuadratureData(st.spatial, geo)
        tdata = TimeQuadratureData(st, geo.final_time)
        rng = np.random.default_rng(9)
        u = 0.1 * rng.standard_normal(st.num_dof)
        w = 0.1 * rng.standard_normal(st.num_dof)
        values = []
        for budget in (1, 2 * tdata.rule.npoints * sdata.measure.size, 2**40):
            monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
            values.append(compute_theta(problem, u, w, sdata, tdata).values)
        assert len(tdata.slabs(sdata.measure.size)) == 1
        assert np.any((values[-1] > 0.01) & (values[-1] < 0.99))
        for slabbed in values[:-1]:
            assert np.max(np.abs(slabbed - values[-1])) <= 1e-14


class TestLowRank:
    def test_rank_one_recovered_exactly(self):
        a = np.abs(RNG.standard_normal(6))
        b = np.abs(RNG.standard_normal(10))
        st_values = np.outer(a, b)
        st = make_problem(d=1, p=2, elements=4).space
        theta = indicator_of(st, RNG.random((st.num_time, st.num_space)))
        theta.values = st_values
        lr = lowrank_factorize(theta, 0.1)
        assert lr.rank == 1
        recon = (lr.time_factors * lr.weights) @ lr.space_factors.T
        assert np.max(np.abs(recon - st_values)) < 1e-12

    def test_small_tail_truncates_to_rank_one(self):
        u, _ = np.linalg.qr(RNG.standard_normal((8, 2)))
        v, _ = np.linalg.qr(RNG.standard_normal((12, 2)))
        values = 1.0 * np.outer(u[:, 0], v[:, 0]) + 0.05 * np.outer(u[:, 1], v[:, 1])
        theta = ResidualIndicator(values, np.linspace(0, 1, 8), [np.linspace(0, 1, 12)], (12,))
        lr = lowrank_factorize(theta, 0.1)
        assert lr.rank == 1

    def test_tight_tolerance_full_reconstruction(self):
        values = RNG.random((5, 7))
        theta = ResidualIndicator(values, np.linspace(0, 1, 5), [np.linspace(0, 1, 7)], (7,))
        lr = lowrank_factorize(theta, 1e-14)
        recon = (lr.time_factors * lr.weights) @ lr.space_factors.T
        assert np.max(np.abs(recon - values)) < 1e-12

    def test_zero_matrix_gives_rank_zero(self):
        theta = ResidualIndicator(
            np.zeros((4, 6)), np.linspace(0, 1, 4), [np.linspace(0, 1, 6)], (6,)
        )
        lr = lowrank_factorize(theta, 0.1)
        assert lr.rank == 0
        assert not np.any((lr.time_factors * lr.weights) @ lr.space_factors.T)

    @pytest.mark.parametrize("tol", [0.1, 0.35])
    def test_tolerance_contract_and_minimality(self, tol):
        for trial in range(5):
            values = RNG.random((6, 9))
            theta = ResidualIndicator(
                values, np.linspace(0, 1, 6), [np.linspace(0, 1, 9)], (9,)
            )
            lr = lowrank_factorize(theta, tol)
            norm = np.linalg.norm(values)
            recon = (lr.time_factors * lr.weights) @ lr.space_factors.T
            assert np.linalg.norm(values - recon) / norm <= tol
            if lr.rank > 1:
                recon = (
                    lr.time_factors[:, :-1]
                    * lr.weights[:-1]
                ) @ lr.space_factors[:, :-1].T
                assert np.linalg.norm(values - recon) / norm > tol


class TestAssembleStabilization:
    def test_rank_zero_adds_nothing(self):
        st = make_problem(d=1, p=2, elements=3).space
        geo = builtin_geometry("unit_interval")
        tau = compute_tau(st.time)
        theta = indicator_of(st, np.zeros((st.num_time, st.num_space)))
        lr = lowrank_factorize(theta, 0.1)
        eye = [np.eye(s.dimension) for s in st.spatial]
        grid = StabilizationGrid(tau, st, geo)
        assert assemble_stabilization(lr, grid, 1.0, eye) == ([], [])

    def test_uniform_indicator_reduces_to_weighted_time_mass(self):
        # With the indicator identically one and p_t = 1 the stabilizer is
        # the upwind-weighted first-derivative Gram matrix in time, tensor
        # the spatial mass; interior rows carry the classical h/2 weight.
        spatial = [SplineSpace.uniform(1, 6)]
        time = SplineSpace.uniform(1, 6)
        st = SpaceTimeSpace(spatial, time)
        geo = builtin_geometry("unit_interval")
        tau = compute_tau(st.time)
        theta = indicator_of(st, np.ones((st.num_time, st.num_space)))
        lr = lowrank_factorize(theta, 0.1)
        terms = stabilizer_terms(lr, tau, st, geo)
        total = sum(
            coef * sp.kron(tm, sm) for coef, tm, sm in terms
        ).toarray()
        tgrid = theta.time_greville
        rule = QuadratureRule.for_space(st.time, npoints=3, extra_breaks=tgrid)
        Ktau = dense_univariate(
            st.time, 1, 1, weight=lambda x: tau.evaluate(1, x), npoints=3, cells=rule.cells
        )[1:, 1:]
        M_s, _ = spatial_operators(st.spatial, geo)
        ref = np.kron(Ktau, M_s.toarray())
        assert np.max(np.abs(total - ref)) < 1e-12

        # interior rows match the classical SUPG-in-time matrix
        h = 1.0 / 6
        Kt = dense_univariate(st.time, 1, 1)[1:, 1:]
        nt = st.num_time
        for i in range(1, nt - 1):
            assert_allclose(Ktau[i], h / 2 * Kt[i], atol=1e-12)

    def test_matches_dense_oracle_small_mesh(self):
        st = make_problem(d=2, p=2, elements=3).space
        geo = builtin_geometry("unit_square")
        tau = compute_tau(st.time)
        values = RNG.random((st.num_time, st.num_space))
        theta = indicator_of(st, values)
        lr = lowrank_factorize(theta, 0.3)
        terms = stabilizer_terms(lr, tau, st, geo)
        total = sum(
            coef * sp.kron(tm, sm).toarray() for coef, tm, sm in terms
        )

        p = st.time.degree
        grevs = [s.greville() for s in st.spatial]
        extra = grevs + [theta.time_greville]
        ref = np.zeros_like(total)
        for r in range(lr.rank):
            for k in range(1, p + 1):

                def weight(pts, r=r, k=k):
                    tvals = tau.evaluate(k, pts[:, 2]) * lr.time_profile(r, pts[:, 2])
                    prof = lr.space_factors[:, r].reshape(st.spatial_shape)
                    svals = np.array(
                        [multilinear_grid(grevs, prof, [q[0:1], q[1:2]])[0, 0] for q in pts]
                    )
                    return tvals * svals

                ref += lr.weights[r] * dense_weighted_space_time_mass(
                    st,
                    geo,
                    weight,
                    npoints=p + 3,
                    extra_breaks=extra,
                    time_order=k,
                )
        scale = max(np.max(np.abs(ref)), 1e-30)
        assert np.max(np.abs(total - ref)) / scale < 1e-12

    def test_space_matrices_symmetric_and_mass_bounded(self):
        st = make_problem(d=1, p=3, elements=4).space
        geo = builtin_geometry("unit_interval")
        tau = compute_tau(st.time)
        theta = indicator_of(st, RNG.random((st.num_time, st.num_space)))
        lr = lowrank_factorize(theta, 0.2)
        terms = stabilizer_terms(lr, tau, st, geo)
        M_s, _ = spatial_operators(st.spatial, geo)
        Md = M_s.toarray()
        assert len(terms) == lr.rank
        for _, tm, sm in terms:
            Ss = sm.toarray()
            assert_allclose(Ss, Ss.T, atol=1e-14)
            assert np.all(np.abs(Ss) <= Md + 1e-12)
            Std = tm.toarray()
            assert_allclose(Std, Std.T, atol=1e-13)

    def test_uniform_indicator_stabilizer_nonnegative(self):
        spatial = [SplineSpace.uniform(1, 8)]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(1, 8))
        geo = builtin_geometry("unit_interval")
        tau = compute_tau(st.time)
        theta = indicator_of(st, np.ones((st.num_time, st.num_space)))
        lr = lowrank_factorize(theta, 0.1)
        terms = stabilizer_terms(lr, tau, st, geo)
        total = sum(
            coef * sp.kron(tm, sm) for coef, tm, sm in terms
        ).toarray()
        sym = 0.5 * (total + total.T)
        assert np.min(np.linalg.eigvalsh(sym)) > -1e-10


@pytest.mark.parametrize(
    "geometry, p, elements",
    [("ellipse_annulus", 3, [12, 2]), ("unit_cube", 2, [4, 4, 4])],
)
def test_space_profile_is_multilinear_interpolation(geometry, p, elements):
    # On the stabilizer's spatial grid, plus points outside the Greville
    # hull, the hat-matrix profile is the multilinear interpolant of the
    # factor column with query points clipped to the hull.
    spatial = [SplineSpace.uniform(p, n) for n in elements]
    st = SpaceTimeSpace(spatial, SplineSpace.uniform(p, 6))
    geo = builtin_geometry(geometry, final_time=2.0)
    grid = StabilizationGrid(compute_tau(st.time), st, geo)
    axes = [
        np.concatenate([[-0.07], r.points, [1.0, 1.2]])
        for r in grid.spatial_data.rules
    ]
    values = np.random.default_rng(11).random((st.num_time, st.num_space))
    lr = lowrank_factorize(indicator_of(st, values), 0.05)
    assert lr.rank >= 2
    coords = tuple(g for g in reversed([s.greville() for s in spatial]))
    mesh = np.meshgrid(*reversed(axes), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    pts = np.clip(pts, [c[0] for c in coords], [c[-1] for c in coords])
    for r in range(lr.rank):
        interp = RegularGridInterpolator(
            coords, lr.space_factors[:, r].reshape(st.spatial_shape), method="linear"
        )
        ref = interp(pts).reshape(mesh[0].shape)
        factor = lr.space_factors[:, r].reshape(st.spatial_shape)
        prof = multilinear_grid([s.greville() for s in spatial], factor, axes)
        assert prof.shape == tuple(a.size for a in reversed(axes))
        assert np.max(np.abs(prof - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestStabilizerDiagonals:
    @pytest.mark.parametrize(
        "geometry, p, elements",
        [("ellipse_annulus", 2, [6, 2]), ("unit_cube", 2, [3, 2, 2])],
    )
    def test_sum_factorization_matches_dense_congruence(self, geometry, p, elements):
        # d_r = diag(U^T S^s_r U) in the preconditioner's eigenbasis, with
        # U = kron U_l formed densely here only.
        spatial = [SplineSpace.uniform(p, n) for n in elements]
        st = SpaceTimeSpace(spatial, SplineSpace.uniform(p, 4))
        geo = builtin_geometry(geometry, final_time=2.0)
        grid = StabilizationGrid(compute_tau(st.time), st, geo)
        sdata = SpatialQuadratureData(st.spatial, geo)
        P = FastDiagPreconditioner.build(st, 2.0, 1.0, 1e-3, 0.03, spatial_data=sdata)
        values = np.random.default_rng(8).random((st.num_time, st.num_space))
        lr = lowrank_factorize(indicator_of(st, values), 0.05)
        assert lr.rank >= 2
        terms, precond_terms = assemble_stabilization(lr, grid, 1.0, P.eigenvectors)
        U = np.ones((1, 1))
        for U_l in P.eigenvectors:
            U = np.kron(U_l, U)
        assert len(precond_terms) == lr.rank
        for (coef, tmat, smat), (ptmat, pcoef) in zip(terms, precond_terms):
            assert ptmat is tmat
            ref = coef * np.diag(U.T @ smat.toarray() @ U)
            assert np.max(np.abs(pcoef - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("limit, factors", [(None, 1), (0, 2)])
    def test_mapped_patch_diagonals_in_both_layouts(self, monkeypatch, limit, factors):
        # One exact factor over both directions reads d_r from the assembled
        # S^s_r; separable factors (limit 0) use the sum factorization.
        if limit is not None:
            monkeypatch.setattr(linalg, "EXACT_SPACE_LIMIT", limit)
        st = SpaceTimeSpace(
            [SplineSpace.uniform(3, 5), SplineSpace.uniform(2, 2)],
            SplineSpace.uniform(2, 4),
        )
        geo = builtin_geometry("ellipse_annulus", final_time=2.0)
        grid = StabilizationGrid(compute_tau(st.time), st, geo)
        sdata = SpatialQuadratureData(st.spatial, geo)
        P = FastDiagPreconditioner.build(st, 2.0, 1.0, 1e-3, 0.03, spatial_data=sdata)
        assert len(P.eigenvectors) == factors
        U = np.ones((1, 1))
        for U_l in P.eigenvectors:
            U = np.kron(U_l, U)
        values = np.random.default_rng(9).random((st.num_time, st.num_space))
        lr = lowrank_factorize(indicator_of(st, values), 0.05)
        assert lr.rank >= 2
        terms, precond_terms = assemble_stabilization(lr, grid, 1.0, P.eigenvectors)
        for (coef, tmat, smat), (ptmat, pcoef) in zip(terms, precond_terms):
            assert ptmat is tmat
            ref = coef * np.diag(U.T @ smat.toarray() @ U)
            assert np.max(np.abs(pcoef - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_constant_indicator_on_cube_is_inverted_exactly(self):
        # A constant indicator on an affine map gives S^s = c M_s, diagonal
        # in the eigenbasis, so the preconditioner built with the operator
        # inverts it; the surrogate's alone does not.
        problem = make_problem(d=3, p=2, elements=3)
        st = problem.space
        ws = _Workspace(problem, FixedPointConfig(stabilization="spline_upwind"))
        surrogate = ws.precond
        theta = indicator_of(st, np.ones((st.num_time, st.num_space)))
        op, precond, _ = ws.system(lowrank_factorize(theta, 0.1))
        b = np.random.default_rng(4).standard_normal(st.num_dof)
        _, folded, _ = gmres(op, b, precond=precond, tol=1e-8)
        _, plain, _ = gmres(op, b, precond=surrogate, tol=1e-8)
        assert folded <= 3 < plain
