"""Tests for the univariate and space-time spline spaces."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from monoiga.bspline import (
    KnotVector,
    SpaceTimeSpace,
    SplineSpace,
    uniform_open_knots,
)
from oracles import scalar_basis_ders, support_extension


def make_space_time(d=1, p=2, elements=4, p_t=None, elements_t=None):
    p_t = p_t or p
    elements_t = elements_t or elements
    spatial = [SplineSpace.uniform(p, elements) for _ in range(d)]
    time = SplineSpace.uniform(p_t, elements_t)
    return SpaceTimeSpace(spatial, time)


class TestKnotVector:
    def test_dimension_and_breakpoints(self):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        assert kv.dimension == 4
        assert_allclose(kv.breakpoints, [0, 0.5, 1])
        assert kv.mesh_size == 0.5

    def test_uniform_generator(self):
        knots = uniform_open_knots(3, 4)
        kv = KnotVector(knots, 3)
        assert kv.dimension == 7
        assert kv.mesh_size == 0.25

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            KnotVector([0, 0, 0.6, 0.4, 1, 1], 1)

    def test_rejects_wrong_end_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicity"):
            KnotVector([0, 0, 0.5, 1, 1, 1], 2)

    def test_rejects_high_interior_multiplicity(self):
        with pytest.raises(ValueError, match="interior"):
            KnotVector([0, 0, 0.5, 0.5, 1, 1], 1)


class TestBasisEvaluation:
    def test_open_knot_endpoint_interpolation(self):
        space = SplineSpace.from_knots([0, 0, 0, 0.5, 1, 1, 1], 2)
        first, vals = space.eval_basis(0.0, 0)
        assert first == 0
        assert_allclose(vals, [1.0, 0.0, 0.0], atol=1e-15)
        first, vals = space.eval_basis(1.0, 0)
        assert first + 2 == space.dimension - 1
        assert_allclose(vals, [0.0, 0.0, 1.0], atol=1e-15)

    def test_hat_function_midpoint(self):
        space = SplineSpace.uniform(1, 2)
        first, vals = space.eval_basis(0.25, 0)
        assert_allclose(vals, [0.5, 0.5])

    def test_partition_of_unity_random_points(self):
        rng = np.random.default_rng(7)
        spaces = [
            SplineSpace.uniform(1, 5),
            SplineSpace.uniform(2, 4),
            SplineSpace.uniform(3, 6),
            SplineSpace.from_knots([0, 0, 0, 0.1, 0.1, 0.7, 1, 1, 1], 2),
        ]
        xs = rng.random(1000)
        for space in spaces:
            for x in xs:
                _, vals = space.eval_basis(x, 0)
                assert abs(vals.sum() - 1.0) < 1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        step = 1e-5
        for p, elems in [(2, 4), (3, 5)]:
            space = SplineSpace.uniform(p, elems)
            xs = rng.uniform(2 * step, 1 - 2 * step, 50)
            for x in xs:
                if np.min(np.abs(space.breakpoints - x)) < 2 * step:
                    continue
                f1, d1 = space.eval_basis(x, 1)
                fp, vp = space.eval_basis(x + step, 0)
                fm, vm = space.eval_basis(x - step, 0)
                assert fp == fm == f1
                fd = (vp - vm) / (2 * step)
                scale = max(np.max(np.abs(d1)), 1.0)
                assert np.max(np.abs(fd - d1)) / scale < 1e-6

    def test_out_of_domain_raises(self):
        space = SplineSpace.uniform(2, 2)
        with pytest.raises(ValueError, match="outside"):
            space.eval_basis(1.2, 0)
        with pytest.raises(ValueError, match="outside"):
            space.eval_basis(-0.1, 0)

    def test_order_above_degree_raises(self):
        space = SplineSpace.uniform(2, 2)
        with pytest.raises(ValueError, match="order"):
            space.eval_basis(0.5, 3)

    def test_collocation_matrix_rows_match_pointwise(self):
        # The batched recursion gives every point the arithmetic of a
        # one-point call and of the scalar reference, bit for bit.
        rng = np.random.default_rng(17)
        for p in range(1, 5):
            knots = np.concatenate(
                [np.zeros(p + 1), np.sort(rng.random(5)), np.ones(p + 1)]
            )
            for space in (SplineSpace.uniform(p, 4), SplineSpace.from_knots(knots, p)):
                pts = np.concatenate(
                    [[0.0, 1.0], space.breakpoints, np.linspace(0, 1, 17), rng.random(9)]
                )
                for order in range(p + 2):
                    C = space.collocation_matrix(pts, order)
                    for m, x in enumerate(pts):
                        row = np.zeros(space.dimension)
                        if order <= p:
                            first, vals = space.eval_basis(x, order)
                            row[first : first + p + 1] = vals
                            ref_first, ref = scalar_basis_ders(space.knots, p, x, order)
                            assert ref_first == first
                            assert_array_equal(vals, ref[order])
                        assert_array_equal(C[m], row)


class TestGreville:
    def test_single_interior_knot_p2(self):
        space = SplineSpace.from_knots([0, 0, 0, 0.5, 1, 1, 1], 2)
        assert_allclose(space.greville(), [0, 0.25, 0.75, 1])

    def test_p1_gives_breakpoints(self):
        space = SplineSpace.uniform(1, 4)
        assert_allclose(space.greville(), space.breakpoints)

    def test_p3_single_interior_knot(self):
        space = SplineSpace.from_knots(
            [0, 0, 0, 0, 0.5, 1, 1, 1, 1], 3
        )
        assert_allclose(space.greville(), [0, 1 / 6, 1 / 2, 5 / 6, 1])

    def test_monotone_in_unit_interval(self):
        for p, e in [(1, 7), (2, 5), (4, 3)]:
            g = SplineSpace.uniform(p, e).greville()
            assert g[0] == 0.0 and g[-1] == 1.0
            assert np.all(np.diff(g) >= 0)

    def test_linear_precision(self):
        rng = np.random.default_rng(11)
        for p, e in [(2, 4), (3, 6)]:
            space = SplineSpace.uniform(p, e)
            g = space.greville()
            for x in rng.random(200):
                first, vals = space.eval_basis(x, 0)
                recon = vals @ g[first : first + p + 1]
                assert abs(recon - x) < 1e-12


class TestSpaceTime:
    def test_dimensions(self):
        st = make_space_time(d=2, p=2, elements=3)
        assert st.num_space == 5 * 5
        assert st.num_time == 4
        assert st.num_dof == st.num_space * st.num_time

    def test_constrained_basis_vanishes_at_zero(self):
        st = make_space_time(d=1, p=3, elements=5)
        vals = st.time_collocation([0.0], 0)
        assert np.all(vals == 0.0)

    def test_rejects_reduced_time_smoothness(self):
        spatial = [SplineSpace.uniform(2, 3)]
        time = SplineSpace.from_knots([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2)
        with pytest.raises(ValueError, match="smoothness"):
            SpaceTimeSpace(spatial, time)

    def test_support_extension_interior_width(self):
        p, elems = 2, 16
        st = make_space_time(d=1, p=p, elements=elems)
        h = 1.0 / elems
        box = support_extension(st, (8,), 8)
        lo, hi = box[0]
        assert_allclose(hi - lo, (2 * p + 1) * h, atol=1e-14)

    def test_support_extension_first_index_clamps(self):
        st = make_space_time(d=1, p=2, elements=4)
        box = support_extension(st, (0,), 0)
        assert box[0][0] == 0.0
        assert box[1][0] == 0.0

    def test_support_extension_enumerated_windows(self):
        st = make_space_time(d=1, p=2, elements=4)
        box = support_extension(st, (2,), 2)
        assert_allclose(box[0], (0.0, 0.75))
        assert_allclose(box[1], (0.0, 0.75))

    def test_support_extension_out_of_range(self):
        st = make_space_time(d=1, p=2, elements=4)
        with pytest.raises(IndexError):
            support_extension(st, (99,), 0)
        with pytest.raises(IndexError):
            support_extension(st, (0,), 99)

    def test_window_elements(self):
        space = SplineSpace.uniform(2, 4)
        assert space.window_elements(2) == (0, 3)
        assert space.window_elements(0) == (0, 1)
        assert space.window_elements(1) == (0, 2)
        assert space.window_elements(5) == (1, 4)
