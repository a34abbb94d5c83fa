"""Tests for the spline geometry maps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from monoiga import tensorops
from monoiga.assembly import QuadratureRule
from monoiga.bspline import SplineSpace
from monoiga.geometry import (
    GeometryError,
    GeometryMap,
    box_geometry,
    builtin_geometry,
    ellipse_annulus_geometry,
    jacobian_det,
    load_geometry,
    save_geometry,
)
from oracles import fd_gradient


def test_unit_square_is_identity():
    geo = builtin_geometry("unit_square")
    pts = np.array([[0.2, 0.7], [0.0, 0.0], [1.0, 0.3]])
    assert_allclose(geo.evaluate(pts), pts, atol=1e-14)
    jac = geo.jacobian(pts)
    for J in jac:
        assert_allclose(J, np.eye(2), atol=1e-14)
    assert_allclose(geo.hessian(pts), 0.0, atol=1e-14)


def test_unit_cube_identity_jacobian():
    geo = builtin_geometry("unit_cube")
    pts = np.random.default_rng(0).random((5, 3))
    jac = geo.jacobian(pts)
    for J in jac:
        assert_allclose(J, np.eye(3), atol=1e-14)


def test_affine_scaling_jacobian_and_det():
    geo = box_geometry([2.0, 2.0])
    pts = np.array([[0.3, 0.6]])
    assert_allclose(geo.evaluate(pts), [[0.6, 1.2]], atol=1e-14)
    J = geo.jacobian(pts)[0]
    assert_allclose(J, 2.0 * np.eye(2), atol=1e-14)
    assert_allclose(np.linalg.det(J), 4.0)


def test_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown geometry"):
        builtin_geometry("torus")


class TestEllipseAnnulus:
    geo = builtin_geometry("ellipse_annulus")

    @staticmethod
    def _implicit(pts, axes):
        a, b = axes
        return pts[:, 0] ** 2 / a**2 + pts[:, 1] ** 2 / b**2 - 1.0

    def test_inner_boundary_on_inner_ellipse(self):
        eta1 = np.linspace(0, 1, 33)
        pts = self.geo.evaluate(np.column_stack([eta1, np.zeros_like(eta1)]))
        assert np.max(np.abs(self._implicit(pts, (0.375, 0.0625)))) < 0.05
        # distance check: max deviation from the ellipse below 1e-3
        theta = np.arctan2(pts[:, 1] / 0.0625, pts[:, 0] / 0.375)
        ref = np.column_stack([0.375 * np.cos(theta), 0.0625 * np.sin(theta)])
        assert np.max(np.linalg.norm(pts - ref, axis=1)) < 1e-3

    def test_outer_boundary_midpoint(self):
        pts = self.geo.evaluate(np.array([[0.5, 1.0]]))
        theta = np.arctan2(pts[:, 1] / 0.125, pts[:, 0] / 0.75)
        ref = np.column_stack([0.75 * np.cos(theta), 0.125 * np.sin(theta)])
        assert np.max(np.linalg.norm(pts - ref, axis=1)) < 1e-3

    def test_inner_midpoint_matches_spec_point(self):
        # Angular midpoint of the inner boundary sits on the inner ellipse.
        pts = self.geo.evaluate(np.array([[0.5, 0.0]]))
        assert abs(self._implicit(pts, (0.375, 0.0625))[0]) < 0.05
        assert abs(pts[0, 0] + 0.375) < 1e-3 and abs(pts[0, 1]) < 1e-3

    def test_jacobian_positive_everywhere(self):
        assert self.geo.check_bijective() > 0

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.05, 0.95, size=(10, 2))
        jac = self.geo.jacobian(pts)
        for q in range(pts.shape[0]):
            fd = fd_gradient(lambda e: self.geo.evaluate(e[None])[0], pts[q])
            scale = max(np.max(np.abs(jac[q])), 1.0)
            assert np.max(np.abs(fd - jac[q])) / scale < 1e-6

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.05, 0.95, size=(6, 2))
        hess = self.geo.hessian(pts)
        for q in range(pts.shape[0]):
            for c in range(2):
                fd = fd_gradient(
                    lambda e: self.geo.jacobian(e[None])[0, c], pts[q], step=1e-5
                )
                scale = max(np.max(np.abs(hess[q, c])), 1.0)
                assert np.max(np.abs(fd - hess[q, c])) / scale < 1e-5

    def test_scattered_points_match_grid_data(self):
        axes = [np.linspace(0.0, 1.0, 11), np.array([0.0, 0.3, 0.75, 1.0])]
        mesh = np.meshgrid(axes[1], axes[0], indexing="ij")
        pts = np.column_stack([mesh[1].reshape(-1), mesh[0].reshape(-1)])
        for order, fn in enumerate(
            (self.geo.evaluate, self.geo.jacobian, self.geo.hessian)
        ):
            grid = self.geo.tabulate(axes, order)
            ref = grid.reshape((pts.shape[0],) + grid.shape[2:])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(fn(pts) - ref)) <= 1e-12 * scale

    def test_boundaries_share_one_collocation(self, monkeypatch):
        calls = []
        tabulate = SplineSpace.collocation_matrix

        def counted(space, points, order=0):
            calls.append(len(points))
            return tabulate(space, points, order)

        monkeypatch.setattr(SplineSpace, "collocation_matrix", counted)
        geo = ellipse_annulus_geometry()
        assert calls == [4096]
        assert np.array_equal(geo.control_points, self.geo.control_points)

    def test_point_outside_unit_box_raises(self):
        for bad in ([[0.5, 1.2]], [[-0.1, 0.5]], [[np.nan, 0.5]]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                self.geo.evaluate(np.array(bad))


def test_boxes_jacobian_positive():
    for name in ("unit_interval", "unit_square", "unit_cube"):
        assert builtin_geometry(name).check_bijective() > 0


def test_singular_jacobian_detected():
    jac = np.zeros((1, 2, 2))
    with pytest.raises(GeometryError, match="singular"):
        jacobian_det(jac)


def test_orientation_reversing_map_is_valid():
    geo = builtin_geometry("unit_square")
    mirrored = GeometryMap(geo.spaces, geo.control_points[:, ::-1])
    axes = [np.linspace(0.1, 0.9, 5)] * 2
    assert_allclose(jacobian_det(mirrored.tabulate(axes, 1)), -1.0)


def folded_square():
    # A degree-2 square with its centre control point pulled out past the
    # corner: det J takes both signs.
    geo = box_geometry([1.0, 1.0], degree=2)
    ctrl = geo.control_points.copy()
    ctrl[4] = [3.0, 3.0]
    return GeometryMap(geo.spaces, ctrl)


def test_folded_map_detected():
    axes = [QuadratureRule.for_space(SplineSpace.uniform(2, 8)).points] * 2
    with pytest.raises(GeometryError, match="Jacobian determinant changes sign"):
        jacobian_det(folded_square().tabulate(axes, 1))


@pytest.mark.parametrize("budget", [1, 2**40])
def test_measure_checks_the_whole_grid(monkeypatch, budget):
    # Slabs of one row each see one sign of det J at a time; the fold is
    # still found, with the grid's own range in the message.
    monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
    rule = QuadratureRule.for_space(SplineSpace.uniform(2, 8))
    axes = [rule.points] * 2
    weights = [rule.flat_weights] * 2
    det = np.linalg.det(folded_square().jacobian(
        np.column_stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="xy")])
    ))
    message = "changes sign \\(from %.3g to %.3g\\)" % (det.min(), det.max())
    with pytest.raises(GeometryError, match=message):
        folded_square().measure(axes, weights)
    singular = GeometryMap(folded_square().spaces, np.zeros((9, 2)))
    with pytest.raises(GeometryError, match="singular"):
        singular.measure(axes, weights)


@pytest.mark.parametrize("budget", [1, 100, 2**40])
def test_measure_is_weights_times_abs_det(monkeypatch, budget):
    monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
    geo = builtin_geometry("ellipse_annulus")
    mirrored = GeometryMap(geo.spaces, geo.control_points[:, ::-1])
    rules = [QuadratureRule.for_space(SplineSpace.uniform(3, n)) for n in (7, 3)]
    axes = [r.points for r in rules]
    weights = [r.flat_weights for r in rules]
    wgrid = np.multiply.outer(weights[1], weights[0])
    for g in (geo, mirrored):
        ref = wgrid * np.abs(jacobian_det(g.tabulate(axes, 1)))
        assert_allclose(g.measure(axes, weights), ref, rtol=1e-15, atol=0)


def warped_cube():
    """A degree-2 map of the unit cube whose middle control point is moved."""
    geo = box_geometry([1.0, 1.0, 1.0], degree=2)
    ctrl = geo.control_points.copy()
    ctrl[13] += [0.1, -0.05, 0.08]
    return GeometryMap(geo.spaces, ctrl)


@pytest.mark.parametrize("geometry", ["annulus", "cube"])
def test_measure_slabs_hold_at_most_the_budget_in_values(monkeypatch, geometry):
    # A slab's Jacobians hold d^2 values per point, and the budget counts
    # values: one row of the grid per slab at the smallest budget that fits
    # one, and the whole grid at an unbounded one.  Slabs of one row give
    # the same measure bit for bit; the whole grid differs in the last bits
    # only (its slowest direction is contracted by one matrix product
    # instead of one per row).
    if geometry == "annulus":
        geo = builtin_geometry("ellipse_annulus")
        rules = [QuadratureRule.for_space(SplineSpace.uniform(3, n)) for n in (7, 3)]
    else:
        geo = warped_cube()
        rules = [QuadratureRule.for_space(SplineSpace.uniform(2, n)) for n in (5, 4, 3)]
    axes = [r.points for r in rules]
    weights = [r.flat_weights for r in rules]
    d = geo.dim
    row = np.prod([a.size for a in axes[:-1]])
    tabulated = []
    tabulate = GeometryMap.tabulate

    def recording(self, slab, order=0, tables=None):
        out = tabulate(self, slab, order, tables)
        tabulated.append(out.size)
        return out

    monkeypatch.setattr(GeometryMap, "tabulate", recording)
    measures = []
    for budget in (1, row * d * d, 2**40):
        monkeypatch.setattr(tensorops, "SLAB_POINTS", budget)
        tabulated.clear()
        measures.append(geo.measure(axes, weights))
        if budget == 2**40:
            assert tabulated == [row * axes[-1].size * d * d]
        else:
            assert tabulated == [row * d * d] * axes[-1].size
    assert np.array_equal(measures[0], measures[1])
    assert_allclose(measures[0], measures[2], rtol=1e-15, atol=0)


def test_check_bijective_accepts_orientation_reversal():
    geo = builtin_geometry("unit_square")
    mirrored = GeometryMap(geo.spaces, geo.control_points[:, ::-1])
    assert mirrored.check_bijective() == pytest.approx(1.0, rel=1e-14)


def test_check_bijective_rejects_fold():
    with pytest.raises(GeometryError, match="Jacobian determinant changes sign"):
        folded_square().check_bijective()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_det_matches_lu(d):
    # Well-conditioned random Jacobians of both orientations.
    rng = np.random.default_rng(10 + d)
    jac = np.eye(d) + 0.4 * rng.standard_normal((7, 5, d, d))
    jac[..., 0, :] *= np.sign(np.linalg.det(jac))[..., None]
    for sign in (1.0, -1.0):
        signed = jac.copy()
        signed[..., 0, :] *= sign
        assert_allclose(jacobian_det(signed), np.linalg.det(signed), rtol=1e-13)


def test_geometry_file_round_trip(tmp_path):
    geo = ellipse_annulus_geometry(angular_elements=8)
    path = tmp_path / "annulus.txt"
    save_geometry(geo, path)
    loaded = load_geometry(path, final_time=2.5)
    assert loaded.final_time == 2.5
    assert_allclose(loaded.control_points, geo.control_points, atol=1e-15)
    pts = np.random.default_rng(2).random((7, 2))
    assert_allclose(loaded.evaluate(pts), geo.evaluate(pts), atol=1e-14)


def _edit(index, text, message):
    """A case with line ``index`` replaced by ``text`` (appended past the end)."""
    return pytest.param((index, text), message, id="line%d=%s" % (index, text))


@pytest.mark.parametrize(
    "keep,message",
    [
        (2, "has 2 lines, expected at least 5"),
        (-1, "has 3 control rows, expected 4"),
        _edit(9, "1 1", "has 5 control rows, expected 4"),
        _edit(0, "-1", "dimension must be positive, got -1"),
        _edit(0, "0", "dimension must be positive, got 0"),
        _edit(0, "2 2", "dimension line has 2 entries, expected 1"),
        _edit(1, "1", "degree line has 1 entries, expected 2"),
        _edit(1, "1 x", "degree line: invalid literal"),
        _edit(2, "99 4", "knot line has 4 entries, expected 99"),
        _edit(3, "1 1 0 0", "direction 1: knots must be nondecreasing"),
        _edit(8, "1 1 7", "control point line has 3 entries, expected 2"),
    ],
)
def test_truncated_geometry_file_raises(tmp_path, keep, message):
    # ``keep`` lines are kept, or one line is edited.
    path = tmp_path / "square.txt"
    save_geometry(builtin_geometry("unit_square"), path)
    lines = path.read_text().splitlines()
    if isinstance(keep, tuple):
        index, text = keep
        lines[index : index + 1] = [text]
    else:
        lines = lines[:keep]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GeometryError, match=message):
        load_geometry(path)
