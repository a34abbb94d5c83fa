"""Spline geometry maps for the spatial domain.

A :class:`GeometryMap` carries its own tensor-product spline spaces and a
control net, mapping the parametric box ``[0, 1]^d`` onto the physical domain.
The space-time map is the spatial map paired with a linear scaling of the
temporal coordinate by the final time, which is handled analytically by the
callers.
"""

import numpy as np

from .bspline import SplineSpace, tensor_at
from .tensorops import kron_apply, outer_product_grid, slabs

__all__ = [
    "GeometryError",
    "GeometryMap",
    "builtin_geometry",
    "box_geometry",
    "load_geometry",
    "save_geometry",
]

SINGULAR_REL_TOL = 1e-12


class GeometryError(RuntimeError):
    """Raised for singular or invalid geometry maps."""


class GeometryMap:
    """Tensor-product spline map from ``[0, 1]^d`` to the physical domain.

    Parameters
    ----------
    spaces : sequence of SplineSpace
        Spline space per parametric direction (direction 1 first).
    control_points : ndarray, shape (N, d)
        Control net in colexicographic order (direction 1 fastest).
    final_time : float
        Length of the temporal interval appended by the space-time map.

    Assembly treats every map alike: operators are pulled back on Gauss
    grids, which is exact on axis-aligned affine boxes.
    """

    def __init__(self, spaces, control_points, final_time=1.0):
        self.spaces = tuple(spaces)
        self.dim = len(self.spaces)
        n = 1
        for s in self.spaces:
            n *= s.dimension
        control_points = np.asarray(control_points, dtype=float)
        if control_points.shape != (n, self.dim):
            raise ValueError(
                "control_points must have shape (%d, %d)" % (n, self.dim)
            )
        if final_time <= 0:
            raise ValueError("final_time must be positive")
        self.control_points = control_points
        self.final_time = float(final_time)
        # Control net as a grid with axes (n_d, ..., n_1, component).
        shape = tuple(s.dimension for s in reversed(self.spaces))
        self._grid = control_points.reshape(shape + (self.dim,))

    def evaluate(self, points):
        """Physical images of parametric ``points`` with shape (m, d)."""
        return self._scattered(points, 0)

    def jacobian(self, points):
        """Jacobians ``J[m, c, a] = dF_c / deta_a`` at parametric points."""
        return self._scattered(points, 1)

    def hessian(self, points):
        """Second derivatives ``H[m, c, a, b]`` at parametric points."""
        return self._scattered(points, 2)

    def _scattered(self, points, order):
        return _derivative(
            lambda orders: tensor_at(self.spaces, self._grid, points, orders),
            self.dim,
            order,
        )

    def collocations(self, axes, nders):
        """Per-direction collocation stacks of the map's spaces on a tensor grid.

        ``axes`` lists the parametric points per direction (direction 1
        first); entry ``l`` holds the orders ``0..nders`` of direction ``l``
        (see :meth:`~monoiga.bspline.SplineSpace.collocation_matrices`).
        """
        return [s.collocation_matrices(ax, nders) for s, ax in zip(self.spaces, axes)]

    def tabulate(self, axes, order=0, tables=None):
        """Values (order 0), Jacobians (1) or Hessians (2) on a tensor grid.

        ``axes`` lists the parametric points per direction (direction 1
        first).  The result is shaped grid + (d,), grid + (d, d) or
        grid + (d, d, d) with the grid axes in C order (direction d first);
        only the requested order is tabulated.  ``tables`` are the
        :meth:`collocations` of ``axes`` up to at least ``order`` when a
        caller holds them; they are tabulated here otherwise.
        """
        if tables is None:
            tables = self.collocations(axes, order)
        grid_shape = tuple(len(axes[l]) for l in reversed(range(self.dim)))

        def tabulate(orders):
            if any(o > s.degree for s, o in zip(self.spaces, orders)):
                return np.zeros(grid_shape + (self.dim,))
            mats = [table[o] for table, o in zip(tables, orders)]
            return kron_apply(mats, self._grid, axis=-2)

        return _derivative(tabulate, self.dim, order)

    def measure(self, axes, weights, tables=None):
        """Quadrature measure ``w |det J|`` on a tensor grid.

        ``axes`` and ``weights`` list the parametric points and their
        quadrature weights per direction (direction 1 first); the result has
        the grid axes of :meth:`tabulate`.  The Jacobians are tabulated and
        reduced to determinants by slabs of the slowest direction
        (:func:`~monoiga.tensorops.slabs`), so no grid of Jacobians is held;
        the checks of :func:`jacobian_det` cover the whole grid, and raise
        what it raises for the grid's determinants.  ``tables`` are as in
        :meth:`tabulate`.
        """
        if tables is None:
            tables = self.collocations(axes, 1)
        grid_shape = tuple(len(axes[l]) for l in reversed(range(self.dim)))
        out = np.empty(grid_shape)
        low, high, singular = np.inf, -np.inf, False
        for rows in slabs(grid_shape[0], out[0].size):
            slab = axes[:-1] + [axes[-1][rows]]
            det, bad = _det_singular(
                self.tabulate(slab, 1, tables[:-1] + [tables[-1][:, rows]])
            )
            low = min(low, det.min())
            high = max(high, det.max())
            singular = singular or bad
            np.abs(det, out=det)
            np.multiply(
                outer_product_grid(weights[:-1] + [weights[-1][rows]]), det, out=out[rows]
            )
        _check_determinants(low, high, singular)
        return out

    def check_bijective(self, samples_per_element=3):
        """Verify the map on a sample grid and return ``min |det J|`` there.

        The determinant and its policy are those of :func:`jacobian_det`:
        raises :class:`GeometryError` if ``det J`` changes sign (a fold) or
        is singular at a sample point; a map that reverses orientation
        everywhere is valid.
        """
        axes = []
        for s in self.spaces:
            pts = []
            for a, b in zip(s.breakpoints[:-1], s.breakpoints[1:]):
                pts.extend(np.linspace(a, b, samples_per_element + 2)[1:-1])
            axes.append(np.array(pts))
        det = jacobian_det(self.tabulate(axes, 1))
        return float(np.abs(det).min())


def _derivative(tabulate, d, order):
    """Values (order 0), Jacobians (1) or Hessians (2) of a map.

    ``tabulate(orders)`` returns the derivative of per-direction ``orders``
    with the components on the last axis; the derivative directions are
    appended after it, each derivative written once into one array.
    """
    if order == 0:
        return tabulate([0] * d)
    if order == 1:
        directions = [(a,) for a in range(d)]
    else:
        directions = [(a, b) for a in range(d) for b in range(a, d)]
    out = None
    for dirs in directions:
        orders = [0] * d
        for a in dirs:
            orders[a] += 1
        val = tabulate(orders)
        if out is None:
            out = np.empty(val.shape + (d,) * order)
        out[(Ellipsis,) + dirs] = val
        if order == 2:
            out[(Ellipsis,) + dirs[::-1]] = val
    return out


def _det(jac):
    """Closed-form determinants of stacked 1x1, 2x2 or 3x3 matrices."""
    d = jac.shape[-1]
    if d == 1:
        return jac[..., 0, 0].copy()
    if d == 2:
        return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if d == 3:
        a, b, c = (jac[..., 0, k] for k in range(3))
        e, f, g = (jac[..., 1, k] for k in range(3))
        h, i, j = (jac[..., 2, k] for k in range(3))
        return a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
    raise GeometryError("geometry maps must have 1, 2 or 3 dimensions, not %d" % d)


def jacobian_inverse(jac, det):
    """Closed-form inverses of stacked 1x1, 2x2 or 3x3 matrices.

    The adjugate over the determinants ``det`` (as :func:`jacobian_det`
    returns them for ``jac``).
    """
    d = jac.shape[-1]
    adj = np.empty_like(jac)
    if d == 1:
        adj[..., 0, 0] = 1.0
    elif d == 2:
        adj[..., 0, 0] = jac[..., 1, 1]
        adj[..., 0, 1] = -jac[..., 0, 1]
        adj[..., 1, 0] = -jac[..., 1, 0]
        adj[..., 1, 1] = jac[..., 0, 0]
    elif d == 3:
        # adj[i, j] is the cofactor of entry (j, i), in cyclic form.
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                adj[..., i, j] = (
                    jac[..., j1, i1] * jac[..., j2, i2]
                    - jac[..., j1, i2] * jac[..., j2, i1]
                )
    else:
        raise GeometryError("geometry maps must have 1, 2 or 3 dimensions, not %d" % d)
    adj /= det[..., None, None]
    return adj


def _det_singular(jac):
    """Closed-form determinants and whether any of them is singular."""
    det = _det(jac)
    # Product of the column norms, one multiply per column (a product over
    # the short last axis is a slow strided reduction).
    norms = np.sqrt(np.einsum("...ca,...ca->...a", jac, jac))
    scale = norms[..., 0].copy()
    for a in range(1, norms.shape[-1]):
        scale *= norms[..., a]
    bad = np.abs(det) < SINGULAR_REL_TOL * np.maximum(scale, 1e-300)
    return det, bool(np.any(bad))


def _check_determinants(low, high, singular):
    """Raise for determinants of both signs (a fold), then for a singular one."""
    if low < 0.0 < high:
        raise GeometryError(
            "folded geometry map: the Jacobian determinant changes sign "
            "(from %.3g to %.3g)" % (low, high)
        )
    if singular:
        raise GeometryError("singular Jacobian encountered during pull-back")


def jacobian_det(jac):
    """Determinants of stacked Jacobians, checked for folds and singularity.

    The determinants are computed in closed form (d = 1, 2, 3).
    Determinants of both signs mean the map folds over itself; a map that
    reverses orientation everywhere is valid.
    """
    det, singular = _det_singular(jac)
    _check_determinants(det.min(initial=np.inf), det.max(initial=-np.inf), singular)
    return det


def box_geometry(lengths, final_time=1.0, offsets=None, degree=1):
    """Axis-aligned box ``prod_l (o_l, o_l + L_l)`` as an affine spline map."""
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    d = lengths.size
    if offsets is None:
        offsets = np.zeros(d)
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    spaces = [SplineSpace.uniform(degree, 1) for _ in range(d)]
    grevs = [s.greville() for s in spaces]
    grids = np.meshgrid(*[g for g in reversed(grevs)], indexing="ij")
    n = grids[0].size
    ctrl = np.empty((n, d))
    for l in range(d):
        # grids axis order is (dir d, ..., dir 1)
        ctrl[:, l] = offsets[l] + lengths[l] * grids[d - 1 - l].reshape(-1)
    return GeometryMap(spaces, ctrl, final_time=final_time)


def _fit_closed_curve(C, values, seam_point):
    """Least-squares spline fit of a closed boundary curve.

    ``C`` is the collocation matrix of the curve's space at the samples of
    ``values``.  The first and last control points are pinned to
    ``seam_point`` so the fitted curve is exactly closed at the seam.
    """
    fixed = np.zeros((C.shape[1], 2))
    fixed[0] = seam_point
    fixed[-1] = seam_point
    rhs = values - C[:, [0, -1]] @ fixed[[0, -1]]
    inner, *_ = np.linalg.lstsq(C[:, 1:-1], rhs, rcond=None)
    ctrl = np.vstack([fixed[0], inner, fixed[-1]])
    return ctrl


def ellipse_annulus_geometry(
    final_time=1.0,
    outer_axes=(0.75, 0.125),
    inner_axes=(0.375, 0.0625),
    degree=2,
    angular_elements=64,
    samples_per_element=64,
):
    """Elliptic annulus: ellipse with an elliptic hole.

    Direction 1 is the angular parameter (seam on the positive x axis,
    traversed clockwise so that det J > 0), direction 2 is radial with
    ``eta_2 = 0`` on the inner ellipse and ``eta_2 = 1`` on the outer one.
    Boundary curves are least-squares fits of dense uniform samples; the
    radial coordinate is an exact linear blend through the Greville
    abscissae.
    """
    ang = SplineSpace.uniform(degree, angular_elements)
    rad = SplineSpace.uniform(degree, 1)
    m = samples_per_element * angular_elements
    eta = (np.arange(m) + 0.5) / m
    theta = -2.0 * np.pi * eta
    ao, bo = outer_axes
    ai, bi = inner_axes
    outer = np.column_stack([ao * np.cos(theta), bo * np.sin(theta)])
    inner = np.column_stack([ai * np.cos(theta), bi * np.sin(theta)])
    C = ang.collocation_matrix(eta, 0)
    q_out = _fit_closed_curve(C, outer, (ao, 0.0))
    q_in = _fit_closed_curve(C, inner, (ai, 0.0))
    gr = rad.greville()
    n1 = ang.dimension
    n2 = rad.dimension
    ctrl = np.empty((n1 * n2, 2))
    for i2 in range(n2):
        blend = (1.0 - gr[i2]) * q_in + gr[i2] * q_out
        ctrl[i2 * n1 : (i2 + 1) * n1] = blend
    return GeometryMap([ang, rad], ctrl, final_time=final_time)


def builtin_geometry(name, final_time=1.0):
    """Construct one of the shipped geometries by name.

    Supported names: ``unit_interval``, ``unit_square``, ``unit_cube``,
    ``ellipse_annulus``.
    """
    if name == "unit_interval":
        return box_geometry([1.0], final_time=final_time)
    if name == "unit_square":
        return box_geometry([1.0, 1.0], final_time=final_time)
    if name == "unit_cube":
        return box_geometry([1.0, 1.0, 1.0], final_time=final_time)
    if name == "ellipse_annulus":
        return ellipse_annulus_geometry(final_time=final_time)
    raise ValueError("unknown geometry %r" % name)


def save_geometry(geo, path):
    """Write a control-point file (plain text).

    Layout: dimension; degrees; knot counts; one knot line per direction;
    then the control points row-major in colexicographic order.
    """
    lines = [str(geo.dim)]
    lines.append(" ".join(str(s.degree) for s in geo.spaces))
    lines.append(" ".join(str(s.knots.size) for s in geo.spaces))
    for s in geo.spaces:
        lines.append(" ".join("%.17g" % k for k in s.knots))
    for row in geo.control_points:
        lines.append(" ".join("%.17g" % v for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fields(line, count, what, kind=int):
    """The ``count`` entries of a geometry-file line, parsed by ``kind``."""
    if len(line) != count:
        raise GeometryError(
            "%s line has %d entries, expected %d" % (what, len(line), count)
        )
    try:
        return [kind(v) for v in line]
    except ValueError as exc:
        raise GeometryError("%s line: %s" % (what, exc)) from exc


def load_geometry(path, final_time=1.0):
    """Read a control-point file written by :func:`save_geometry`.

    Raises :class:`GeometryError` unless the dimension is a positive integer,
    every line has the entries the header declares (``d`` degrees and knot
    counts, the counted knots per direction, ``d`` coordinates on each of
    the control rows) and each direction's knots and degree make a spline
    space.
    """
    with open(path) as fh:
        tokens = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    d = _fields(tokens[0], 1, "dimension")[0] if tokens else 0
    if tokens and d < 1:
        raise GeometryError("dimension must be positive, got %d" % d)
    # dimension, degrees, knot counts and one knot line per direction
    header = 3 + d
    if len(tokens) < header:
        raise GeometryError(
            "geometry file has %d lines, expected at least %d" % (len(tokens), header)
        )
    degrees = _fields(tokens[1], d, "degree")
    counts = _fields(tokens[2], d, "knot count")
    spaces = []
    for l in range(d):
        knots = np.array(_fields(tokens[3 + l], counts[l], "knot", float))
        try:
            spaces.append(SplineSpace.from_knots(knots, degrees[l]))
        except ValueError as exc:
            raise GeometryError("direction %d: %s" % (l + 1, exc)) from exc
    n = 1
    for s in spaces:
        n *= s.dimension
    rows = tokens[header:]
    if len(rows) != n:
        raise GeometryError(
            "geometry file has %d control rows, expected %d" % (len(rows), n)
        )
    ctrl = np.array([_fields(row, d, "control point", float) for row in rows])
    return GeometryMap(spaces, ctrl, final_time=final_time)
