"""Quadrature and Galerkin assembly for the space-time discretization.

The space-time operator is a :class:`KroneckerOperator`: a sum of scaled
Kronecker products of temporal and pulled-back spatial matrices plus an
optional correction, a reaction term applied matrix-free by
:class:`WeightedMass` (the reaction mass or its Newton derivative).
Every Gram matrix -- the temporal advection and mass, the spatial mass and
stiffness on any geometry, the preconditioner's univariate factors and the
stabilizer's factors -- is assembled by one kernel, :class:`GramKernel`
(one-off through :func:`banded_gram`), from the collocation matrices of
:class:`SpatialQuadratureData` and :class:`TimeQuadratureData`.
"""

import copy
import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .bspline import tensor_at
from .geometry import jacobian_det, jacobian_inverse
from .tensorops import kron_apply, mode_apply, slabs

__all__ = [
    "QuadratureRule",
    "GramKernel",
    "KroneckerOperator",
    "WeightedMass",
    "banded_gram",
    "evaluate_field",
    "IterateOnGrid",
    "iterate_on_grid",
    "time_matrices",
    "spatial_operators",
    "reaction_mass",
    "rhs_vectors",
]


@functools.lru_cache(maxsize=64)
def gauss_legendre(q):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


class QuadratureRule:
    """Per-element Gauss-Legendre rule over a partition of [0, 1].

    Exact for polynomials of degree ``2 q - 1`` on each cell.
    """

    def __init__(self, cells, npoints):
        cells = np.asarray(cells, dtype=float)
        if cells.size < 2 or np.any(np.diff(cells) <= 0):
            raise ValueError("cells must be strictly increasing")
        self.cells = cells
        self.npoints = int(npoints)
        x, w = gauss_legendre(self.npoints)
        a = cells[:-1][:, None]
        b = cells[1:][:, None]
        half = 0.5 * (b - a)
        self.nodes = a + half * (x[None, :] + 1.0)
        self.weights = half * w[None, :]

    @classmethod
    def for_space(cls, space, npoints=None, extra_breaks=None):
        """Rule on the mesh of ``space``; default ``degree + 1`` points."""
        cells = space.breakpoints
        if extra_breaks is not None:
            extra = np.asarray(extra_breaks, dtype=float)
            extra = extra[(extra > 0.0) & (extra < 1.0)]
            cells = np.unique(np.concatenate([cells, extra]))
        if npoints is None:
            npoints = space.degree + 1
        return cls(cells, npoints)

    @property
    def num_cells(self):
        return self.cells.size - 1

    @property
    def points(self):
        return self.nodes.reshape(-1)

    @property
    def flat_weights(self):
        return self.weights.reshape(-1)


def _half_bandwidth(test, trial):
    """Largest ``|i - j|`` with columns ``test[:, i]`` and ``trial[:, j]`` overlapping."""
    overlap = (test != 0.0).T.astype(float) @ (trial != 0.0)
    i, j = np.nonzero(overlap)
    return int(np.max(np.abs(i - j), initial=0))


def _pair_products(test, trial, band):
    """``P[q, i * (2 b + 1) + o] = test[q, i] * trial[q, i + o - b]`` (zero off range)."""
    q, n = test.shape
    padded = np.zeros((q, n + 2 * band))
    padded[:, band : band + n] = trial
    cols = np.arange(n)[:, None] + np.arange(2 * band + 1)[None, :]
    return (test[:, :, None] * padded[:, cols]).reshape(q, -1)


class GramPattern:
    """CSR pattern of a banded tensor-product Gram matrix.

    Row ``i = (i_0, i_1, ...)`` couples with column ``j`` when
    ``|i_k - j_k| <= b_k`` on every axis (axis 0 slowest).  ``select`` maps
    each stored entry, in CSR order, to its position in the flattened output
    of :meth:`GramKernel.band_values`, so assembling is one gather.
    """

    def __init__(self, sizes, bands):
        m = len(sizes)
        widths = [2 * b + 1 for b in bands]
        num_band = int(np.prod([n * w for n, w in zip(sizes, widths)]))
        itype = np.int32 if num_band < 2**31 else np.int64
        shape = tuple(sizes) + tuple(widths)
        valid = np.ones(shape, dtype=bool)
        select = np.zeros(shape, dtype=itype)
        cols = np.zeros(shape, dtype=itype)
        band_stride = 1
        col_stride = 1
        for k in reversed(range(m)):
            n, b, w = sizes[k], bands[k], widths[k]
            i = np.arange(n, dtype=itype)[:, None]
            o = np.arange(w, dtype=itype)[None, :]
            j = i + o - b
            view = [1] * (2 * m)
            view[k] = n
            view[m + k] = w
            valid &= ((j >= 0) & (j < n)).reshape(view)
            select += ((i * w + o) * band_stride).reshape(view)
            cols += (j * col_stride).reshape(view)
            band_stride *= n * w
            col_stride *= n
        rows = col_stride
        self.shape = (rows, rows)
        self.select = select[valid]
        self.indices = cols[valid]
        self.indptr = np.zeros(rows + 1, dtype=itype)
        np.cumsum(valid.reshape(rows, -1).sum(axis=1), out=self.indptr[1:])
        for arr in (self.select, self.indices, self.indptr):
            arr.flags.writeable = False

    def tocsr(self, band_values):
        """CSR matrix of the output of :meth:`GramKernel.band_values`."""
        data = np.take(band_values.reshape(-1), self.select)
        return sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=self.shape
        )


@functools.lru_cache(maxsize=8)
def gram_pattern(sizes, bands):
    """Shared, read-only :class:`GramPattern` of the given sizes and bands."""
    return GramPattern(sizes, bands)


class GramKernel:
    """Banded tensor-product Gram matrices of fixed collocations.

    Assembles ``(kron_k A_k)^T diag(W) (kron_k B_k)`` for any weight grid
    ``W``.  ``tests[k]`` and ``trials[k]`` are dense collocation matrices of
    shape (Q_k, n_k) paired with axis ``k`` of ``W`` (axis 0 slowest), and
    ``bands[k]`` bounds ``|i_k - j_k|`` over the coupled basis pairs
    (default: the overlap of the factors' nonzeros).  The pair products of
    each axis and the CSR pattern are built once, so an assembly is
    contractions and one gather.
    """

    def __init__(self, tests, trials, bands=None):
        if bands is None:
            bands = [_half_bandwidth(a, b) for a, b in zip(tests, trials)]
        self.pairs = [
            _pair_products(a, b, band) for a, b, band in zip(tests, trials, bands)
        ]
        sizes = tuple(int(t.shape[1]) for t in trials)
        self.pattern = gram_pattern(sizes, tuple(int(b) for b in bands))

    def band_values(self, weights):
        """Every band entry of the Gram matrix of ``weights``.

        Contracting ``W`` with the transposed pair products one axis at a
        time (sum factorization) gives an array shaped
        ``(n_0 (2 b_0 + 1), n_1 (2 b_1 + 1), ...)`` whose entry
        ``(i_k, o_k)_k`` couples test ``i`` with trial ``j_k = i_k + o_k - b_k``.
        """
        vals = np.asarray(weights, dtype=float)
        for k, pairs in enumerate(self.pairs):
            vals = mode_apply(pairs.T, vals, k)
        return vals

    def __call__(self, weights):
        """The Gram matrix of ``weights`` as a CSR matrix."""
        return self.pattern.tocsr(self.band_values(weights))


def banded_gram(tests, trials, weights, bands=None):
    """Assemble ``(kron_k A_k)^T diag(W) (kron_k B_k)`` as a CSR matrix.

    A one-off :class:`GramKernel`; factors pair with the axes of
    ``weights``, slowest first, and test and trial factors have equal
    column counts.  The CSR pattern depends only on the sizes and bands and
    is built once.
    """
    return GramKernel(tests, trials, bands)(weights)


def _read_only(array):
    array.flags.writeable = False
    return array


class SpatialQuadratureData:
    """Tensorized quadrature, basis and geometry data over the spatial box.

    Precomputes dense per-direction collocation matrices of values (``c0``)
    at the quadrature grid, direction 1 first, and the quadrature
    ``measure`` (weights times ``|det J|``, which checks the map for folds
    and singularity; see :meth:`~monoiga.geometry.GeometryMap.measure`),
    which every integral on the grid reads.  The measure is the one grid the
    data holds from the start: the Jacobian determinants (``detj``) are
    tabulated on first use, which on the default rule the preconditioner's
    separable weights and the pull-back make.  The default rule (``degree +
    1`` points on the mesh) serves the stiffness, the preconditioner and the
    residual indicator, so its first- and second-derivative collocations
    (``c1``, ``c2``) come from the same recursion as ``c0``; a refined rule
    integrates values, and tabulates them only on use.  The map's own
    collocation tables up to second order are tabulated once per grid and
    serve the measure, the pull-back and the physical points of a source.
    The metric ``J^{-1} J^{-T}`` and the parametric table of the physical
    Laplacian (``laplacian``) are built on first use, together from one
    Jacobian and one Hessian tabulation of the map, one inverse and one
    metric: only the stiffness, the preconditioner and the residual
    indicator read them, so the stabilizer's refined grid never holds them.
    The indicator also reads the basis functions' element windows and
    Greville abscissae, built once per grid.  Shared by the
    mass/stiffness/weighted assemblies and the indicator so nonlinear steps
    do not re-evaluate the geometry.
    """

    def __init__(self, spaces, geo, npoints=None, extra_breaks=None):
        self.spaces = tuple(spaces)
        self.geo = geo
        d = len(self.spaces)
        nders = 2 if npoints is None and extra_breaks is None else 0
        if extra_breaks is None:
            extra_breaks = [None] * d
        self.rules = [
            QuadratureRule.for_space(s, npoints=npoints, extra_breaks=eb)
            for s, eb in zip(self.spaces, extra_breaks)
        ]
        tables = self._collocations(nders)
        self.c0 = [t[0] for t in tables]
        if nders:
            # Held from here on; the cached properties serve a refined rule.
            self.c1 = [t[1] for t in tables]
            self.c2 = [t[2] for t in tables]
        # Derivatives vanish where values do, so the value overlap bounds
        # every Gram band of these factors.
        self.bands = [_half_bandwidth(c, c) for c in self.c0]
        self._geo_tables = geo.collocations(self._axes(), 2)
        # The quadrature weights times |det J|, C order (direction d first).
        self.measure = _read_only(
            geo.measure(
                self._axes(), [r.flat_weights for r in self.rules], self._geo_tables
            )
        )
        self.grid_shape = self.measure.shape
        self._sample = None

    def _axes(self):
        return [r.points for r in self.rules]

    def _collocations(self, nders):
        return [
            s.collocation_matrices(r.points, nders)
            for s, r in zip(self.spaces, self.rules)
        ]

    @functools.cached_property
    def detj(self):
        """Jacobian determinants on the grid, shaped like ``measure``."""
        return jacobian_det(self.geo.tabulate(self._axes(), 1, self._geo_tables))

    @functools.cached_property
    def c1(self):
        """Dense first-derivative collocation matrices, direction 1 first."""
        return [t[1] for t in self._collocations(1)]

    @functools.cached_property
    def c2(self):
        """Dense second-derivative collocation matrices, direction 1 first."""
        return [t[2] for t in self._collocations(2)]

    @functools.cached_property
    def _pullback(self):
        # One Jacobian and one Hessian tabulation, one closed-form inverse
        # (over the determinants of ``detj``) and one metric serve the
        # metric and the Laplacian; only their results are kept.
        axes, tables = self._axes(), self._geo_tables
        jinv = jacobian_inverse(self.geo.tabulate(axes, 1, tables), self.detj)
        metric = np.einsum("...ak,...bk->...ab", jinv, jinv)
        hess = self.geo.tabulate(axes, 2, tables)
        return metric, laplacian_terms(metric, jinv, hess)

    @property
    def metric(self):
        """Pulled-back metric ``(J^{-1} J^{-T})_{ab}``, shaped grid + (d, d)."""
        return self._pullback[0]

    @property
    def laplacian(self):
        """The physical Laplacian on the grid, as :func:`laplacian_terms`."""
        return self._pullback[1]

    @functools.cached_property
    def windows(self):
        """Element-window gather tables of the basis, direction 1 first.

        See :meth:`~monoiga.bspline.SplineSpace.window_table`; the elements
        are the cells of the default rule.
        """
        return [s.window_table() for s in self.spaces]

    @functools.cached_property
    def greville(self):
        """Greville abscissae per direction, direction 1 first (read-only)."""
        return [_read_only(s.greville()) for s in self.spaces]

    def sample(self, f, time_data):
        """``f(x, t)`` on the space-time grid of this rule and ``time_data``.

        ``f`` takes physical points (m, d) and times (m,); the result is
        shaped (Q_t,) + grid.  ``f`` is called once per temporal element,
        with the spatial grid repeated for each of the element's Gauss times.
        The last sample is kept, so the load vector and every indicator of a
        solve share one evaluation of its source.
        """
        last = self._sample
        if last is None or last[0] is not f or last[1] is not time_data:
            xq = self.geo.tabulate(self._axes(), 0, self._geo_tables)
            xq = xq.reshape(-1, len(self.spaces))
            qs = xq.shape[0]
            npts = time_data.rule.npoints
            tq = (time_data.points * time_data.final_time).reshape(-1, npts)
            xe = np.tile(xq, (npts, 1))
            vals = np.empty(tq.shape + (qs,))
            for e, times in enumerate(tq):
                sample = f(xe, np.repeat(times, qs))
                vals[e] = np.asarray(sample, dtype=float).reshape(npts, qs)
            self._sample = (f, time_data, vals.reshape((tq.size,) + self.grid_shape))
        return self._sample[2]

    @functools.cached_property
    def _mass_kernel(self):
        c = self.c0[::-1]
        return GramKernel(c, c, self.bands[::-1])

    def mass(self, weights=None):
        """Spatial mass matrix of a complete weight grid, by default the measure.

        ``weights`` includes the quadrature measure (e.g. ``measure`` times
        a pointwise weight).  The pair products of the value collocations
        are built on first use and kept, so every weight grid reuses them.
        """
        return self._mass_kernel(self.measure if weights is None else weights)

    def stiffness(self):
        """Pulled-back spatial stiffness matrix."""
        d = len(self.spaces)
        base = self.measure
        # Factors with the derivative in direction a, grid order (d first).
        grads = [
            [self.c1[l] if l == a else self.c0[l] for l in reversed(range(d))]
            for a in range(d)
        ]
        bands = self.bands[::-1]
        vals = 0.0
        for a in range(d):
            for b in range(d):
                m = self.metric[..., a, b]
                # Terms of a metric entry that vanishes on the grid (the
                # off-diagonal ones on boxes) add exact zeros.
                if not np.any(m):
                    continue
                kernel = GramKernel(grads[a], grads[b], bands)
                vals = vals + kernel.band_values(base * m)
        return kernel.pattern.tocsr(vals)


def spatial_operators(spaces, geo, spatial_data=None):
    """Pulled-back spatial mass and stiffness matrices ``(M_s, K_s)``.

    Assembled by tensorized quadrature on ``spatial_data`` (the default
    ``degree + 1`` point rule, built here when not given), which is exact on
    axis-aligned boxes.
    """
    if spatial_data is None:
        spatial_data = SpatialQuadratureData(spaces, geo)
    return spatial_data.mass(), spatial_data.stiffness()


class TimeQuadratureData:
    """Quadrature and constrained-basis data along the temporal direction.

    ``c0`` and ``c1`` are the dense constrained collocation matrices of the
    values and the (parametric) first derivatives at the rule's points,
    from one recursion.
    """

    def __init__(self, space_time, final_time, npoints=None):
        self.space_time = space_time
        self.final_time = float(final_time)
        self.rule = QuadratureRule.for_space(space_time.time, npoints=npoints)
        self.c0, self.c1 = space_time.time_collocations(self.rule.points, 1)
        # Physical time measure: dt = T dtau.
        self.weights = self.rule.flat_weights * self.final_time

    @property
    def points(self):
        return self.rule.points

    def slabs(self, size):
        """Row slices of whole temporal elements for a pass over a space-time grid.

        ``size`` is the number of spatial points per Gauss time; the slabs
        are those of :func:`~monoiga.tensorops.slabs` over the elements.
        """
        n = self.rule.npoints
        return [
            slice(cells.start * n, cells.stop * n)
            for cells in slabs(self.rule.num_cells, n * size)
        ]

    @functools.cached_property
    def windows(self):
        """Element-window gather table of the constrained basis.

        Row ``c`` gathers the elements of ``time.window_elements(c)`` (see
        :meth:`~monoiga.bspline.SplineSpace.window_table`); the elements are
        the cells of the default rule.
        """
        st = self.space_time
        return st.time.window_table(st.num_time)

    @functools.cached_property
    def greville(self):
        """Greville abscissae of the constrained basis (read-only)."""
        return _read_only(self.space_time.time_greville())


def time_matrices(space_time, final_time, time_data=None):
    """Constrained temporal matrices ``(W_t, M_t)`` in physical time.

    ``W_t[i, j] = int b'_j b_i`` is invariant under the time scaling; the
    mass matrix picks up a factor of the final time.  ``time_data`` is the
    default-rule :class:`TimeQuadratureData` of the space, built here when
    not given.
    """
    if time_data is None:
        time_data = TimeQuadratureData(space_time, final_time)
    c0 = time_data.c0
    W = banded_gram([c0], [time_data.c1], time_data.rule.flat_weights)
    M = banded_gram([c0], [c0], time_data.weights)
    return W, M


def contract_space(space_time, coeffs, space_collocs):
    """Contract a coefficient field with one collocation matrix per direction.

    ``space_collocs`` lists the spatial collocation matrices, direction 1
    first.  Returns an array shaped (N_t, Q_d, ..., Q_1): the field's
    temporal coefficients on the spatial grid.
    """
    X = np.asarray(coeffs, dtype=float).reshape(space_time.coeff_shape)
    return kron_apply(space_collocs, X)


class IterateOnGrid(NamedTuple):
    """A potential iterate and its recovery field on a tensor quadrature grid.

    ``space`` is the potential contracted in space (:func:`contract_space`
    with the value collocations), shaped (N_t, Q_d, ..., Q_1), from which
    any temporal collocation gives a time derivative; ``u`` and ``w`` are
    the two fields on the grid, shaped (Q_t, Q_d, ..., Q_1).
    """

    space: np.ndarray
    u: np.ndarray
    w: np.ndarray


def iterate_on_grid(space_time, u, w, time_colloc, space_collocs):
    """``u`` and ``w`` on a tensor grid as an :class:`IterateOnGrid`.

    Each field is contracted in space first, then in time.  A solver whose
    ``w`` is the recovery map ``R u`` evaluates both from one spatial
    contraction instead (see the solver's workspace).
    """
    u_s = contract_space(space_time, u, space_collocs)
    w_s = contract_space(space_time, w, space_collocs)
    return IterateOnGrid(
        u_s, mode_apply(time_colloc, u_s, 0), mode_apply(time_colloc, w_s, 0)
    )


def field_on_grid(space_time, coeffs, time_colloc, space_collocs):
    """Evaluate a coefficient field on a tensor quadrature grid.

    ``time_colloc`` is a constrained temporal collocation matrix and
    ``space_collocs`` one collocation matrix per spatial direction
    (direction 1 first).  Returns an array shaped (Q_t, Q_d, ..., Q_1).
    """
    U = np.asarray(coeffs, dtype=float).reshape(space_time.coeff_shape)
    return kron_apply(space_collocs, mode_apply(time_colloc, U, 0))


def load_vector(time_colloc, space_collocs, parts):
    """Integrate values on a tensor quadrature grid against the basis.

    ``parts`` yields pairs ``(rows, g)``: the values ``g`` at the temporal
    quadrature points ``rows`` (a slice), shaped (len(rows), Q_d, ..., Q_1),
    which already carry the quadrature measure.  Returns
    ``(C_t kron C_s)^T g`` for the grid ``g`` the parts make up; the
    collocations are those of :func:`field_on_grid`.  Time is contracted
    first, part by part, and space once for their sum, so a caller may form
    the grid one slab at a time.
    """
    X = None
    for rows, grid in parts:
        part = mode_apply(time_colloc[rows].T, grid, 0)
        if X is None:
            X = part
        else:
            X += part
    return kron_apply([c.T for c in space_collocs], X).reshape(-1)


def evaluate_field(space_time, coeffs, points):
    """Evaluate a coefficient field at parametric space-time points.

    ``points`` is shaped (m, d + 1), rows ``(eta_1, ..., eta_d, tau)`` in
    ``[0, 1]^{d+1}``; returns the m values.
    """
    d = space_time.num_spatial_dims
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != d + 1:
        raise ValueError("points must have %d columns" % (d + 1))
    if np.any(points < -1e-14) or np.any(points > 1.0 + 1e-14):
        raise ValueError("points must lie in [0, 1]^%d" % (d + 1))
    points = np.clip(points, 0.0, 1.0)

    # Coefficients padded with the removed first temporal slab.
    full = np.zeros((space_time.time.dimension,) + space_time.spatial_shape)
    full[1:] = np.asarray(coeffs, dtype=float).reshape(space_time.coeff_shape)
    spaces = list(space_time.spatial) + [space_time.time]
    return tensor_at(spaces, full, points, [0] * (d + 1))


def laplacian_terms(metric, jinv, hess):
    """The physical Laplacian as a second-order operator in parametric coordinates.

    By the chain rule ``lap u = sum_{a <= b} (2 - delta_ab) G_ab d_a d_b u
    + sum_i l_i d_i u`` with the metric ``G = J^{-1} J^{-T}`` and
    ``l_i = -sum_{a, b, c} G_ab H[c, a, b] J^{-1}[i, c]``.  ``metric``,
    ``jinv`` and the geometry Hessian ``hess`` are shaped pts + (d, d),
    pts + (d, d) and pts + (d, d, d).
    Returns the ``(orders, coefficient)`` pairs of the sum: ``orders`` lists
    the parametric derivative order per direction (direction 1 first) and
    the coefficient is shaped like ``pts``.  Coefficients that vanish at
    every point are dropped, so on a box only the ``d`` pure second
    derivatives remain.
    """
    d = jinv.shape[-1]
    first = -np.einsum("...ab,...cab,...ic->...i", metric, hess, jinv)
    unit = np.eye(d, dtype=int)
    terms = [
        (tuple(unit[a] + unit[b]), metric[..., a, b] * (1.0 if a == b else 2.0))
        for a in range(d)
        for b in range(a, d)
    ]
    terms += [(tuple(unit[i]), first[..., i]) for i in range(d)]
    return [(orders, c) for orders, c in terms if np.any(c)]


class WeightedMass:
    """Space-time mass matrix with a pointwise weight, applied matrix-free.

    Represents ``(T kron C_s)^T diag(W) (T' kron C_s)``, where ``T`` and
    ``T'`` are the temporal test and trial collocation matrices (``T' = T``
    unless ``trial_time_colloc`` is given), ``C_s`` the Kronecker product of
    the spatial ones (direction d slowest) and ``W`` the weight on the tensor
    quadrature grid.  ``weights`` may also stack ``m`` grids, with
    ``trial_time_colloc`` stacking their ``m`` trial factors: the operator is
    then the sum of the ``m`` masses, which share the test factor ``T``.  The
    Newton derivative of the reaction term with the recovery map
    ``R = R_t kron I`` is such a sum,
    ``C_t^T diag(W_1) C_t + C_t^T diag(W_2) C_t R_t``.  A matvec evaluates
    the field in space once, applies each trial factor, scales it by its
    weight and sums the terms on one grid, which it integrates against the
    basis time first (sum factorization), so only the grids of weights are
    stored.  The terms are evaluated, summed and integrated in time by
    slabs of the slowest spatial direction (:func:`~monoiga.tensorops.slabs`),
    so no product of the whole grid is held.

    ``time_colloc`` is dense, shape (Q_t, N_t), and ``trial_time_colloc``
    shape (Q_t, N_t) or, with stacked weights, (m, Q_t, N_t);
    ``space_collocs`` are dense, direction 1 first, shapes (Q_l, n_l);
    ``weights`` is shaped (Q_t, Q_d, ..., Q_1) or (m, Q_t, Q_d, ..., Q_1).
    ``terms`` lists the pairs ``(W, T')``.
    """

    def __init__(self, time_colloc, space_collocs, weights, trial_time_colloc=None):
        self.time_colloc = time_colloc
        self.trial_time_colloc = time_colloc
        if trial_time_colloc is not None:
            self.trial_time_colloc = trial_time_colloc
        self.space_collocs = list(space_collocs)
        self.data = np.asarray(weights, dtype=float)
        grid = (self.time_colloc.shape[0],) + tuple(
            c.shape[0] for c in reversed(self.space_collocs)
        )
        if self.data.shape == grid:
            self._weights = self.data[None]
            self._trials = self.trial_time_colloc[None]
        elif self.data.shape[1:] == grid and trial_time_colloc is not None:
            if len(self.trial_time_colloc) != len(self.data):
                raise ValueError("one trial factor per stacked weight grid")
            self._weights = self.data
            self._trials = self.trial_time_colloc
        else:
            raise ValueError(
                "weight grid has shape %s, quadrature grid is %s"
                % (self.data.shape, grid)
            )
        self.terms = list(zip(self._weights, self._trials))
        self.coeff_shape = (self.time_colloc.shape[1],) + tuple(
            c.shape[1] for c in reversed(self.space_collocs)
        )
        # Every contraction of a matvec is in time, so slabs of the slowest
        # spatial axis read each value of the spatial contraction once.
        self._slabs = slabs(grid[1], grid[0] * math.prod(grid[2:]))

    @property
    def shape(self):
        n = int(np.prod(self.coeff_shape))
        return (n, n)

    @property
    def nnz(self):
        """Stored values: one weight per quadrature point and term."""
        return self.data.size

    def matvec(self, x):
        X = np.asarray(x, dtype=float).reshape(self.coeff_shape)
        X = kron_apply(self.space_collocs, X)
        if len(self._slabs) == 1:
            out = self._integrate(X, slice(None))
        else:
            out = np.empty((self.time_colloc.shape[1],) + X.shape[1:])
            for cols in self._slabs:
                out[:, cols] = self._integrate(X[:, cols], cols)
        return kron_apply([c.T for c in self.space_collocs], out).reshape(-1)

    def _integrate(self, X, cols):
        """``T^T sum_i W_i (T'_i X)`` on the columns ``cols`` of the slowest spatial axis."""
        weights = self._weights[:, :, cols]
        trials = self._trials.reshape(-1, self._trials.shape[-1])
        vals = mode_apply(trials, X, 0).reshape(weights.shape)
        vals *= weights
        total = vals[0]
        for term in vals[1:]:
            total += term
        return mode_apply(self.time_colloc.T, total, 0)

    def __matmul__(self, x):
        return self.matvec(x)


def reaction_mass(
    space_time,
    geo,
    constants,
    u_prev,
    w_prev,
    spatial_data=None,
    time_data=None,
    on_grid=None,
    out=None,
):
    """Space-time mass matrix weighted by the reaction coefficient of an iterate.

    The coefficient ``c1 (u - a)(u - 1) + c2 w`` is evaluated at the
    quadrature nodes from the spline expansions of the iterates, so
    ``reaction_mass(u, w) @ u`` is the reaction term of the weak form.
    Returns a :class:`WeightedMass` of size ``N_dof`` whose ``data`` is the
    coefficient times the quadrature measure per quadrature point, written
    into ``out`` when given.  ``on_grid`` is the :class:`IterateOnGrid` of
    ``u_prev`` and ``w_prev`` on the grid of the quadrature data when a
    caller has it already; it is evaluated here otherwise.
    """
    c1 = constants["c1"]
    a = constants["a"]
    c2 = constants["c2"]
    u_prev = np.asarray(u_prev, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    if u_prev.size != space_time.num_dof or w_prev.size != space_time.num_dof:
        raise ValueError("iterate coefficient vectors must have length N_dof")
    if spatial_data is None:
        spatial_data = SpatialQuadratureData(space_time.spatial, geo)
    if time_data is None:
        time_data = TimeQuadratureData(space_time, geo.final_time)

    ct = time_data.c0
    cs = spatial_data.c0
    if on_grid is None:
        on_grid = iterate_on_grid(space_time, u_prev, w_prev, ct, cs)
    measure = spatial_data.measure
    times = time_data.weights.reshape((-1,) + (1,) * len(cs))
    weights = np.empty(on_grid.u.shape) if out is None else out
    # In place, by slabs: the one grid-sized array is the result.
    for rows in time_data.slabs(measure.size):
        u_vals = on_grid.u[rows]
        slab = weights[rows]
        np.subtract(u_vals, a, out=slab)
        tmp = u_vals - 1.0
        slab *= tmp
        slab *= c1
        np.multiply(on_grid.w[rows], c2, out=tmp)
        slab += tmp
        slab *= measure
        slab *= times[rows]
    return WeightedMass(ct, cs, weights)


def rhs_vectors(space_time, geo, source, spatial_data=None, time_data=None):
    """Load vector ``f_vec[i] = int int f B_i`` of the source (zero if ``None``)."""
    if source is None:
        return np.zeros(space_time.num_dof)
    if spatial_data is None:
        spatial_data = SpatialQuadratureData(space_time.spatial, geo)
    if time_data is None:
        time_data = TimeQuadratureData(space_time, geo.final_time)
    fvals = spatial_data.sample(source, time_data)
    # One weighted grid; the sample is cached, and the indicator reads it.
    vals = np.multiply(fvals, spatial_data.measure)
    vals *= time_data.weights.reshape((-1,) + (1,) * len(spatial_data.c0))
    return load_vector(time_data.c0, spatial_data.c0, [(slice(None), vals)])


def _dense(mat):
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)


def _csr(mat):
    if sp.issparse(mat) and mat.format == "csr":
        return mat
    return sp.csr_matrix(mat)


def _vstack_csr(mats):
    """``vstack`` of CSR matrices with equal column counts, by concatenation."""
    nnz = [int(m.indptr[-1]) for m in mats]
    offsets = np.cumsum([0] + nnz[:-1])
    indptr = np.concatenate(
        [[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)]
    )
    data = np.concatenate([m.data[:n] for m, n in zip(mats, nnz)])
    indices = np.concatenate([m.indices[:n] for m, n in zip(mats, nnz)])
    shape = (sum(m.shape[0] for m in mats), mats[0].shape[1])
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _row_block(mat, start, size):
    """Rows ``start:start + size`` of a CSR matrix, sharing its data and indices."""
    indptr = mat.indptr[start : start + size + 1]
    lo, hi = indptr[0], indptr[-1]
    data, indices = mat.data[lo:hi], mat.indices[lo:hi]
    block = sp.csr_matrix((data, indices, indptr - lo), shape=(size, mat.shape[1]))
    # The constructor copies a view of less than half its array.
    block.data, block.indices = data, indices
    return block


class KroneckerOperator:
    """Sum of scaled Kronecker products ``sum_k c_k (T_k kron S_k)``.

    Each term pairs a temporal factor of size ``N_t`` with a spatial factor
    of size ``N_s``.  An optional ``correction`` (a reaction term such as a
    :class:`WeightedMass`, or any matrix supporting ``@``) is added to the
    matvec; it is the one attribute a caller may replace.

    A matvec applies all terms with two products: the sparse stacked
    spatial factors ``vstack(S_k)`` act on ``X^T``, with
    ``X = x.reshape(N_t, N_s)``, and the dense ``hstack(c_k T_k)`` acts on
    the resulting blocks ``X S_k^T``, which sums the terms (``N_t`` is
    small, so the temporal stack is dense).  The stacks are built at
    construction; they hold the one copy of the factors the operator keeps
    (never the space-time product), so a caller may drop its own.
    :meth:`plus` appends further terms to copies of the stacks, so an
    operator that shares constant terms with others stacks them once.
    """

    def __init__(self, num_time, num_space, terms=(), correction=None):
        self.num_time = int(num_time)
        self.num_space = int(num_space)
        self._temporal = []
        self._time_stack = np.zeros((self.num_time, 0))
        self._space_stack = sp.csr_matrix((0, self.num_space))
        self._append(terms)
        self.correction = correction

    def _append(self, terms):
        terms = [(float(coef), tmat, smat) for coef, tmat, smat in terms]
        for _, tmat, smat in terms:
            if tmat.shape != (self.num_time, self.num_time):
                raise ValueError("temporal factor has wrong shape")
            if smat.shape != (self.num_space, self.num_space):
                raise ValueError("spatial factor has wrong shape")
        if not terms:
            return
        self._time_stack = np.hstack(
            [self._time_stack] + [coef * _dense(tmat) for coef, tmat, _ in terms]
        )
        self._space_stack = _vstack_csr(
            [self._space_stack] + [_csr(smat) for _, _, smat in terms]
        )
        self._temporal = self._temporal + [(coef, tmat) for coef, tmat, _ in terms]

    @property
    def terms(self):
        """The terms ``(c_k, T_k, S_k)``; each ``S_k`` is a view of the stack."""
        ns = self.num_space
        return [
            (coef, tmat, _row_block(self._space_stack, k * ns, ns))
            for k, (coef, tmat) in enumerate(self._temporal)
        ]

    def plus(self, terms):
        """The operator of this one's terms followed by ``terms``.

        The result has no correction.  Only ``terms`` are stacked: their
        factors are appended to this operator's stacks, which stay as they
        are.
        """
        out = copy.copy(self)
        out.correction = None
        out._append(terms)
        return out

    @property
    def shape(self):
        n = self.num_time * self.num_space
        return (n, n)

    def matvec(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.shape[0]:
            raise ValueError(
                "dimension mismatch: operator of size %d applied to vector of size %d"
                % (self.shape[0], x.size)
            )
        nt, ns = self.num_time, self.num_space
        # Blocks S_k X^T, stacked, then transposed to X S_k^T (no blocks and
        # a zero result without terms).
        P = self._space_stack @ x.reshape(nt, ns).T
        P = P.reshape(-1, ns, nt).transpose(0, 2, 1).reshape(-1, ns)
        out = (self._time_stack @ P).reshape(-1)
        if self.correction is not None:
            out += self.correction @ x
        return out
