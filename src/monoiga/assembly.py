"""Quadrature and Galerkin assembly for the space-time discretization.

All operators are expressed through tensor-product structure where the
geometry allows it: univariate matrices in time, Kronecker-factored or
pulled-back spatial matrices, and a :class:`KroneckerOperator` representing
sums of scaled Kronecker products plus an optional correction (the frozen
reaction term, applied matrix-free by :class:`WeightedMass`).  Weighted
tensor-product Gram matrices (pulled-back spatial mass and stiffness, the
stabilizer's factors, the sparse form of :class:`WeightedMass`) are all
assembled by one kernel, :func:`banded_gram`.
"""

import functools

import numpy as np
import scipy.sparse as sp

from .geometry import jacobian_inverse_and_det
from .tensorops import kron_chain, mode_apply, outer_product_grid, two_factor_matvec

__all__ = [
    "QuadratureRule",
    "UnivariateMatrices",
    "KroneckerOperator",
    "WeightedMass",
    "banded_gram",
    "univariate_matrix",
    "univariate_matrices",
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


def univariate_matrix(space, order_test=0, order_trial=0, weight=None, rule=None):
    """Weighted Gram matrix ``int w b_j^{(trial)} b_i^{(test)}`` on [0, 1].

    Row index is the test function.  ``weight`` may be a callable on the
    quadrature points or an array of per-point values.  Banded with bandwidth
    ``2 p + 1``; returned in CSR form.
    """
    if rule is None:
        rule = QuadratureRule.for_space(space)
    pts = rule.points
    w = rule.flat_weights.copy()
    if weight is not None:
        wv = weight(pts) if callable(weight) else weight
        w = w * np.asarray(wv, dtype=float).reshape(-1)
    ctest = space.collocation_matrix(pts, order_test)
    ctrial = space.collocation_matrix(pts, order_trial)
    return sp.csr_matrix(ctest.T @ sp.diags(w) @ ctrial)


class UnivariateMatrices:
    """Mass, stiffness and advection matrices of a univariate space.

    ``advection[i, j] = int w b'_j b_i``; the derivative acts on the trial
    (column) index.
    """

    def __init__(self, space, weight=None, rule=None):
        if rule is None:
            npts = space.degree + 1 if weight is None else space.degree + 2
            rule = QuadratureRule.for_space(space, npoints=npts)
        self.space = space
        self.mass = univariate_matrix(space, 0, 0, weight, rule)
        self.stiffness = univariate_matrix(space, 1, 1, weight, rule)
        self.advection = univariate_matrix(space, 0, 1, weight, rule)


def univariate_matrices(space, weight=None):
    return UnivariateMatrices(space, weight=weight)


def time_matrices(space_time, final_time):
    """Constrained temporal matrices ``(W_t, M_t)`` in physical time.

    The advection matrix is invariant under the time scaling; the mass
    matrix picks up a factor of the final time.
    """
    full = UnivariateMatrices(space_time.time)
    W = sp.csr_matrix(full.advection[1:, 1:])
    M = sp.csr_matrix(final_time * full.mass[1:, 1:])
    return W, M


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


def gram_band_values(tests, trials, weights, bands):
    """Every band entry of ``(kron_k A_k)^T diag(W) (kron_k B_k)``.

    ``tests[k]`` and ``trials[k]`` are dense collocation matrices of shape
    (Q_k, n_k) paired with axis ``k`` of the weight grid ``W`` (axis 0
    slowest), and ``bands[k]`` bounds ``|i_k - j_k|`` over the coupled basis
    pairs.  Contracting ``W`` with the transposed pair products one axis at a
    time (sum factorization) gives an array shaped
    ``(n_0 (2 b_0 + 1), n_1 (2 b_1 + 1), ...)`` whose entry
    ``(i_k, o_k)_k`` couples test ``i`` with trial ``j_k = i_k + o_k - b_k``.
    """
    vals = np.asarray(weights, dtype=float)
    for k, (test, trial, band) in enumerate(zip(tests, trials, bands)):
        vals = mode_apply(_pair_products(test, trial, band).T, vals, k)
    return vals


class GramPattern:
    """CSR pattern of a banded tensor-product Gram matrix.

    Row ``i = (i_0, i_1, ...)`` couples with column ``j`` when
    ``|i_k - j_k| <= b_k`` on every axis (axis 0 slowest).  ``select`` maps
    each stored entry, in CSR order, to its position in the flattened output
    of :func:`gram_band_values`, so assembling is one gather.
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
        """CSR matrix of the output of :func:`gram_band_values`."""
        data = np.take(band_values.reshape(-1), self.select)
        return sp.csr_matrix(
            (data, self.indices.copy(), self.indptr.copy()), shape=self.shape
        )


@functools.lru_cache(maxsize=8)
def gram_pattern(sizes, bands):
    """Shared, read-only :class:`GramPattern` of the given sizes and bands."""
    return GramPattern(sizes, bands)


def banded_gram(tests, trials, weights, bands=None):
    """Assemble ``(kron_k A_k)^T diag(W) (kron_k B_k)`` as a CSR matrix.

    Factors pair with the axes of ``weights``, slowest first (see
    :func:`gram_band_values`); test and trial factors have equal column
    counts.  ``bands`` defaults to the overlap of the factors' nonzeros.  The
    CSR pattern depends only on the sizes and bands and is built once.
    """
    if bands is None:
        bands = [_half_bandwidth(a, b) for a, b in zip(tests, trials)]
    sizes = tuple(int(t.shape[1]) for t in trials)
    pattern = gram_pattern(sizes, tuple(int(b) for b in bands))
    return pattern.tocsr(gram_band_values(tests, trials, weights, bands))


class SpatialQuadratureData:
    """Tensorized quadrature, basis and geometry data over the spatial box.

    Precomputes dense per-direction collocation matrices of values (``c0``)
    and first derivatives (``c1``) at the quadrature grid, direction 1 first,
    and the pulled-back metric quantities.  Shared by the mass/stiffness/
    weighted assemblies so nonlinear sweeps do not re-evaluate the geometry.
    """

    def __init__(self, spaces, geo, npoints=None, extra_breaks=None):
        self.spaces = tuple(spaces)
        self.geo = geo
        d = len(self.spaces)
        if extra_breaks is None:
            extra_breaks = [None] * d
        self.rules = [
            QuadratureRule.for_space(s, npoints=npoints, extra_breaks=eb)
            for s, eb in zip(self.spaces, extra_breaks)
        ]
        self.c0 = [
            s.collocation_matrix(r.points, 0).toarray()
            for s, r in zip(self.spaces, self.rules)
        ]
        self.c1 = [
            s.collocation_matrix(r.points, 1).toarray()
            for s, r in zip(self.spaces, self.rules)
        ]
        # Derivatives vanish where values do, so the value overlap bounds
        # every Gram band of these factors.
        self.bands = [_half_bandwidth(c, c) for c in self.c0]
        # Quadrature weight grid, C order (direction d first).
        self.wgrid = outer_product_grid(
            [r.flat_weights for r in reversed(self.rules)]
        )
        data = geo.grid_data([r.points for r in self.rules], order=1)
        self.xgrid = data["x"]
        jac = data["jac"]
        self.jinv, self.detj = jacobian_inverse_and_det(jac)
        self.grid_shape = self.wgrid.shape

    def metric_diag(self, direction):
        """Grid of the pulled-back metric coefficient of one direction."""
        return np.einsum(
            "...k,...k->...", self.jinv[..., direction, :], self.jinv[..., direction, :]
        )

    def physical_points(self):
        """Quadrature points in physical coordinates, shape (Q, d)."""
        return self.xgrid.reshape(-1, len(self.spaces))

    def mass(self, weight_grid=None):
        """Pulled-back spatial mass matrix, optionally with a pointwise weight."""
        w = self.wgrid * np.abs(self.detj)
        if weight_grid is not None:
            w = w * weight_grid
        c = self.c0[::-1]
        return banded_gram(c, c, w, self.bands[::-1])

    def stiffness(self):
        """Pulled-back spatial stiffness matrix."""
        d = len(self.spaces)
        base = self.wgrid * np.abs(self.detj)
        # metric[a, b] = (J^{-1} J^{-T})_{ab}
        metric = np.einsum("...ak,...bk->...ab", self.jinv, self.jinv)
        # Factors with the derivative in direction a, grid order (d first).
        grads = [
            [self.c1[l] if l == a else self.c0[l] for l in reversed(range(d))]
            for a in range(d)
        ]
        bands = self.bands[::-1]
        vals = 0.0
        for a in range(d):
            for b in range(d):
                w = base * metric[..., a, b]
                vals = vals + gram_band_values(grads[a], grads[b], w, bands)
        sizes = tuple(c.shape[1] for c in reversed(self.c0))
        return gram_pattern(sizes, tuple(bands)).tocsr(vals)


def _affine_spatial_operators(spaces, geo):
    scales, _ = geo.affine_scales
    mats = [UnivariateMatrices(s) for s in spaces]
    d = len(spaces)
    mass_factors = [scales[l] * mats[l].mass for l in range(d)]
    M = kron_chain([mass_factors[l] for l in reversed(range(d))])
    K = None
    for a in range(d):
        factors = []
        for l in reversed(range(d)):
            if l == a:
                factors.append(mats[l].stiffness / scales[l])
            else:
                factors.append(scales[l] * mats[l].mass)
        term = kron_chain(factors)
        K = term if K is None else K + term
    return sp.csr_matrix(M), sp.csr_matrix(K)


def spatial_operators(spaces, geo, npoints=None):
    """Pulled-back spatial mass and stiffness matrices ``(M_s, K_s)``.

    Kronecker-factored (exact) for axis-aligned affine maps, assembled by
    tensorized quadrature otherwise.
    """
    if geo.affine_scales is not None and npoints is None:
        return _affine_spatial_operators(spaces, geo)
    data = SpatialQuadratureData(spaces, geo, npoints=npoints)
    return data.mass(), data.stiffness()


class TimeQuadratureData:
    """Quadrature and constrained-basis data along the temporal direction."""

    def __init__(self, space_time, final_time, npoints=None, extra_breaks=None):
        self.space_time = space_time
        self.final_time = float(final_time)
        self.rule = QuadratureRule.for_space(
            space_time.time, npoints=npoints, extra_breaks=extra_breaks
        )
        self.c0 = space_time.time_collocation(self.rule.points, 0).toarray()
        # Physical time measure: dt = T dtau.
        self.weights = self.rule.flat_weights * self.final_time

    @property
    def points(self):
        return self.rule.points


def _apply_factors(time_mat, space_mats, tensor):
    """Apply ``time_mat`` along axis 0 and ``space_mats[l]`` along direction l.

    ``tensor`` is shaped (N_t, n_d, ..., n_1); ``space_mats`` lists one
    matrix per spatial direction, direction 1 first.
    """
    d = len(space_mats)
    out = mode_apply(time_mat, tensor, 0)
    for l in range(d):
        out = mode_apply(space_mats[l], out, 1 + (d - 1 - l))
    return out


def field_on_grid(space_time, coeffs, time_colloc, space_collocs, orders=None):
    """Evaluate a coefficient field on a tensor quadrature grid.

    ``time_colloc`` is a constrained temporal collocation matrix and
    ``space_collocs`` one collocation matrix per spatial direction
    (direction 1 first).  Returns an array shaped (Q_t, Q_d, ..., Q_1).
    """
    U = np.asarray(coeffs, dtype=float).reshape(space_time.coeff_shape)
    return _apply_factors(time_colloc, space_collocs, U)


class WeightedMass:
    """Space-time mass matrix with a pointwise weight, applied matrix-free.

    Represents ``(C_t kron C_s)^T diag(W) (C_t kron C_s)``, where ``C_t`` is
    the temporal collocation matrix, ``C_s`` the Kronecker product of the
    spatial ones (direction d slowest) and ``W`` the weight on the tensor
    quadrature grid.  A matvec evaluates the field on the grid, scales it by
    ``W`` and integrates against the basis one axis at a time (sum
    factorization), so only the grid of weights is stored.

    ``time_colloc`` is dense, shape (Q_t, N_t); ``space_collocs`` are dense,
    direction 1 first, shapes (Q_l, n_l); ``weights`` is shaped
    (Q_t, Q_d, ..., Q_1).
    """

    def __init__(self, time_colloc, space_collocs, weights):
        self.time_colloc = np.asarray(time_colloc, dtype=float)
        self.space_collocs = [np.asarray(c, dtype=float) for c in space_collocs]
        self.data = np.asarray(weights, dtype=float)
        grid = (self.time_colloc.shape[0],) + tuple(
            c.shape[0] for c in reversed(self.space_collocs)
        )
        if self.data.shape != grid:
            raise ValueError(
                "weight grid has shape %s, quadrature grid is %s"
                % (self.data.shape, grid)
            )
        self.coeff_shape = (self.time_colloc.shape[1],) + tuple(
            c.shape[1] for c in reversed(self.space_collocs)
        )

    @property
    def shape(self):
        n = int(np.prod(self.coeff_shape))
        return (n, n)

    @property
    def nnz(self):
        """Stored values: one weight per quadrature point."""
        return self.data.size

    def matvec(self, x):
        X = np.asarray(x, dtype=float).reshape(self.coeff_shape)
        vals = _apply_factors(self.time_colloc, self.space_collocs, X)
        vals *= self.data
        out = _apply_factors(
            self.time_colloc.T, [c.T for c in self.space_collocs], vals
        )
        return out.reshape(-1)

    def __matmul__(self, x):
        return self.matvec(x)

    def tosparse(self):
        """Assemble the operator as a CSR matrix (for the tests' dense oracles).

        Time is the slowest direction of :func:`banded_gram`.
        """
        factors = [self.time_colloc] + self.space_collocs[::-1]
        return banded_gram(factors, factors, self.data)

    def toarray(self):
        return self.tosparse().toarray()


def reaction_mass(
    space_time,
    geo,
    constants,
    u_prev,
    w_prev,
    final_time=None,
    spatial_data=None,
    time_data=None,
):
    """Space-time mass matrix weighted by the frozen reaction coefficient.

    The coefficient ``c1 (u - a)(u - 1) + c2 w`` is evaluated at the
    quadrature nodes from the spline expansions of the previous iterates.
    Returns a :class:`WeightedMass` of size ``N_dof`` that stores the weighted
    coefficient per quadrature point; ``tosparse()`` assembles it.
    """
    c1 = constants["c1"]
    a = constants["a"]
    c2 = constants["c2"]
    if final_time is None:
        final_time = geo.final_time
    u_prev = np.asarray(u_prev, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    if u_prev.size != space_time.num_dof or w_prev.size != space_time.num_dof:
        raise ValueError("iterate coefficient vectors must have length N_dof")
    if spatial_data is None:
        spatial_data = SpatialQuadratureData(space_time.spatial, geo)
    if time_data is None:
        time_data = TimeQuadratureData(space_time, final_time)

    ct = time_data.c0
    cs = spatial_data.c0
    u_vals = field_on_grid(space_time, u_prev, ct, cs)
    w_vals = field_on_grid(space_time, w_prev, ct, cs)
    weights = c1 * (u_vals - a) * (u_vals - 1.0) + c2 * w_vals
    weights *= spatial_data.wgrid * np.abs(spatial_data.detj)
    weights *= time_data.weights.reshape((-1,) + (1,) * len(cs))
    return WeightedMass(ct, cs, weights)


def rhs_vectors(
    space_time, geo, source, final_time=None, spatial_data=None, time_data=None
):
    """Load vector ``f_vec[i] = int int f B_i`` of the source (zero if ``None``)."""
    if source is None:
        return np.zeros(space_time.num_dof)
    if final_time is None:
        final_time = geo.final_time
    if spatial_data is None:
        spatial_data = SpatialQuadratureData(space_time.spatial, geo)
    if time_data is None:
        time_data = TimeQuadratureData(space_time, final_time)
    xq = spatial_data.physical_points()
    tq = time_data.points * final_time
    qs = xq.shape[0]
    qt = tq.size
    fvals = np.empty((qt, qs))
    for i, t in enumerate(tq):
        fvals[i] = np.asarray(source(xq, np.full(qs, t)), dtype=float).reshape(qs)
    ws = (spatial_data.wgrid * np.abs(spatial_data.detj)).reshape(-1)
    vals = fvals * ws[None, :] * time_data.weights[:, None]
    return _apply_factors(
        time_data.c0.T,
        [c.T for c in spatial_data.c0],
        vals.reshape((qt,) + spatial_data.grid_shape),
    ).reshape(-1)


class KroneckerOperator:
    """Sum of scaled Kronecker products ``sum_k c_k (T_k kron S_k)``.

    Each term pairs a temporal factor of size ``N_t`` with a spatial factor
    of size ``N_s``.  An optional ``correction`` (the frozen reaction term, a
    :class:`WeightedMass`, or any matrix supporting ``@``) is added to the
    matvec.
    """

    def __init__(self, num_time, num_space, terms=None, correction=None):
        self.num_time = int(num_time)
        self.num_space = int(num_space)
        self.terms = []
        if terms is not None:
            for coef, tmat, smat in terms:
                self.add_term(coef, tmat, smat)
        self.correction = correction

    @property
    def shape(self):
        n = self.num_time * self.num_space
        return (n, n)

    def add_term(self, coef, tmat, smat):
        if tmat.shape != (self.num_time, self.num_time):
            raise ValueError("temporal factor has wrong shape")
        if smat.shape != (self.num_space, self.num_space):
            raise ValueError("spatial factor has wrong shape")
        self.terms.append((float(coef), tmat, smat))

    def matvec(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.shape[0]:
            raise ValueError(
                "dimension mismatch: operator of size %d applied to vector of size %d"
                % (self.shape[0], x.size)
            )
        out = np.zeros_like(x)
        for coef, tmat, smat in self.terms:
            out += coef * two_factor_matvec(
                tmat, smat, x, self.num_time, self.num_space
            )
        if self.correction is not None:
            out += self.correction @ x
        return out

    def tosparse(self):
        """Materialize the operator as a CSR matrix (for the tests' dense oracles)."""
        acc = None
        for coef, tmat, smat in self.terms:
            term = coef * sp.kron(tmat, smat, format="csr")
            acc = term if acc is None else acc + term
        if self.correction is not None:
            corr = self.correction
            if hasattr(corr, "tosparse"):
                corr = corr.tosparse()
            corr = sp.csr_matrix(corr)
            acc = corr if acc is None else acc + corr
        if acc is None:
            acc = sp.csr_matrix(self.shape)
        return sp.csr_matrix(acc)
