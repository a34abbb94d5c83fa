"""Quadrature and Galerkin assembly for the space-time discretization.

All operators are expressed through tensor-product structure where the
geometry allows it: univariate matrices in time, Kronecker-factored or
pulled-back spatial matrices, and a :class:`KroneckerOperator` representing
sums of scaled Kronecker products plus an optional correction (the frozen
reaction term, applied matrix-free by :class:`WeightedMass`).
"""

import functools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .geometry import jacobian_inverse_and_det
from .tensorops import kron_chain, mode_apply, outer_product_grid, two_factor_matvec

__all__ = [
    "QuadratureRule",
    "UnivariateMatrices",
    "KroneckerOperator",
    "WeightedMass",
    "univariate_matrix",
    "univariate_matrices",
    "time_matrices",
    "spatial_operators",
    "reaction_mass",
    "rhs_vectors",
    "kron_matvec",
    "write_coo",
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


class SpatialQuadratureData:
    """Tensorized quadrature, basis and geometry data over the spatial box.

    Precomputes per-direction collocation matrices at the quadrature grid,
    their Kronecker products, and the pulled-back metric quantities.  Shared
    by the mass/stiffness/weighted assemblies so nonlinear sweeps do not
    re-evaluate the geometry.
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
            s.collocation_matrix(r.points, 0) for s, r in zip(self.spaces, self.rules)
        ]
        self.c1 = [
            s.collocation_matrix(r.points, 1) for s, r in zip(self.spaces, self.rules)
        ]
        # Dense copies for the matrix-free weighted mass: a dense product
        # along one axis beats the sparse one at the sizes this solver runs.
        self.c0_dense = [c.toarray() for c in self.c0]
        # Kronecker factors run from direction d down to direction 1 so the
        # flattened column index is colexicographic.
        self.ckron0 = kron_chain([self.c0[l] for l in reversed(range(d))])
        self._ckron1 = {}
        # Quadrature weight grid, C order (direction d first).
        self.wgrid = outer_product_grid(
            [r.flat_weights for r in reversed(self.rules)]
        )
        data = geo.grid_data([r.points for r in self.rules], order=1)
        self.xgrid = data["x"]
        jac = data["jac"]
        self.jinv, self.detj = jacobian_inverse_and_det(jac)
        self.grid_shape = self.wgrid.shape

    def ckron_grad(self, direction):
        """Kronecker basis matrix with the derivative in ``direction``."""
        if direction not in self._ckron1:
            d = len(self.spaces)
            mats = [
                self.c1[l] if l == direction else self.c0[l]
                for l in reversed(range(d))
            ]
            self._ckron1[direction] = kron_chain(mats)
        return self._ckron1[direction]

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
        C = self.ckron0
        return sp.csr_matrix(C.T @ sp.diags(w.reshape(-1)) @ C)

    def stiffness(self):
        """Pulled-back spatial stiffness matrix."""
        d = len(self.spaces)
        base = self.wgrid * np.abs(self.detj)
        # metric[a, b] = (J^{-1} J^{-T})_{ab}
        metric = np.einsum("...ak,...bk->...ab", self.jinv, self.jinv)
        K = None
        for a in range(d):
            Ca = self.ckron_grad(a)
            for b in range(d):
                Cb = self.ckron_grad(b)
                w = (base * metric[..., a, b]).reshape(-1)
                term = Ca.T @ sp.diags(w) @ Cb
                K = term if K is None else K + term
        return sp.csr_matrix(K)


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
        self.c0 = space_time.time_collocation(self.rule.points, 0)
        self.c1 = space_time.time_collocation(self.rule.points, 1)
        self.c0_dense = self.c0.toarray()
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
        """Assemble the operator as a CSR matrix (for direct solves and tests).

        One spatial weighted mass per temporal quadrature point, accumulated
        into the temporal blocks whose basis functions overlap there.
        """
        nt = self.coeff_shape[0]
        ct = self.time_colloc
        C = kron_chain([sp.csr_matrix(c) for c in reversed(self.space_collocs)])
        CT = sp.csc_matrix(C.T)
        smats = [
            sp.csr_matrix(CT @ sp.diags(w.reshape(-1)) @ C) for w in self.data
        ]
        active = ct != 0.0
        blocks = [[None] * nt for _ in range(nt)]
        for i, j in zip(*np.nonzero(active.T.astype(int) @ active)):
            acc = None
            for q in np.nonzero(active[:, i] & active[:, j])[0]:
                term = (ct[q, i] * ct[q, j]) * smats[q]
                acc = term if acc is None else acc + term
            blocks[i][j] = acc
        return sp.csr_matrix(sp.bmat(blocks, format="csr"))

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

    ct = time_data.c0_dense
    cs = spatial_data.c0_dense
    u_vals = field_on_grid(space_time, u_prev, ct, cs)
    w_vals = field_on_grid(space_time, w_prev, ct, cs)
    weights = c1 * (u_vals - a) * (u_vals - 1.0) + c2 * w_vals
    weights *= spatial_data.wgrid * np.abs(spatial_data.detj)
    weights *= time_data.weights.reshape((-1,) + (1,) * len(cs))
    return WeightedMass(ct, cs, weights)


def rhs_vectors(
    space_time,
    geo,
    source,
    u_prev,
    recovery_rate,
    final_time=None,
    spatial_data=None,
    time_data=None,
    mass_operator=None,
):
    """Load vector of the source and right-hand side of the recovery system.

    Returns ``(f_vec, g_vec)`` with ``f_vec[i] = int int f B_i`` and
    ``g_vec = b (M_t kron M_s) u_prev``.
    """
    if final_time is None:
        final_time = geo.final_time
    if spatial_data is None:
        spatial_data = SpatialQuadratureData(space_time.spatial, geo)
    if time_data is None:
        time_data = TimeQuadratureData(space_time, final_time)

    nt = space_time.num_time
    ns = space_time.num_space
    if source is None:
        f_vec = np.zeros(space_time.num_dof)
    else:
        xq = spatial_data.physical_points()
        tq = time_data.points * final_time
        qs = xq.shape[0]
        qt = tq.size
        fvals = np.empty((qt, qs))
        for i, t in enumerate(tq):
            fvals[i] = np.asarray(
                source(xq, np.full(qs, t)), dtype=float
            ).reshape(qs)
        ws = (spatial_data.wgrid * np.abs(spatial_data.detj)).reshape(-1)
        vals = fvals * ws[None, :] * time_data.weights[:, None]
        f_mat = np.asarray(time_data.c0.T @ vals)
        f_mat = np.asarray(spatial_data.ckron0.T @ f_mat.T).T
        f_vec = f_mat.reshape(-1)

    if mass_operator is None:
        W_t, M_t = time_matrices(space_time, final_time)
        M_s = spatial_data.mass()
        mass_operator = KroneckerOperator(nt, ns, [(1.0, M_t, M_s)])
    g_vec = recovery_rate * mass_operator.matvec(np.asarray(u_prev, dtype=float))
    return f_vec, g_vec


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
        """Materialize the operator as a sparse matrix."""
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

    def aslinearoperator(self):
        return LinearOperator(self.shape, matvec=self.matvec, dtype=float)


def kron_matvec(op, x):
    """Matrix-vector product with a :class:`KroneckerOperator`."""
    return op.matvec(x)


def write_coo(mat, path):
    """Dump a sparse matrix in coordinate text format (row, col, value)."""
    coo = sp.coo_matrix(mat)
    with open(path, "w") as fh:
        fh.write("%d %d %d\n" % (coo.shape[0], coo.shape[1], coo.nnz))
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write("%d %d %.17g\n" % (i, j, v))
