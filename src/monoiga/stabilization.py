"""Spline Upwind stabilization machinery.

The stabilizer adds scaled k-th time-derivative Gram matrices, switched on by
a residual indicator sampled on the Greville grid, compressed to low rank and
interpolated piecewise linearly back onto the domain.  The indicator reads
the strong residual on the default Gauss grid of the assembly's quadrature
data (:class:`SpatialQuadratureData`, :class:`TimeQuadratureData`), which a
solver shares with its reaction mass and load vector.
"""

import numpy as np

from .assembly import (
    GramKernel,
    QuadratureRule,
    SpatialQuadratureData,
    contract_space,
    reaction_coefficient,
)
from .bspline import KnotVector, SplineSpace
from .tensorops import abs_max, kron_apply, mode_apply

__all__ = [
    "StabilizationError",
    "StabilizationWeights",
    "ResidualIndicator",
    "LowRankIndicator",
    "StabilizationGrid",
    "compute_tau",
    "compute_theta",
    "lowrank_factorize",
    "assemble_stabilization",
]

TAU_RESIDUAL_LIMIT = 1e-8


class StabilizationError(RuntimeError):
    """Raised when the stabilizer cannot be constructed reliably."""


def _max_smoothness_knots(breakpoints, degree):
    interior = np.asarray(breakpoints, dtype=float)[1:-1]
    return np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )


class StabilizationWeights:
    """Upwind weight functions, one per time-derivative order.

    The weight of order ``k`` is a spline of degree ``p_t - k`` with maximal
    smoothness on the temporal breakpoints, stored in parametric form (the
    physical weight rescales by powers of the final time, which cancel in the
    assembled Gram matrices).
    """

    def __init__(self, time_space, spaces, coeffs, residual):
        self.time_space = time_space
        self.degree = time_space.degree
        self.spaces = tuple(spaces)
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        self.residual = float(residual)

    def evaluate(self, k, points):
        """Values of the order-``k`` weight (1-based) at parametric points."""
        if not 1 <= k <= self.degree:
            raise ValueError("weight order %d not in [1, %d]" % (k, self.degree))
        return self.spaces[k - 1].collocation_matrix(points, 0) @ self.coeffs[k - 1]


def compute_tau(time_space):
    """Solve the orthogonality conditions for the upwind weight functions.

    For the constrained temporal basis (first function removed), the weights
    are chosen so every near-diagonal advection entry is cancelled by the sum
    of weighted k-th derivative Gram entries.  The stacked conditions are
    solved as one dense least-squares system; the relative residual is kept
    as a diagnostic and must not exceed ``1e-8``.
    """
    p = time_space.degree
    if p < 1:
        raise ValueError("temporal degree must be >= 1")
    nt = time_space.dimension - 1
    if nt < 2:
        raise ValueError("need at least two constrained temporal functions")
    spaces = [
        SplineSpace(KnotVector(_max_smoothness_knots(time_space.breakpoints, p - k), p - k))
        for k in range(1, p + 1)
    ]
    rule = QuadratureRule.for_space(time_space, npoints=2 * p)
    pts = rule.points
    w = rule.flat_weights
    basis = time_space.collocation_matrices(pts, p)
    phis = [s.collocation_matrix(pts, 0) for s in spaces]
    dims = [s.dimension for s in spaces]
    offsets = np.concatenate([[0], np.cumsum(dims)])

    # Conditions over all near-diagonal pairs (i, i + ell), ell = 1..p, of
    # the full temporal basis, ordered by i and then ell: this makes the
    # system exactly square; the conditions restricted to the constrained
    # basis (first function removed) are a subset.
    n_full = time_space.dimension
    first, ell = np.nonzero(
        np.arange(n_full - 1)[:, None] + np.arange(1, p + 1)[None, :] < n_full
    )
    second = first + ell + 1
    # Basis values per function, shape (n_full, Q), so a pair's row of
    # quadrature values is contiguous.
    rows_of = [c.T for c in basis]
    G = np.empty((first.size, offsets[-1]))
    for k in range(1, p + 1):
        pair = w * rows_of[k][second] * rows_of[k][first]
        G[:, offsets[k - 1] : offsets[k]] = pair @ phis[k - 1]
    b = -np.sum(w * rows_of[1][second] * rows_of[0][first], axis=1)
    # Column equilibration: the weight of order k scales like h^(1-2k), so
    # the raw least-squares problem is badly conditioned on fine meshes.
    col = np.linalg.norm(G, axis=0)
    col[col == 0.0] = 1.0
    sol, *_ = np.linalg.lstsq(G / col, b, rcond=None)
    sol = sol / col
    scale = max(np.max(np.abs(b)), 1e-300)
    residual = np.max(np.abs(G @ sol - b)) / scale
    if residual > TAU_RESIDUAL_LIMIT:
        raise StabilizationError(
            "upwind weight conditions not satisfied (residual %.3e)" % residual
        )
    coeffs = [sol[offsets[k] : offsets[k + 1]] for k in range(p)]
    return StabilizationWeights(time_space, spaces, coeffs, residual)


def _residual(problem, res, u_t, lap, f):
    """The strong residual ``C_m u_t - D lap + c u - f`` from ``res = c u``.

    ``res`` holds the reaction term (the reaction coefficient of
    :func:`~monoiga.assembly.reaction_coefficient` times ``u``) and receives
    the rest in place; ``u_t`` is the physical time derivative and ``lap``
    the physical Laplacian, both scaled in place, and ``f`` is the source
    sampled at the same points, or None.  On grids of the solver's size
    each fresh temporary costs more than the arithmetic.
    """
    lap *= problem.D
    res -= lap
    u_t *= problem.C_m
    res += u_t
    if f is not None:
        res -= f
    return res


class ResidualIndicator:
    """Clamped residual-to-solution-scale ratios on the Greville grid.

    ``values`` is the ``N_t x N_s`` matrix of indicator entries (rows indexed
    by the constrained temporal Greville abscissae, columns colexicographic
    over the spatial Greville grid); every entry lies in [0, 1].
    ``denominator_vanished`` records that the solution scale was zero (a
    quiescent iterate, as on the first step), so every entry with a nonzero
    residual was set to 1.
    """

    def __init__(
        self,
        values,
        time_greville,
        spatial_grevilles,
        spatial_shape,
        denominator_vanished=False,
    ):
        self.values = np.asarray(values, dtype=float)
        self.time_greville = np.asarray(time_greville, dtype=float)
        self.spatial_grevilles = [np.asarray(g, dtype=float) for g in spatial_grevilles]
        self.spatial_shape = tuple(spatial_shape)
        self.denominator_vanished = bool(denominator_vanished)

    @property
    def max(self):
        return float(self.values.max(initial=0.0))


def compute_theta(problem, u, on_grid, spatial_data, time_data):
    """Residual indicator on the Greville grid of the discrete space.

    The numerator of each entry is the maximum absolute strong residual over
    the Gauss points of every element intersecting the basis function's
    support extension; the denominator combines the global maxima of the
    iterate and of its time derivative.  Entries are clamped to [0, 1]; a
    vanishing denominator yields 0 where the numerator also vanishes and 1
    where it does not, and is recorded as ``denominator_vanished``.

    ``spatial_data`` and ``time_data`` are the default (``degree + 1``
    points) quadrature data of the problem, which a solver shares with its
    reaction mass and load vector, and ``on_grid`` is the
    :class:`~monoiga.assembly.IterateOnGrid` of ``u`` and its recovery
    field on that grid, which a solver evaluates once per step.  Its
    spatial contraction of ``u`` gives the time derivative by one temporal
    contraction.  The Laplacian's terms, whose coefficients do not depend
    on time, are contracted in space and summed on the spatial grid before
    one temporal contraction.  The time derivative, the Laplacian and the
    residual are formed by slabs of temporal elements (see
    :meth:`~monoiga.assembly.TimeQuadratureData.slabs`), and each slab's
    residual is reduced to its element maxima before the next, so no
    derivative or residual of the whole grid is held.
    """
    st = problem.space
    T = problem.final_time
    collocs = (spatial_data.c0, spatial_data.c1, spatial_data.c2)
    lap_s = None
    for orders, c in spatial_data.laplacian:
        term = contract_space(st, u, [collocs[o][l] for l, o in enumerate(orders)])
        term *= c
        if lap_s is None:
            lap_s = term
        else:
            lap_s += term
        del term
    f = None
    if problem.source is not None:
        f = spatial_data.sample(problem.source, time_data)

    # The residual and its element maxima, by slabs of temporal elements;
    # the points reduce to element maxima, outer axis first, each on a
    # contiguous (leading, points, trailing) view: axes (E_t, E_d, ..., E_1).
    rules = [time_data.rule] + spatial_data.rules[::-1]
    npts = time_data.rule.npoints
    constants = problem.reaction_constants()
    emax = np.empty(tuple(r.num_cells for r in rules))
    dt_max = 0.0
    for rows in time_data.slabs(spatial_data.measure.size):
        cells = slice(rows.start // npts, rows.stop // npts)
        # The reaction term first, so that its temporaries are freed before
        # the derivatives are formed.
        u_vals = on_grid.u[rows]
        res = reaction_coefficient(constants, u_vals, on_grid.w[rows])
        res *= u_vals
        u_dt = mode_apply(time_data.c1[rows], on_grid.space, 0)
        dt_max = max(dt_max, abs_max(u_dt))
        u_dt /= T
        lap = mode_apply(time_data.c0[rows], lap_s, 0)
        _residual(problem, res, u_dt, lap, None if f is None else f[rows])
        del u_dt, lap
        slab = np.abs(res, out=res)
        lead = 1
        for n, r in zip(emax[cells].shape, rules):
            lead *= n
            slab = slab.reshape(lead, r.npoints, -1).max(axis=1)
        emax[cells] = slab.reshape(emax[cells].shape)
    denom = problem.C_m * (abs_max(on_grid.u) / T + dt_max / T)

    # Window the element maxima per axis: one gather of the padded window
    # table, then a max over the window.
    tables = [time_data.windows] + spatial_data.windows[::-1]
    out = emax
    lead = 1
    for r, table in zip(rules, tables):
        out = out.reshape(lead, r.num_cells, -1)[:, table].max(axis=2)
        lead *= table.shape[0]

    numer = out.reshape(st.num_time, st.num_space)
    if denom > 0.0:
        theta = np.minimum(numer / denom, 1.0)
    else:
        # Zero denominator (quiescent iterate): activate fully where the
        # residual is genuinely nonzero; a relative floor keeps float-level
        # source tails from switching the whole domain on.
        theta = np.zeros_like(numer)
        hot = numer > 1e-12 * numer.max(initial=0.0)
        if np.any(hot) and numer.max(initial=0.0) > 0.0:
            theta[hot] = 1.0
    return ResidualIndicator(
        theta,
        time_data.greville,
        spatial_data.greville,
        st.spatial_shape,
        denominator_vanished=not denom > 0.0,
    )


def _hat_matrix(nodes, points):
    """Piecewise-linear interpolation from ``nodes`` to ``points``, dense.

    Row ``q`` holds the two hat-function values at ``points[q]``, clipped to
    ``[nodes[0], nodes[-1]]``; ``nodes`` must be strictly increasing.
    """
    x = np.clip(np.asarray(points, dtype=float), nodes[0], nodes[-1])
    cell = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    t = (x - nodes[cell]) / (nodes[cell + 1] - nodes[cell])
    rows = np.arange(x.size)
    H = np.zeros((x.size, nodes.size))
    H[rows, cell] = 1.0 - t
    H[rows, cell + 1] = t
    return H


def multilinear_grid(nodes, values, axes):
    """Multilinear interpolation from one tensor grid onto another.

    ``values`` holds the data on the grid of ``nodes`` (one strictly
    increasing array per direction, direction 1 first) in C order
    (direction d first), after any leading batch axes; ``axes`` lists the
    query points per direction, which are clipped to the node hull.
    Multilinear interpolation at tensor query points is the product of one
    piecewise-linear hat matrix per direction.
    """
    return kron_apply([_hat_matrix(n, a) for n, a in zip(nodes, axes)], values)


class LowRankIndicator:
    """Truncated SVD factorization of the residual indicator.

    ``time_factors`` and ``space_factors`` have orthonormal columns; the
    retained singular values sit in ``weights``, so the indicator is close to
    ``(time_factors * weights) @ space_factors.T``.  Piecewise-linear
    profiles interpolate the factor columns on the Greville grids.
    """

    def __init__(self, indicator, rank, time_factors, space_factors, weights):
        self.indicator = indicator
        self.rank = int(rank)
        self.time_factors = time_factors
        self.space_factors = space_factors
        self.weights = weights

    def time_profile(self, r, points):
        """Piecewise-linear temporal profile of column ``r``."""
        return np.interp(
            np.asarray(points, dtype=float),
            self.indicator.time_greville,
            self.time_factors[:, r],
        )


def lowrank_factorize(indicator, tol):
    """Smallest-rank truncated SVD meeting the relative Frobenius tolerance."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    theta = indicator.values
    norm = np.linalg.norm(theta)
    if norm == 0.0:
        nt, ns = theta.shape
        return LowRankIndicator(
            indicator, 0, np.zeros((nt, 0)), np.zeros((ns, 0)), np.zeros(0)
        )
    U, s, Vt = np.linalg.svd(theta, full_matrices=False)
    tail = np.sqrt(np.concatenate([np.cumsum(s[::-1] ** 2)[::-1], [0.0]]))
    rank = int(np.argmax(tail <= tol * norm))
    rank = max(rank, 1)
    return LowRankIndicator(
        indicator, rank, U[:, :rank], Vt[:rank].T.copy(), s[:rank].copy()
    )


class StabilizationGrid:
    """Stabilizer quadrature data that depends only on the space and ``tau``.

    Quadrature cells are subdivided at the Greville abscissae so the
    piecewise-linear indicator profiles are integrated on their smoothness
    cells.  The temporal data of the derivative orders ``k = 1..p_t`` are
    stacked, one block of rows per order, so that the sum over ``k`` of the
    weighted Gram matrices is one Gram matrix: ``time_colloc`` stacks the
    constrained ``k``-th derivative collocation matrices, ``time_weights``
    the quadrature weights times the order-``k`` upwind weight ``tau``, and
    ``time_points`` repeats the rule's nodes once per block, and
    ``time_gram`` holds the pair products of ``time_colloc``.  Also holds
    the spatial quadrature data, whose mass kernel keeps its own, and
    ``space_hats``, the hat matrices per direction that interpolate from the
    spatial Greville abscissae (the nodes of every indicator of the space)
    to the grid's points.  A solver builds one grid and reuses it for every
    indicator.
    """

    def __init__(self, tau, space_time, geo):
        st = space_time
        p = st.time.degree
        trule = QuadratureRule.for_space(
            st.time, npoints=p + 2, extra_breaks=st.time_greville()
        )
        nodes = trule.points
        orders = range(1, p + 1)
        self.time_points = np.tile(nodes, p)
        self.time_weights = np.concatenate(
            [trule.flat_weights * tau.evaluate(k, nodes) for k in orders]
        )
        self.time_colloc = np.vstack(st.time_collocations(nodes, p)[1:])
        self.time_gram = GramKernel([self.time_colloc], [self.time_colloc])
        self.spatial_data = SpatialQuadratureData(
            st.spatial,
            geo,
            npoints=max(s.degree for s in st.spatial) + 2,
            extra_breaks=[s.greville() for s in st.spatial],
        )
        self.space_hats = [
            _hat_matrix(s.greville(), r.points)
            for s, r in zip(st.spatial, self.spatial_data.rules)
        ]


def assemble_stabilization(lowrank, grid, capacitance, eigenvectors):
    """The low-rank stabilizer's operator and preconditioner terms.

    For every retained rank ``r`` of ``lowrank``, ``S^t_r`` is the sum over
    the derivative orders ``k`` of the ``k``-th derivative Gram matrices
    weighted by the upwind weight and the temporal profile, and ``S^s_r`` the
    spatial mass matrix of the weight grid ``W_r`` (measure times spatial
    profile), both integrated on the :class:`StabilizationGrid` ``grid``.
    All temporal integrals are parametric: the powers of the final time
    carried by the upwind weights cancel against the derivative and measure
    scalings.

    Returns ``(terms, precond_terms)``: the operator's Kronecker terms
    ``(C_m sigma_r, S^t_r, S^s_r)`` and the preconditioner's
    ``(S^t_r, C_m sigma_r d_r)``, with ``S^t_r`` dense and ``S^s_r`` a
    :class:`~monoiga.assembly.BandMatrix`, where ``d_r = diag(U^T S^s_r U)``
    in the spatial eigenbasis ``U`` of ``eigenvectors`` (the preconditioner's
    factors, see :class:`~monoiga.linalg.FastDiagPreconditioner`).  With one
    factor ``U_l`` per direction (direction 1 first) and the grid's
    collocations ``C_l``, ``d_r[k] = sum_q W_r[q] prod_l (C_l U_l)[q_l, k_l]^2``:
    contracting ``W_r`` with ``((C_l U_l)^2)^T`` one axis at a time (sum
    factorization) gives it without forming ``U`` or any ``N_s x N_s``
    matrix.  A single factor over every direction is dense already, and
    ``d_r`` is read from ``S^s_r U``, which the band kernel applies.  The
    spatial profiles of all ranks are interpolated together through the
    grid's hat matrices, and the ``S^s_r`` are assembled into the slots of
    one stack (:meth:`~monoiga.assembly.SpatialQuadratureData.mass_stack`),
    which an operator's :meth:`~monoiga.assembly.KroneckerOperator.plus`
    takes without a copy.  Both lists are empty at rank zero.
    """
    sd = grid.spatial_data
    d = len(sd.c0)
    tables = None
    if len(eigenvectors) == d:
        tables = [((c @ U) ** 2).T for c, U in zip(sd.c0, eigenvectors)]
    else:
        (U,) = eigenvectors
    rank = lowrank.rank
    factors = lowrank.space_factors.T.reshape((rank,) + lowrank.indicator.spatial_shape)
    profiles = kron_apply(grid.space_hats, factors)
    smats = sd.mass_stack(rank)
    terms = []
    precond_terms = []
    for r in range(rank):
        coef = capacitance * lowrank.weights[r]
        prof_t = lowrank.time_profile(r, grid.time_points)
        tmat = grid.time_gram(grid.time_weights * prof_t).toarray()
        weights = sd.measure * profiles[r]
        smat = sd.mass(weights, out=smats[r])
        if tables is None:
            diag = np.einsum("ik,ik->k", U, smat @ U)
        else:
            diag = kron_apply(tables, weights).reshape(-1)
        terms.append((coef, tmat, smat))
        precond_terms.append((tmat, coef * diag))
    return terms, precond_terms
