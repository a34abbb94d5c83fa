"""Brute-force reference computations used to cross-check the assembly paths.

Everything here works with dense or sparse matrices and explicit pointwise
basis evaluation; nothing is shared with the Kronecker-structured production
code beyond the univariate basis recursion itself, of which
:func:`scalar_basis_ders` keeps a one-point scalar copy, and the scattered
tensor-product evaluation of :func:`~monoiga.bspline.tensor_at`.
:func:`iterate_on_grid` is the exception: it evaluates an arbitrary pair of
fields by the library's own contractions, for the kernels that read an
:class:`~monoiga.assembly.IterateOnGrid`.
"""

import numpy as np
import scipy.sparse as sp

from monoiga.assembly import (
    GramKernel,
    IterateOnGrid,
    QuadratureRule,
    WeightedMass,
    contract_space,
    evaluate_field,
)
from monoiga.bspline import tensor_at
from monoiga.tensorops import mode_apply


def scalar_basis_ders(knots, p, x, nders):
    """One-point Cox-de Boor recursion with derivatives (Piegl & Tiller,
    A2.1-A2.3), written with scalar loops.

    Returns ``(first, ders)`` where ``ders[k, j]`` is the k-th derivative of
    basis function ``first + j`` at ``x``.
    """
    n = knots.size - p - 1
    if x >= knots[n]:
        span = n - 1
    else:
        span = max(int(np.searchsorted(knots, x, side="right")) - 1, p)
    ndu = np.empty((p + 1, p + 1))
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, nders + 1):
        ders[k, :] *= fac
        fac *= p - k
    return span - p, ders


def dense_basis_values(space, points, order=0):
    """Dense (npts, dim) matrix of basis derivative values, built pointwise."""
    points = np.atleast_1d(points)
    out = np.zeros((points.size, space.dimension))
    for m, x in enumerate(points):
        first, vals = space.eval_basis(float(x), order)
        out[m, first : first + space.degree + 1] = vals
    return out


def dense_univariate(space, order_test=0, order_trial=0, weight=None, npoints=None, cells=None):
    """Dense Gram matrix by straightforward per-point accumulation."""
    if cells is None:
        cells = space.breakpoints
    rule = QuadratureRule(cells, npoints or space.degree + 1)
    pts = rule.points
    w = rule.flat_weights.copy()
    if weight is not None:
        w = w * np.asarray(weight(pts), dtype=float)
    Bi = dense_basis_values(space, pts, order_test)
    Bj = dense_basis_values(space, pts, order_trial)
    n = space.dimension
    out = np.zeros((n, n))
    for q in range(pts.size):
        out += w[q] * np.outer(Bi[q], Bj[q])
    return out


def dense_space_time_basis(space_time, eta_points, space_orders, time_order):
    """Dense (npts, N_dof) space-time basis matrix, constrained in time.

    ``eta_points`` has columns (eta_1, ..., eta_d, tau); derivatives are
    parametric.
    """
    st = space_time
    d = st.num_spatial_dims
    npts = eta_points.shape[0]
    cols = []
    time_vals = dense_basis_values(st.time, eta_points[:, d], time_order)[:, 1:]
    space_vals = [
        dense_basis_values(st.spatial[l], eta_points[:, l], space_orders[l])
        for l in range(d)
    ]
    out = np.empty((npts, st.num_dof))
    for g in range(st.num_dof):
        it, rem = divmod(g, st.num_space)
        col = time_vals[:, it].copy()
        for l in range(d):
            nl = st.spatial[l].dimension
            il = rem % nl
            rem //= nl
            col *= space_vals[l][:, il]
        out[:, g] = col
    return out


def space_time_quadrature(space_time, npoints=None, extra_breaks=None):
    """Tensor quadrature grid over the parametric space-time box.

    Returns ``(points, weights)`` with points in columns
    (eta_1, ..., eta_d, tau); weights are parametric (no Jacobian factors).
    """
    st = space_time
    d = st.num_spatial_dims
    if extra_breaks is None:
        extra_breaks = [None] * (d + 1)
    rules = [
        QuadratureRule.for_space(s, npoints=npoints, extra_breaks=eb)
        for s, eb in zip(list(st.spatial) + [st.time], extra_breaks)
    ]
    grids = np.meshgrid(*[r.points for r in rules], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*[r.flat_weights for r in rules], indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.reshape(-1)
    return pts, w


def dense_weighted_space_time_mass(
    space_time, geo, weight_at, npoints=None, extra_breaks=None,
    space_orders=None, time_order=0,
):
    """Dense matrix of ``int int w(eta, tau) D^a B_j D^a B_i |det J| T``.

    ``weight_at`` maps parametric points (npts, d + 1) to values.  Derivative
    orders are parametric; the measure carries the geometry Jacobian and the
    final-time scaling.
    """
    st = space_time
    d = st.num_spatial_dims
    if space_orders is None:
        space_orders = [0] * d
    pts, w = space_time_quadrature(st, npoints=npoints, extra_breaks=extra_breaks)
    jac = geo.jacobian(pts[:, :d])
    det = np.abs(np.linalg.det(jac))
    vals = np.asarray(weight_at(pts), dtype=float)
    B = dense_space_time_basis(st, pts, space_orders, time_order)
    scale = w * det * vals * geo.final_time
    return (B * scale[:, None]).T @ B


def fd_gradient(fn, x, step=1e-6):
    """Central finite-difference gradient of a scalar/vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = step
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * step))
    return np.stack(cols, axis=-1)


def band_csr(kernel, weights):
    """The Gram matrix of a :class:`~monoiga.assembly.GramKernel` as a CSR matrix.

    Every band entry of :meth:`~monoiga.assembly.GramKernel.band_values`
    whose column lies in the matrix is stored, zeros included, so the
    values are the kernel's and the storage is that of the matrix's full
    band.
    """
    sizes, bands = kernel.pattern.sizes, kernel.pattern.bands
    vals = kernel.band_values(weights).reshape(
        [x for n, b in zip(sizes, bands) for x in (n, 2 * b + 1)]
    )
    idx = np.indices(vals.shape)
    rows = idx[0::2]
    cols = [i + o - b for i, o, b in zip(idx[0::2], idx[1::2], bands)]
    valid = np.all([(j >= 0) & (j < n) for j, n in zip(cols, sizes)], axis=0)
    shape = (int(np.prod(sizes)),) * 2
    rows = np.ravel_multi_index([r[valid] for r in rows], sizes)
    cols = np.ravel_multi_index([j[valid] for j in cols], sizes)
    return sp.coo_matrix((vals[valid], (rows, cols)), shape=shape).tocsr()


def band_matrix(A):
    """A dense square matrix as a :class:`~monoiga.assembly.BandMatrix` of one full band.

    The Gram matrix ``I^T diag(1) A`` of the 1D kernel, whose entries are
    those of ``A``; a matrix of tests that need any band matrix.
    """
    n = A.shape[0]
    return GramKernel([np.eye(n)], [A])(np.ones(n))


def weighted_mass_sparse(mass):
    """A :class:`~monoiga.assembly.WeightedMass` assembled as a CSR matrix.

    Time is the slowest direction of :class:`~monoiga.assembly.GramKernel`
    (see :func:`band_csr`); a mass of stacked weights is the sum of one
    such matrix per term.
    """
    space = mass.space_collocs[::-1]
    grams = [
        band_csr(GramKernel([mass.time_colloc] + space, [trial] + space), weights)
        for weights, trial in mass.terms
    ]
    return sp.csr_matrix(sum(grams[1:], grams[0]))


def iterate_on_grid(space_time, u, w, spatial_data, time_data):
    """``u`` and ``w`` on a quadrature grid as an :class:`~monoiga.assembly.IterateOnGrid`.

    Each field is contracted in space, then in time, on its own, so ``w``
    need not be the recovery map of ``u``; the solver's workspace evaluates
    both from one spatial contraction of ``u`` instead.  Both fields are
    the slots of the evaluation's ``stack``, as in the workspace's.
    """
    u_s = contract_space(space_time, u, spatial_data.c0)
    w_s = contract_space(space_time, w, spatial_data.c0)
    ct = time_data.c0
    stack = np.stack([mode_apply(ct, u_s, 0), mode_apply(ct, w_s, 0)])
    return IterateOnGrid(u_s, stack)


def kronecker_sparse(op):
    """A :class:`~monoiga.assembly.KroneckerOperator` materialized as CSR.

    The sum of ``c_k kron(T_k, S_k)`` over its terms plus its correction.
    """
    acc = sp.csr_matrix(op.shape)
    for coef, tmat, smat in op.terms:
        acc = acc + coef * sp.kron(tmat, smat.toarray(), format="csr")
    corr = op.correction
    if isinstance(corr, WeightedMass):
        corr = weighted_mass_sparse(corr)
    if corr is not None:
        acc = acc + sp.csr_matrix(corr)
    return sp.csr_matrix(acc)


def field_derivatives(space_time, geo, coeffs, points):
    """Value, physical time derivative and physical Laplacian at scattered points.

    ``points`` are parametric space-time points (m, d + 1).  The Laplacian
    is the trace of the physical Hessian ``J^{-T} (H_eta u - sum_c
    (grad_x u)_c H_c) J^{-1}``, with ``grad_x u = J^{-T} grad_eta u`` and the
    map's Jacobian ``J`` and Hessians ``H_c`` at the points.  Returns a dict
    with keys ``value``, ``dt`` and ``laplacian``.
    """
    st = space_time
    d = st.num_spatial_dims
    points = np.atleast_2d(np.asarray(points, dtype=float))
    full = np.zeros((st.time.dimension,) + st.spatial_shape)
    full[1:] = np.asarray(coeffs, dtype=float).reshape(st.coeff_shape)
    spaces = list(st.spatial) + [st.time]

    def at(space_orders, time_order=0):
        return tensor_at(spaces, full, points, list(space_orders) + [time_order])

    unit = np.eye(d, dtype=int)
    grad = np.array([at(unit[a]) for a in range(d)]).T
    hess_u = np.array(
        [[at(unit[a] + unit[b]) for b in range(d)] for a in range(d)]
    ).transpose(2, 0, 1)
    eta = points[:, :d]
    jinv = np.linalg.inv(geo.jacobian(eta))
    grad_x = np.einsum("mac,ma->mc", jinv, grad)
    inner = hess_u - np.einsum("mc,mcab->mab", grad_x, geo.hessian(eta))
    return {
        "value": at([0] * d),
        "dt": at([0] * d, 1) / geo.final_time,
        "laplacian": np.einsum("mai,mab,mbi->m", jinv, inner, jinv),
    }


def strong_residual(problem, u, w, points):
    """Pointwise strong residual of the potential equation at the iterates.

    ``C_m u_t - D lap u + c1 u (u - a)(u - 1) + c2 u w - f`` at parametric
    space-time ``points``, with the physical time derivative and Laplacian
    of :func:`field_derivatives`.
    """
    st = problem.space
    geo = problem.geometry
    points = np.atleast_2d(np.asarray(points, dtype=float))
    fields = field_derivatives(st, geo, u, points)
    u_val = fields["value"]
    w_val = evaluate_field(st, w, points)
    d = st.num_spatial_dims
    f = 0.0
    if problem.source is not None:
        x = geo.evaluate(points[:, :d])
        f = np.asarray(problem.source(x, points[:, d] * geo.final_time), dtype=float)
        f = f.reshape(-1)
    return (
        problem.C_m * fields["dt"]
        - problem.D * fields["laplacian"]
        + problem.c1 * u_val * (u_val - problem.a) * (u_val - 1.0)
        + problem.c2 * u_val * w_val
        - f
    )


def support_extension(space_time, spatial_index, time_index):
    """Support-extension box of the basis function (``spatial_index``, ``time_index``).

    ``spatial_index`` is a multi-index, direction 1 first, and
    ``time_index`` addresses the constrained temporal basis.  Returns one
    interval per direction, the spatial ones first, each the
    :meth:`~monoiga.bspline.SplineSpace.extension_window` of its index.  The
    temporal window is that of full-basis function ``time_index``, the
    index of the indicator's temporal windows.
    """
    intervals = [
        s.extension_window(i) for i, s in zip(spatial_index, space_time.spatial)
    ]
    intervals.append(space_time.time.extension_window(time_index))
    return intervals
