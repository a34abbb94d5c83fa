"""Structured linear algebra: eigendecompositions, the block-arrowhead
fast-diagonalization preconditioner, Krylov solvers, and the exact temporal
map that solves the recovery-variable system.

Complex arithmetic is confined to the preconditioner application; the outer
Krylov iterations stay real.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import UnivariateMatrices, time_matrices, univariate_matrix
from .tensorops import mode_apply

__all__ = [
    "DecompositionError",
    "ConsistencyError",
    "NonConvergenceError",
    "TimePencil",
    "FastDiagPreconditioner",
    "generalized_eig",
    "build_time_pencil",
    "gmres",
    "pcg",
    "solve_w_system",
]


class DecompositionError(RuntimeError):
    """Raised when a matrix decomposition fails or is unreliable."""


class ConsistencyError(RuntimeError):
    """Raised when a numerical consistency check fails."""


class NonConvergenceError(RuntimeError):
    """Iterative solver failed to reach the tolerance.

    Carries the iterate, the iteration count and the residual history.
    """

    def __init__(self, message, x=None, iterations=0, residuals=None):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residuals = residuals if residuals is not None else []


def _as_matvec(op):
    if hasattr(op, "matvec"):
        return op.matvec
    if sp.issparse(op) or isinstance(op, np.ndarray):
        return lambda x: np.asarray(op @ x).reshape(-1)
    if callable(op):
        return op
    raise TypeError("cannot interpret %r as a linear operator" % (op,))


def _as_psolve(precond):
    if precond is None:
        return lambda x: x
    if hasattr(precond, "apply"):
        return precond.apply
    if sp.issparse(precond) or isinstance(precond, np.ndarray):
        return lambda x: np.asarray(precond @ x).reshape(-1)
    if callable(precond):
        return precond
    raise TypeError("cannot interpret %r as a preconditioner" % (precond,))


def generalized_eig(K, M):
    """M-orthonormal generalized eigendecomposition of the pencil ``(K, M)``.

    Returns ``(U, lam)`` with ``K U = M U diag(lam)``, ``U^T M U = I`` and
    eigenvalues ascending.  ``M`` must be symmetric positive definite.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    try:
        lam, U = sla.eigh(Kd, Md)
    except sla.LinAlgError as exc:
        raise DecompositionError(
            "generalized eigendecomposition failed: %s" % exc
        ) from exc
    return U, lam


class TimePencil:
    """Eigen-structure of the temporal advection/mass pencil with bordering.

    The interior advection block is skew-symmetric (no basis function of the
    constrained space except the last one is active at the final time), so
    the whitened pencil is normal: the complex eigenvector matrix is exactly
    mass-orthonormal and the eigenvalues are purely imaginary.  The border
    column extends the basis so the congruence of the full advection matrix
    becomes an arrowhead matrix.
    """

    def __init__(self, U_full, eigenvalues, border, rho, v, g, sigma, delta):
        self.U_full = U_full
        self.eigenvalues = eigenvalues
        self.border = border
        self.rho = rho
        self.v = v
        self.g = g
        self.sigma = sigma
        self.delta = delta

    @property
    def dimension(self):
        return self.U_full.shape[0]

    @property
    def off_arrow_max(self):
        """Largest entry of the congruence outside the arrowhead pattern."""
        D = self.delta.copy()
        np.fill_diagonal(D, 0.0)
        D[:, -1] = 0.0
        D[-1, :] = 0.0
        return float(np.max(np.abs(D), initial=0.0))


def build_time_pencil(W_t, M_t, cond_limit=1e12):
    """Eigendecompose the bordered temporal pencil.

    Parameters are the constrained advection and mass matrices in physical
    time.  Raises :class:`DecompositionError` when the eigenvector matrix is
    too ill-conditioned to trust.
    """
    W = W_t.toarray() if sp.issparse(W_t) else np.asarray(W_t, dtype=float)
    M = M_t.toarray() if sp.issparse(M_t) else np.asarray(M_t, dtype=float)
    nt = W.shape[0]
    if nt < 2:
        raise ValueError("temporal dimension must be at least 2")
    Wi = W[:-1, :-1]
    Mi = M[:-1, :-1]
    w = W[:-1, -1]
    m = M[:-1, -1]
    try:
        L = sla.cholesky(Mi, lower=True)
    except sla.LinAlgError as exc:
        raise DecompositionError("temporal mass block not SPD: %s" % exc) from exc
    S = sla.solve_triangular(L, Wi, lower=True)
    S = sla.solve_triangular(L, S.T, lower=True).T
    S = 0.5 * (S - S.T)
    mu, Q = sla.eigh(1j * S)
    lam = -1j * mu
    U_int = sla.solve_triangular(L.T, Q, lower=False)
    v = sla.cho_solve((L, True), -m)
    s = float(v @ Mi @ v + 2.0 * (v @ m) + M[-1, -1])
    if s <= 0:
        raise DecompositionError("temporal mass matrix not positive definite")
    norm = np.sqrt(s)
    t = v / norm
    rho = 1.0 / norm
    U_full = np.zeros((nt, nt), dtype=complex)
    U_full[:-1, :-1] = U_int
    U_full[:-1, -1] = t
    U_full[-1, -1] = rho
    g = U_int.conj().T @ (Wi @ t + rho * w)
    tr = np.concatenate([t, [rho]])
    sigma = complex(tr.conj() @ (W @ tr))
    delta = U_full.conj().T @ W @ U_full
    cond = np.linalg.cond(U_full)
    if cond > cond_limit:
        raise DecompositionError(
            "temporal pencil eigenvectors ill-conditioned (cond %.3e)" % cond
        )
    return TimePencil(U_full, lam, t, rho, v, g, sigma, delta)


class FastDiagPreconditioner:
    """Fast-diagonalization preconditioner for the potential system.

    Inverts the parametric-domain surrogate operator (advection kron mass
    plus mass kron stiffness plus a constant reaction) exactly: per-direction
    generalized eigentransforms reduce it to independent small arrowhead
    systems solved by a Schur complement on the last temporal block.
    """

    def __init__(self, spatial_eigs, lam_s, pencil, capacitance, diffusion, reaction):
        self.spatial_eigs = spatial_eigs
        self.lam_s = lam_s
        self.pencil = pencil
        self.capacitance = float(capacitance)
        self.diffusion = float(diffusion)
        self.reaction = float(reaction)
        self.num_time = pencil.dimension
        self.num_space = lam_s.size
        self._shape_c = (self.num_time,) + tuple(
            U.shape[0] for U, _ in reversed(spatial_eigs)
        )

    @staticmethod
    def _separable_weights(spatial_data):
        """Separable (rank-one) approximations of the pulled-back measures.

        Returns per-direction weight vectors on the quadrature points:
        ``mass[l]`` approximating ``|det J|`` multiplicatively and
        ``stiff[l]`` approximating the metric coefficient
        ``(J^{-1} J^{-T})_{ll} |det J|`` relative to the other directions'
        mass weights.  Both reduce to ones on identity maps.
        """
        d = len(spatial_data.spaces)
        detj = np.abs(spatial_data.detj)
        log_detj = np.log(detj)
        grand = log_detj.mean()
        mass = []
        for l in range(d):
            axis = d - 1 - l
            other_axes = tuple(a for a in range(d) if a != axis)
            main = log_detj.mean(axis=other_axes) if other_axes else log_detj
            mass.append(np.exp(main - grand + grand / d))
        stiff = []
        for l in range(d):
            axis = d - 1 - l
            coeff = detj * spatial_data.metric_diag(l)
            denom = np.ones_like(coeff)
            for m in range(d):
                if m == l:
                    continue
                shape = [1] * d
                shape[d - 1 - m] = mass[m].size
                denom = denom * mass[m].reshape(shape)
            ratio = coeff / denom
            other_axes = tuple(a for a in range(d) if a != axis)
            stiff.append(ratio.mean(axis=other_axes) if other_axes else ratio)
        return mass, stiff

    @classmethod
    def build(
        cls,
        space_time,
        final_time,
        capacitance,
        diffusion,
        reaction,
        spatial_data=None,
    ):
        """Assemble the surrogate factors and their eigendecompositions.

        Without geometry data the factors are the plain parametric univariate
        matrices.  When quadrature data of a mapped geometry is supplied, the
        univariate factors absorb separable approximations of the pulled-back
        measure and metric, which keeps the Kronecker structure while
        tracking strong geometry contrast; on identity maps the weights are
        one and the surrogate is unchanged.
        """
        d = space_time.num_spatial_dims
        dims = [s.dimension for s in space_time.spatial]
        if spatial_data is not None:
            w_mass, w_stiff = cls._separable_weights(spatial_data)
        spatial_eigs = []
        for l, s in enumerate(space_time.spatial):
            if spatial_data is None:
                mats = UnivariateMatrices(s)
                M_l, K_l = mats.mass, mats.stiffness
            else:
                rule = spatial_data.rules[l]
                M_l = univariate_matrix(s, 0, 0, weight=w_mass[l], rule=rule)
                K_l = univariate_matrix(s, 1, 1, weight=w_stiff[l], rule=rule)
            U, lam = generalized_eig(K_l, M_l)
            spatial_eigs.append((U, lam))
        lam_grid = np.zeros(tuple(reversed(dims)))
        for l in range(d):
            shape = [1] * d
            shape[d - 1 - l] = dims[l]
            lam_grid = lam_grid + spatial_eigs[l][1].reshape(shape)
        W_t, M_t = time_matrices(space_time, final_time)
        pencil = build_time_pencil(W_t, M_t)
        return cls(
            spatial_eigs, lam_grid.reshape(-1), pencil, capacitance, diffusion, reaction
        )

    def _diag_blocks(self):
        cm = self.capacitance
        base = self.diffusion * self.lam_s + self.reaction
        H_int = cm * self.pencil.eigenvalues[:, None] + base[None, :]
        H_last = cm * self.pencil.sigma + base
        B = cm * self.pencil.g[:, None]
        return H_int, H_last, B

    def apply(self, r):
        """Apply the inverse through the factorized form.

        Transforms by the conjugate eigenbasis, solves the block-arrowhead
        core, transforms back, and checks that the imaginary residue of the
        result is negligible before discarding it.
        """
        r = np.asarray(r, dtype=float).reshape(-1)
        if r.size != self.num_time * self.num_space:
            raise ValueError("dimension mismatch in preconditioner application")
        d = len(self.spatial_eigs)
        X = r.reshape(self._shape_c).astype(complex)
        X = mode_apply(self.pencil.U_full.conj().T, X, 0)
        for l in range(d):
            axis = 1 + (d - 1 - l)
            X = mode_apply(self.spatial_eigs[l][0].T, X, axis)
        Y = X.reshape(self.num_time, self.num_space)

        H_int, H_last, B = self._diag_blocks()
        y_int = Y[:-1]
        y_last = Y[-1]
        denom = H_last + np.sum(np.abs(B) ** 2 / H_int, axis=0)
        x_last = (y_last + np.sum(np.conj(B) * y_int / H_int, axis=0)) / denom
        x_int = (y_int - B * x_last[None, :]) / H_int
        Z = np.vstack([x_int, x_last[None, :]]).reshape(self._shape_c)

        Z = mode_apply(self.pencil.U_full, Z, 0)
        for l in range(d):
            axis = 1 + (d - 1 - l)
            Z = mode_apply(self.spatial_eigs[l][0], Z, axis)
        flat = Z.reshape(-1)
        scale = np.max(np.abs(flat.real), initial=0.0)
        if scale > 0 and np.max(np.abs(flat.imag)) > 1e-8 * scale:
            raise ConsistencyError(
                "preconditioner produced a non-negligible imaginary part"
            )
        return flat.real.copy()

    def __call__(self, r):
        return self.apply(r)


_GMRES_BLOCK = 4


def gmres(op, rhs, precond=None, tol=1e-8, max_iter=None, x0=None):
    """Left-preconditioned GMRES without restarting.

    The Arnoldi basis is built with classical Gram-Schmidt plus one
    re-orthogonalization pass.  Convergence is declared when the relative
    preconditioned residual drops below ``tol``.  ``max_iter=None`` means at
    most ``n`` iterations, still without restarting.  The Krylov basis (one
    array, a basis vector per row) and the Hessenberg workspace start at a
    few columns and double when full, so memory scales with ``n`` times the
    iterations taken, not with ``max_iter``.

    Returns ``(x, iterations, residual_history)``.
    """
    matvec = _as_matvec(op)
    psolve = _as_psolve(precond)
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    n = rhs.size
    if max_iter is None:
        max_iter = n
    if x0 is None:
        r = rhs
        x0 = np.zeros(n)
    else:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        r = rhs - matvec(x0)
    z = psolve(r)
    beta = np.linalg.norm(z)
    if beta == 0.0:
        return x0.copy(), 0, [0.0]
    m = min(max_iter, _GMRES_BLOCK)
    V = np.empty((m + 1, n))
    V[0] = z / beta
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    gvec = np.zeros(m + 1)
    gvec[0] = beta
    history = [1.0]
    k_done = max_iter
    for j in range(max_iter):
        if j == m:
            grow = min(2 * m, max_iter) - m
            m += grow
            V = np.concatenate([V, np.empty((grow, n))])
            H = np.pad(H, ((0, grow), (0, grow)))
            cs = np.pad(cs, (0, grow))
            sn = np.pad(sn, (0, grow))
            gvec = np.pad(gvec, (0, grow))
        basis = V[: j + 1]
        wv = psolve(matvec(V[j]))
        # classical Gram-Schmidt with a second pass
        h = basis @ wv
        wv = wv - h @ basis
        h2 = basis @ wv
        wv = wv - h2 @ basis
        h = h + h2
        hnorm = np.linalg.norm(wv)
        H[: j + 1, j] = h
        H[j + 1, j] = hnorm
        # apply accumulated rotations
        for i in range(j):
            temp = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = temp
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
        H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
        H[j + 1, j] = 0.0
        gvec[j + 1] = -sn[j] * gvec[j]
        gvec[j] = cs[j] * gvec[j]
        rel = abs(gvec[j + 1]) / beta
        history.append(float(rel))
        if rel <= tol or hnorm == 0.0:
            k_done = j + 1
            break
        V[j + 1] = wv / hnorm
    else:
        raise NonConvergenceError(
            "GMRES did not reach tol %.2e in %d iterations" % (tol, max_iter),
            iterations=max_iter,
            residuals=history,
        )
    y = sla.solve_triangular(H[:k_done, :k_done], gvec[:k_done])
    x = x0 + y @ V[:k_done]
    return x, k_done, history


def pcg(op, rhs, precond=None, tol=1e-8, max_iter=None):
    """Preconditioned conjugate gradients for SPD operators.

    Returns ``(x, iterations)``.  Raises :class:`NonConvergenceError` when the
    iteration budget is exhausted and :class:`DecompositionError` when
    negative curvature reveals a non-SPD operator.
    """
    matvec = _as_matvec(op)
    psolve = _as_psolve(precond)
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    n = rhs.size
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n)
    r = rhs.copy()
    z = psolve(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        curv = p @ Ap
        if curv <= 0.0:
            raise DecompositionError("operator is not positive definite")
        alpha = rz / curv
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) / bnorm <= tol:
            return x, it
        z = psolve(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        "PCG did not reach tol %.2e in %d iterations" % (tol, max_iter),
        x=x,
        iterations=max_iter,
    )


def solve_w_system(W_t, M_t, recovery_rate, equilibrium_rate, u):
    """Exact solution of the recovery-variable system.

    The system is ``(K_t kron M_s) w = b (M_t kron M_s) u`` with
    ``K_t = W_t + b d_e M_t``.  The same spatial mass sits on both sides, so
    ``w = b (K_t^{-1} M_t kron I) u``: one small dense matrix applied along
    the time axis of ``U = u.reshape(N_t, N_s)``.  Raises
    :class:`DecompositionError` when ``K_t`` is singular.
    """
    Kt = W_t + recovery_rate * equilibrium_rate * M_t
    Kt = Kt.toarray() if sp.issparse(Kt) else np.asarray(Kt, dtype=float)
    Mt = M_t.toarray() if sp.issparse(M_t) else np.asarray(M_t, dtype=float)
    nt = Kt.shape[0]
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size % nt:
        raise ValueError("potential length incompatible with the temporal factors")
    try:
        Ht = sla.solve(Kt, Mt)
    except sla.LinAlgError as exc:
        raise DecompositionError("temporal recovery matrix is singular: %s" % exc) from exc
    return recovery_rate * (Ht @ u.reshape(nt, -1)).reshape(-1)
