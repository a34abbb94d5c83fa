"""Structured linear algebra: eigendecompositions, the block-arrowhead
fast-diagonalization preconditioner, Krylov solvers, and the exact temporal
map that solves the recovery-variable system.

Complex arithmetic is confined to the preconditioner's temporal eigentransform
and its arrowhead core; its spatial eigentransforms and the outer Krylov
iterations stay real.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .assembly import QuadratureRule, banded_gram, time_matrices
from .tensorops import abs_max, mode_apply

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

# Largest trusted condition number of the temporal pencil's eigenvectors.
PENCIL_COND_LIMIT = 1e12


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
    try:
        lam, U = sla.eigh(K.toarray(), M.toarray())
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

    def __init__(self, U_full, eigenvalues, g, sigma):
        self.U_full = U_full
        self.eigenvalues = eigenvalues
        self.g = g
        self.sigma = sigma

    @property
    def dimension(self):
        return self.U_full.shape[0]


def build_time_pencil(W_t, M_t):
    """Eigendecompose the bordered temporal pencil.

    Parameters are the constrained advection and mass matrices in physical
    time.  Raises :class:`DecompositionError` when the eigenvector matrix is
    too ill-conditioned to trust.
    """
    W = W_t.toarray()
    M = M_t.toarray()
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
    cond = np.linalg.cond(U_full)
    if cond > PENCIL_COND_LIMIT:
        raise DecompositionError(
            "temporal pencil eigenvectors ill-conditioned (cond %.3e)" % cond
        )
    return TimePencil(U_full, lam, g, sigma)


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
        # Loop invariants of ``apply``: the arrowhead core, its Schur
        # denominator on the last temporal block, and the adjoint eigenbasis.
        cm = self.capacitance
        base = self.diffusion * self.lam_s + self.reaction
        self._H_int = cm * pencil.eigenvalues[:, None] + base[None, :]
        self._H_last = cm * pencil.sigma + base
        self._B = cm * pencil.g[:, None]
        self._schur = self._H_last + np.sum(np.abs(self._B) ** 2 / self._H_int, axis=0)
        # Reciprocals, so the core multiplies where it would divide.
        self._H_int_inv = 1.0 / self._H_int
        self._B_adj_H = np.conj(self._B) * self._H_int_inv
        self._schur_inv = 1.0 / self._schur
        self._U_adj = pencil.U_full.conj().T

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
            coeff = detj * spatial_data.metric[..., l, l]
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

        The univariate factors ``M_l``/``K_l`` are Gram matrices on the rule
        of ``spatial_data`` that absorb separable approximations of the
        pulled-back measure and metric, which keeps the Kronecker structure
        while tracking strong geometry contrast.  Without ``spatial_data``
        the factors are those of the unit box, the parametric domain, where
        the weights are one and come from the default rules alone.
        """
        d = space_time.num_spatial_dims
        dims = [s.dimension for s in space_time.spatial]
        if spatial_data is None:
            rules = [QuadratureRule.for_space(s) for s in space_time.spatial]
            c0, c1 = (
                [
                    s.collocation_matrix(r.points, order)
                    for s, r in zip(space_time.spatial, rules)
                ]
                for order in (0, 1)
            )
            w_mass = w_stiff = [1.0] * d
        else:
            rules, c0, c1 = spatial_data.rules, spatial_data.c0, spatial_data.c1
            w_mass, w_stiff = cls._separable_weights(spatial_data)
        spatial_eigs = []
        for l in range(d):
            w = rules[l].flat_weights
            M_l = banded_gram([c0[l]], [c0[l]], w * w_mass[l])
            K_l = banded_gram([c1[l]], [c1[l]], w * w_stiff[l])
            spatial_eigs.append(generalized_eig(K_l, M_l))
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
        return self._H_int, self._H_last, self._B

    def apply(self, r):
        """Apply the inverse through the factorized form.

        The spatial eigentransforms are real and act on real tensors: the
        residual is transformed in space, then in time by the conjugate
        temporal eigenbasis, the block-arrowhead core is solved, and the
        result goes back through the temporal eigenbasis.  Its real and
        imaginary parts then go back through the spatial eigentransforms as
        one stacked real tensor, and the imaginary residue must be
        negligible before it is discarded.
        """
        r = np.asarray(r, dtype=float).reshape(-1)
        if r.size != self.num_time * self.num_space:
            raise ValueError("dimension mismatch in preconditioner application")
        d = len(self.spatial_eigs)
        X = r.reshape(self._shape_c)
        for l in range(d):
            X = mode_apply(self.spatial_eigs[l][0].T, X, 1 + (d - 1 - l))
        Y = self._U_adj @ X.reshape(self.num_time, self.num_space)

        y_int = Y[:-1]
        x = np.empty_like(Y)
        x[-1] = Y[-1] + np.sum(self._B_adj_H * y_int, axis=0)
        x[-1] *= self._schur_inv
        np.multiply(y_int - self._B * x[-1], self._H_int_inv, out=x[:-1])
        Z = self.pencil.U_full @ x

        parts = np.stack([Z.real, Z.imag]).reshape((2,) + self._shape_c)
        for l in range(d):
            parts = mode_apply(self.spatial_eigs[l][0], parts, 2 + (d - 1 - l))
        real, imag = parts.reshape(2, -1)
        scale = abs_max(real)
        if scale > 0 and abs_max(imag) > 1e-8 * scale:
            raise ConsistencyError(
                "preconditioner produced a non-negligible imaginary part"
            )
        return real


_GMRES_BLOCK = 4


def gmres(op, rhs, precond=None, tol=1e-8, max_iter=None, atol=0.0):
    """Left-preconditioned GMRES without restarting, from the zero vector.

    The Arnoldi basis is built with classical Gram-Schmidt plus one
    re-orthogonalization pass.  Convergence is declared when the
    preconditioned residual satisfies ``||P(b - A x)|| <= tol ||P b||`` or
    ``||P(b - A x)|| <= atol``, so a right-hand side with
    ``||P b|| <= atol`` returns zero without iterating.
    ``max_iter=None`` means at most ``n`` iterations, still without
    restarting.  The Krylov basis (one array, a basis vector per row) starts
    at a few rows and doubles when full, so memory scales with ``n`` times
    the iterations taken, not with ``max_iter``.  The Givens rotations of
    the Hessenberg columns run on Python floats.

    Returns ``(x, iterations, residual_history)``; the history holds the
    relative preconditioned residual before each iteration and at the end.
    """
    matvec = _as_matvec(op)
    psolve = _as_psolve(precond)
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    n = rhs.size
    if max_iter is None:
        max_iter = n
    z = psolve(rhs)
    bnorm = np.linalg.norm(z)
    if bnorm == 0.0:
        return np.zeros(n), 0, [0.0]
    if tol >= 1.0 or bnorm <= atol:
        return np.zeros(n), 0, [1.0]
    m = min(max_iter, _GMRES_BLOCK)
    V = np.empty((m + 1, n))
    V[0] = z / bnorm
    cols = []
    cs = []
    sn = []
    gvec = [float(bnorm)]
    history = [1.0]
    k_done = max_iter
    for j in range(max_iter):
        if j == m:
            grow = min(2 * m, max_iter) - m
            m += grow
            V = np.concatenate([V, np.empty((grow, n))])
        basis = V[: j + 1]
        wv = psolve(matvec(V[j]))
        # classical Gram-Schmidt with a second pass
        h = basis @ wv
        wv = wv - h @ basis
        h2 = basis @ wv
        wv = wv - h2 @ basis
        h = h + h2
        hnorm = float(np.linalg.norm(wv))
        col = h.tolist()
        col.append(hnorm)
        # apply accumulated rotations
        for i in range(j):
            temp = cs[i] * col[i] + sn[i] * col[i + 1]
            col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
            col[i] = temp
        denom = float(np.hypot(col[j], col[j + 1]))
        if denom == 0.0:
            cs.append(1.0)
            sn.append(0.0)
        else:
            cs.append(col[j] / denom)
            sn.append(col[j + 1] / denom)
        col[j] = cs[j] * col[j] + sn[j] * col[j + 1]
        cols.append(col[: j + 1])
        gvec.append(-sn[j] * gvec[j])
        gvec[j] = cs[j] * gvec[j]
        rel = abs(gvec[j + 1]) / bnorm
        history.append(rel)
        if rel <= tol or abs(gvec[j + 1]) <= atol or hnorm == 0.0:
            k_done = j + 1
            break
        V[j + 1] = wv / hnorm
    else:
        raise NonConvergenceError(
            "GMRES did not reach tol %.2e in %d iterations" % (tol, max_iter),
            iterations=max_iter,
            residuals=history,
        )
    R = np.zeros((k_done, k_done))
    for j, col in enumerate(cols):
        R[: j + 1, j] = col
    y = sla.solve_triangular(R, np.array(gvec[:k_done]))
    return y @ V[:k_done], k_done, history


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
    Kt = (W_t + recovery_rate * equilibrium_rate * M_t).toarray()
    Mt = M_t.toarray()
    nt = Kt.shape[0]
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size % nt:
        raise ValueError("potential length incompatible with the temporal factors")
    try:
        Ht = sla.solve(Kt, Mt)
    except sla.LinAlgError as exc:
        raise DecompositionError("temporal recovery matrix is singular: %s" % exc) from exc
    return recovery_rate * (Ht @ u.reshape(nt, -1)).reshape(-1)
