"""Structured linear algebra: eigendecompositions, the fast-diagonalization
preconditioner, Krylov solvers, and the exact temporal map that solves the
recovery-variable system.

All arithmetic is real: the preconditioner diagonalizes space only and solves
one small temporal system per spatial mode exactly.  Its spatial eigenbasis
is a list of factors, each over a group of spatial directions: one factor
per direction where separable weights reproduce the pulled-back measure and
metric (boxes, 1D) or the spatial space is large, and one exact factor over
every direction on a small mapped patch.

The dense factorizations run on numpy's LAPACK.  Band matrices reach this
module through ``@`` and ``assembly._dense``; ``assembly`` is the one
module that knows their layout.
"""

import functools
import math

import numpy as np

from .assembly import _dense, banded_gram
from .tensorops import kron_apply, marginal_mean, outer_product_grid

__all__ = [
    "DecompositionError",
    "NonConvergenceError",
    "FastDiagPreconditioner",
    "generalized_eig",
    "gmres",
    "pcg",
    "solve_w_system",
]

# Largest number of spatial functions at which a patch whose separable
# weights are inexact gets one dense generalized eigendecomposition of the
# true ``(K_s, M_s)``.  The exact factor saves about two thirds of the GMRES
# iterations but costs an O(N_s^3) decomposition per solve, an N_s x N_s
# transform each way per application and a band ``S @ U`` per rank per
# indicator; the separable factors cost none of these.  Stabilized annulus
# solves (p = 3, 4:1 elements, one solve per process on one thread of a
# 2-vCPU Xeon, median of five, exact / separable seconds): with 14 temporal
# functions 0.77 / 0.86 at N_s = 559, 1.22 / 1.21 at 765 and 2.00 / 1.66 at
# 1,003; with 26, 1.31 / 1.70, 2.14 / 2.59 and 3.06 / 3.93.  The
# decomposition takes 0.23 s of the exact solve at 765 and 0.49 s at 1,003.
# The limit sits just above 765, where the two break even with 14 temporal
# functions and the exact factor still wins with 26.
EXACT_SPACE_LIMIT = 800

# Relative miss of the separable weights that counts as rounding.
SEPARABLE_RTOL = 1e-12


class DecompositionError(RuntimeError):
    """Raised when a matrix decomposition fails or is unreliable."""


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
    if hasattr(op, "__matmul__"):
        return lambda x: np.asarray(op @ x).reshape(-1)
    if callable(op):
        return op
    raise TypeError("cannot interpret %r as a linear operator" % (op,))


def _as_psolve(precond):
    if precond is None:
        return lambda x: x
    if hasattr(precond, "apply"):
        return precond.apply
    if hasattr(precond, "__matmul__"):
        return lambda x: np.asarray(precond @ x).reshape(-1)
    if callable(precond):
        return precond
    raise TypeError("cannot interpret %r as a preconditioner" % (precond,))


def generalized_eig(K, M):
    """M-orthonormal generalized eigendecomposition of the pencil ``(K, M)``.

    Returns ``(U, lam)`` with ``K U = M U diag(lam)``, ``U^T M U = I`` and
    eigenvalues ascending.  ``M`` must be symmetric positive definite.  The
    pencil is reduced to standard form by the inverse Cholesky factor,
    ``L^{-1} K L^{-T} V = V diag(lam)`` with ``M = L L^T``, and
    ``U = L^{-T} V``.  ``K`` enters only through ``K @ L^{-T}``, so a
    :class:`~monoiga.assembly.BandMatrix` is applied by its band kernel,
    not densified.
    """
    try:
        Li = np.linalg.inv(np.linalg.cholesky(_dense(M)))
        lam, V = np.linalg.eigh(Li @ (K @ Li.T))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            "generalized eigendecomposition failed: %s" % exc
        ) from exc
    return Li.T @ V, lam


class FastDiagPreconditioner:
    """Fast-diagonalization preconditioner for the potential system.

    Inverts ``sum_j T_j kron diag(c_j)`` in the spatial eigenbasis exactly.
    ``eigenvectors`` lists the factors of ``U = kron U_g``, each over a group
    of spatial directions, the group of direction 1 first: either one factor
    ``U_l`` per direction or a single factor over every direction.
    ``terms`` lists pairs ``(T_j, c_j)`` of a temporal matrix and its
    per-spatial-mode coefficients, so that spatial mode ``k`` has the
    ``N_t x N_t`` temporal matrix ``A_k = sum_j c_j[k] T_j``.  The stack of
    the ``A_k`` and their inverses are one ``(N_t, N_t, N_s)`` array, formed
    and inverted on the first :meth:`apply`: a preconditioner that is
    replaced before it is applied never forms its stack.
    :meth:`build` gives the terms of the Galerkin operator's spatial pencil
    or its separable surrogate; a stabilizer term ``c S^t kron S^s`` adds
    ``(S^t, c d)`` with ``d`` the diagonal of ``U^T S^s U``, which is exact
    when ``U^T S^s U`` is diagonal.  All arithmetic is real.
    """

    def __init__(self, eigenvectors, terms):
        self.eigenvectors = list(eigenvectors)
        self.terms = list(terms)
        self.num_time = self.terms[0][0].shape[0]
        self.num_space = self.terms[0][1].size
        self._shape = (self.num_time,) + tuple(
            U.shape[0] for U in reversed(self.eigenvectors)
        )

    @functools.cached_property
    def _inverse(self):
        """The per-mode inverses, written over the stack: one stack is held."""
        nt, ns = self.num_time, self.num_space
        mats = np.stack([_dense(tmat) for tmat, _ in self.terms])
        coefs = np.stack([coef for _, coef in self.terms])
        # The stack, laid out (i, j, k) for the contraction of ``apply``, is
        # one product of the flattened matrices and per-mode coefficients.
        stack = (mats.reshape(len(mats), -1).T @ coefs).reshape(nt, nt, ns)
        try:
            inv = np.linalg.inv(stack.transpose(2, 0, 1))
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                "per-mode temporal matrix is singular: %s" % exc
            ) from exc
        stack[...] = inv.transpose(1, 2, 0)
        return stack

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
        mass = [np.exp(marginal_mean(log_detj, l) - grand + grand / d) for l in range(d)]
        stiff = []
        for l in range(d):
            coeff = detj * spatial_data.metric[..., l, l]
            ones = np.ones(mass[l].size)
            others = outer_product_grid(mass[:l] + [ones] + mass[l + 1 :])
            stiff.append(marginal_mean(coeff / others, l))
        return mass, stiff

    @staticmethod
    def _separable_is_exact(spatial_data, mass, stiff):
        """Whether the separable weights reproduce the pulled-back data.

        True when every off-diagonal metric entry vanishes on the grid and
        the rank-one products of ``mass`` and ``stiff`` (see
        :meth:`_separable_weights`) match ``|det J|`` and
        ``|det J| (J^{-1} J^{-T})_{ll}`` to ``SEPARABLE_RTOL`` relative to
        their largest value: on boxes and in 1D.
        """
        d = len(spatial_data.spaces)
        metric = spatial_data.metric
        if any(np.any(metric[..., a, b]) for a in range(d) for b in range(d) if a != b):
            return False
        detj = np.abs(spatial_data.detj)
        pairs = [(detj, mass)] + [
            (detj * metric[..., l, l], mass[:l] + [stiff[l]] + mass[l + 1 :])
            for l in range(d)
        ]
        for target, weights in pairs:
            approx = outer_product_grid(weights)
            if np.max(np.abs(approx - target)) > SEPARABLE_RTOL * np.max(np.abs(target)):
                return False
        return True

    @classmethod
    def build(
        cls,
        capacitance,
        diffusion,
        reaction,
        spatial_data,
        spatial_matrices,
        temporal_matrices,
    ):
        """The preconditioner of ``(C_m W_t + r M_t) kron M_s + D M_t kron K_s``.

        The spatial factors follow the geometry on the rule of
        ``spatial_data``:

        - one factor per direction where separable approximations of the
          pulled-back measure and metric are exact (boxes and 1D) or the
          space has more than ``EXACT_SPACE_LIMIT`` functions.  The
          univariate factors ``M_l``/``K_l`` of a surrogate ``M~``, ``K~``
          are Gram matrices that absorb those weights, which keeps the
          Kronecker structure while tracking strong geometry contrast (on a
          box the weights are one and the surrogate is exact), and their
          generalized eigenvectors give ``U_l^T M_l U_l = I``,
          ``U_l^T K_l U_l = Lambda_l``;
        - one factor over every direction otherwise: the dense generalized
          eigenvectors of the true pencil ``spatial_matrices = (M_s, K_s)``,
          ``U^T M_s U = I``, ``U^T K_s U = Lambda``, so the spatial factor
          is exact.

        Both give the terms ``(W_t, C_m)`` and ``(M_t, r + D lambda)`` of
        ``temporal_matrices = (W_t, M_t)``.
        """
        d = len(spatial_data.spaces)
        num_space = math.prod(s.dimension for s in spatial_data.spaces)
        w_mass, w_stiff = cls._separable_weights(spatial_data)
        if num_space <= EXACT_SPACE_LIMIT and not cls._separable_is_exact(
            spatial_data, w_mass, w_stiff
        ):
            M_s, K_s = spatial_matrices
            U, lam = generalized_eig(K_s, M_s)
            eigenvectors = [U]
        else:
            rules, c0, c1 = spatial_data.rules, spatial_data.c0, spatial_data.c1
            eigenvectors = []
            # Each direction's eigenvalues go in front: a C-order grid.
            lam = 0.0
            for l in range(d):
                w = rules[l].flat_weights
                M_l = banded_gram([c0[l]], [c0[l]], w * w_mass[l])
                K_l = banded_gram([c1[l]], [c1[l]], w * w_stiff[l])
                U_l, lam_l = generalized_eig(K_l, M_l)
                eigenvectors.append(U_l)
                lam = np.add.outer(lam_l, lam)
            lam = lam.reshape(-1)
        W_t, M_t = temporal_matrices
        terms = [
            (_dense(W_t), np.full(lam.size, float(capacitance))),
            (_dense(M_t), float(reaction) + float(diffusion) * lam),
        ]
        return cls(eigenvectors, terms)

    def apply(self, r):
        """Apply the inverse: spatial transform, per-mode solves, back-transform.

        The residual goes through the transposed spatial factors (one
        contraction per factor, along its group's axis), each spatial mode's
        temporal column is multiplied by its stored inverse (one batched
        contraction), and the result goes back through the spatial factors.
        """
        r = np.asarray(r, dtype=float).reshape(-1)
        if r.size != self.num_time * self.num_space:
            raise ValueError("dimension mismatch in preconditioner application")
        X = kron_apply([U.T for U in self.eigenvectors], r.reshape(self._shape))
        X = X.reshape(self.num_time, self.num_space)
        X = np.einsum("ijk,jk->ik", self._inverse, X).reshape(self._shape)
        return kron_apply(self.eigenvectors, X).reshape(-1)


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
    # ``R`` is upper triangular, so the LU factor inside ``solve`` is ``R``
    # itself and the solve is one back substitution.
    y = np.linalg.solve(R, np.array(gvec[:k_done]))
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
    Kt = _dense(W_t + recovery_rate * equilibrium_rate * M_t)
    Mt = _dense(M_t)
    nt = Kt.shape[0]
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size % nt:
        raise ValueError("potential length incompatible with the temporal factors")
    try:
        Ht = np.linalg.solve(Kt, Mt)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("temporal recovery matrix is singular: %s" % exc) from exc
    return recovery_rate * (Ht @ u.reshape(nt, -1)).reshape(-1)
