"""Small helpers for tensor-product (Kronecker) linear algebra.

Vectors of coefficients are stored in colexicographic order: the first
spatial direction runs fastest, time runs slowest.  A coefficient vector of
length ``N_t * N_s`` therefore reshapes to ``(N_t, n_d, ..., n_1)`` in
C order.
"""

import math

import numpy as np


def mode_apply(mat, tensor, axis):
    """Contract ``mat`` with ``tensor`` along ``axis``.

    Computes ``out[..., i, ...] = sum_j mat[i, j] * tensor[..., j, ...]``
    where the contracted index sits at position ``axis``.  The dense ``mat``
    is applied by (batched) matrix products on the tensor reshaped to
    ``(before, axis, after)``, so no axis is moved and no copy is made of a
    C-contiguous tensor.
    """
    shape = tensor.shape
    left = math.prod(shape[:axis])
    right = math.prod(shape[axis + 1 :])
    t3 = np.reshape(tensor, (left, shape[axis], right))
    if right == 1:
        out = t3[:, :, 0] @ mat.T
    else:
        out = np.matmul(mat, t3)
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])


def abs_max(x):
    """``max |x|`` (0 for an empty array) without an ``|x|`` temporary."""
    return max(x.max(initial=0.0), -x.min(initial=0.0))


def outer_product_grid(vectors):
    """Tensor (outer) product of 1D arrays, shaped ``(len(v0), len(v1), ...)``."""
    grid = np.asarray(vectors[0], dtype=float)
    for v in vectors[1:]:
        grid = np.multiply.outer(grid, np.asarray(v, dtype=float))
    return grid

