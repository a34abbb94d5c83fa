"""Small helpers for tensor-product (Kronecker) linear algebra.

Vectors of coefficients are stored in colexicographic order: the first
spatial direction runs fastest, time runs slowest.  A coefficient vector of
length ``N_t * N_s`` therefore reshapes to ``(N_t, n_d, ..., n_1)`` in
C order.  Per-direction lists run the other way, direction 1 first; the
helpers below map directions to axes, and :func:`kron_apply` is the one
per-direction contraction.  Element-wise passes over large grids run over
slabs of their slowest axis (:func:`slabs`), so each of their temporaries
holds at most ``SLAB_POINTS`` values, not the grid.
"""

import math

import numpy as np

# Values per slab of a grid pass (a slab of doubles is 0.5 MB); a pass
# whose arrays hold several values per point takes fewer points.  The
# solve passes over the largest grids of the two benchmark workloads, the
# cube's 41,472-point space-time grid and 32,768-point refined spatial grid,
# stay single slabs (the refined grid's Jacobians, 9 values per point, take
# 5), so small solves allocate what they did unslabbed (with 4,096 points
# the cube workload's solve took 0.080 s against 0.068-0.073 s, minimum of
# 40, one thread of a 2-vCPU Xeon).  On the 8^3 x 16 cube (minimum of 7) the
# indicator takes 0.013 s with this budget against 0.015 s at 2^14 and 2^18
# and 0.022 s unslabbed, and the linearization 0.014 s against 0.017 s,
# 0.016 s and 0.014 s; at 16^3 x 16 every budget below 331,776 points (one
# temporal element) runs those passes one element at a time.
SLAB_POINTS = 2**16


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


def kron_apply(mats, tensor, axis=-1):
    """Apply ``kron_l mats[l]`` (direction d slowest) to a tensor of directions.

    ``mats`` lists one dense matrix per spatial direction, direction 1
    first; direction 1 sits on ``axis`` and direction ``l`` on ``axis - l``,
    since arrays are in C order with direction d first.  Axes before the
    directions (time, batches) and after them (the components of a map)
    are left alone.  The directions are contracted in list order, each by
    :func:`mode_apply`.
    """
    first = axis % tensor.ndim
    for l, mat in enumerate(mats):
        tensor = mode_apply(mat, tensor, first - l)
    return tensor


def marginal_mean(grid, direction):
    """Mean of a C-order grid over every axis but that of ``direction``.

    ``direction`` counts from 0 (direction 1, the last axis); the result is
    a vector over that direction.
    """
    axis = grid.ndim - 1 - direction
    return grid.mean(axis=tuple(a for a in range(grid.ndim) if a != axis))


def abs_max(x):
    """``max |x|`` (0 for an empty array) without an ``|x|`` temporary."""
    return max(x.max(initial=0.0), -x.min(initial=0.0))


def outer_product_grid(vectors):
    """Tensor (outer) product of 1D arrays, one per direction, direction 1 first.

    Shaped ``(len(v_d), ..., len(v_1))`` in C order; the factors are
    multiplied direction d first.
    """
    grid = np.asarray(vectors[-1], dtype=float)
    for v in vectors[-2::-1]:
        grid = np.multiply.outer(grid, np.asarray(v, dtype=float))
    return grid


def slabs(count, size, least=1):
    """Consecutive slices of ``range(count)`` for a pass over ``count`` items.

    Each item holds ``size`` values: its grid points, times the values per
    point where the pass's arrays hold several (a Jacobian's ``d^2``).  A
    slice takes as many items as fit in ``SLAB_POINTS`` values, and at least
    ``least``; a pass of at most ``SLAB_POINTS`` values is a single slab.
    """
    step = max(least, SLAB_POINTS // max(size, 1))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]
