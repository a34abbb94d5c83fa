"""Tests for the Kronecker helpers of ``monoiga.tensorops``."""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from monoiga.tensorops import kron_apply, marginal_mean, mode_apply, outer_product_grid


def _dense_kron(mats):
    """``kron_l mats[l]`` with direction d slowest (mats direction 1 first)."""
    return functools.reduce(np.kron, mats[::-1])


def _mats(rng, d):
    sizes_in = [3, 4, 2][:d]
    sizes_out = [5, 2, 3][:d]
    return [rng.standard_normal((m, n)) for m, n in zip(sizes_out, sizes_in)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kron_apply_matches_dense_kron(d):
    rng = np.random.default_rng(d)
    mats = _mats(rng, d)
    shape = tuple(m.shape[1] for m in reversed(mats))
    x = rng.standard_normal(shape)
    out = kron_apply(mats, x)
    assert out.shape == tuple(m.shape[0] for m in reversed(mats))
    ref = _dense_kron(mats) @ x.reshape(-1)
    assert_allclose(out.reshape(-1), ref, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kron_apply_leaves_leading_axes_alone(d):
    # A batch of fields with a time axis: (batch, N_t, n_d, ..., n_1).
    rng = np.random.default_rng(10 + d)
    mats = _mats(rng, d)
    shape = tuple(m.shape[1] for m in reversed(mats))
    x = rng.standard_normal((2, 4) + shape)
    out = kron_apply(mats, x)
    ref = x.reshape(8, -1) @ _dense_kron(mats).T
    assert_allclose(out.reshape(8, -1), ref, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_time_then_space_is_the_space_time_kron(d):
    rng = np.random.default_rng(15 + d)
    mats = _mats(rng, d)
    T = rng.standard_normal((3, 4))
    x = rng.standard_normal((4,) + tuple(m.shape[1] for m in reversed(mats)))
    out = kron_apply(mats, mode_apply(T, x, 0))
    ref = np.kron(T, _dense_kron(mats)) @ x.reshape(-1)
    assert_allclose(out.reshape(-1), ref, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kron_apply_before_trailing_component_axis(d):
    # A control net (n_d, ..., n_1, component), contracted with axis=-2.
    rng = np.random.default_rng(20 + d)
    mats = _mats(rng, d)
    shape = tuple(m.shape[1] for m in reversed(mats))
    net = rng.standard_normal(shape + (d,))
    out = kron_apply(mats, net, axis=-2)
    assert out.shape == tuple(m.shape[0] for m in reversed(mats)) + (d,)
    ref = _dense_kron(mats) @ net.reshape(-1, d)
    assert_allclose(out.reshape(-1, d), ref, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_outer_product_grid_is_c_order(d):
    rng = np.random.default_rng(30 + d)
    vectors = [rng.random(n) for n in (3, 4, 2)[:d]]
    grid = outer_product_grid(vectors)
    assert grid.shape == tuple(v.size for v in reversed(vectors))
    assert_allclose(grid.reshape(-1), functools.reduce(np.kron, vectors[::-1]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_marginal_mean_keeps_one_direction(d):
    rng = np.random.default_rng(40 + d)
    sizes = (3, 4, 2)[:d]
    grid = rng.random(sizes[::-1])
    for l in range(d):
        moved = np.moveaxis(grid, d - 1 - l, 0).reshape(sizes[l], -1)
        assert_allclose(marginal_mean(grid, l), moved.mean(axis=1), rtol=1e-14)
