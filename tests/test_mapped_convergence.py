"""Convergence orders on a mapped domain with the coupled recovery variable.

A manufactured-solution code check (Roache, J. Fluids Eng. 124, 2002): the
potential ``u = cos(pi x) cos(pi y) (t / T)^2`` meets the homogeneous Neumann
condition on the unit square, the recovery variable ``w`` solves
``w_t = b (u - d_e w)`` in closed form, and the source follows from the PDE.
The domain is the unit square under a warped degree-2 map, so the metric and
Hessian pull-backs, the Laplacian of the strong residual and the recovery
map ``R`` all enter the error.
"""

import numpy as np
import pytest

from monoiga.bspline import SplineSpace, SpaceTimeSpace
from monoiga.geometry import GeometryMap
from monoiga.solver import FixedPointConfig, MonodomainProblem, fixed_point_solve, l2_error

T = 1.0
B = 0.5
LEVELS = (4, 8, 16)


def warped_square():
    """Unit square whose degree-2 centre control point moves by 0.8 (0.25, 0.125).

    The boundary control points stay on the edges, so the image is the unit
    square while the Jacobian and Hessian vary inside.
    """
    spaces = [SplineSpace.uniform(2, 1), SplineSpace.uniform(2, 1)]
    g = np.array([0.0, 0.5, 1.0])
    ctrl = np.array([[x, y] for y in g for x in g])
    ctrl[4] += 0.8 * np.array([0.25, 0.125])
    return GeometryMap(spaces, ctrl, final_time=T)


def exact_fields(problem):
    """``(u, w, f)`` of the manufactured solution, as ``f(x, t)`` callables."""
    k = problem.b * problem.d_e

    def g(x):
        return np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])

    def u(x, t):
        return g(x) * (t / T) ** 2

    def w(x, t):
        # b g(x) int_0^t exp(-k (t - s)) (s / T)^2 ds
        integral = t**2 / k - 2 * t / k**2 + 2 / k**3 * (1 - np.exp(-k * t))
        return problem.b * g(x) * integral / T**2

    def f(x, t):
        uv = u(x, t)
        wv = w(x, t)
        u_t = g(x) * 2 * t / T**2
        lap = -2 * np.pi**2 * uv
        reaction = problem.c1 * uv * (uv - problem.a) * (uv - 1) + problem.c2 * uv * wv
        return problem.C_m * u_t - problem.D * lap + reaction

    return u, w, f


def slopes(p, D, stabilization):
    """Regression slopes of the u and w errors against h over ``LEVELS``."""
    geo = warped_square()
    errors = []
    for n in LEVELS:
        space = SpaceTimeSpace([SplineSpace.uniform(p, n)] * 2, SplineSpace.uniform(p, n))
        problem = MonodomainProblem(geometry=geo, space=space, D=D, b=B)
        u, w, f = exact_fields(problem)
        problem.source = f
        config = FixedPointConfig(
            relaxation=1.0,
            tolerance=1e-10,
            max_iterations=200,
            stabilization=stabilization,
            indicator_update="frozen",
        )
        result = fixed_point_solve(problem, config)
        errors.append(
            (l2_error(space, geo, result.u, u), l2_error(space, geo, result.w, w))
        )
    logs = np.log(np.array(errors))
    h = np.log(1.0 / np.array(LEVELS))
    return tuple(float(np.polyfit(h, logs[:, i], 1)[0]) for i in range(2))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "D, stabilization, loss",
    [(0.05, "off", 0), (1e-4, "spline_upwind", 0), (0.05, "spline_upwind", 1)],
)
def test_mapped_convergence_orders(p, D, stabilization, loss):
    # With non-negligible diffusion the stabilized method loses one order:
    # the D Lap(u_h) term of its strong residual converges at O(h^(p-1)), so
    # the stabilizer's consistency error is O(h^p).  The bound pins that loss
    # and fails on any further one.
    su, sw = slopes(p, D, stabilization)
    bound = p + 1 - loss - 0.25
    assert su >= bound, "u slope %.3f below %.2f" % (su, bound)
    assert sw >= bound, "w slope %.3f below %.2f" % (sw, bound)
