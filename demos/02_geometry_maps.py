"""Geometry maps: built-in boxes, the elliptic annulus, and file round trips.

Checks boundary accuracy of the fitted annulus and exports it to the plain
text control-net format.
"""

import os
import tempfile

import numpy as np

from monoiga import builtin_geometry, load_geometry, save_geometry

print("== unit square ==")
square = builtin_geometry("unit_square")
pts = np.array([[0.25, 0.75]])
print("F(0.25, 0.75) =", square.evaluate(pts)[0], " det J =",
      np.linalg.det(square.jacobian(pts)[0]))

print("\n== elliptic annulus ==")
annulus = builtin_geometry("ellipse_annulus", final_time=300.0)
print("min |det J| on a sample grid: %.4f" % annulus.check_bijective())

eta1 = np.linspace(0, 1, 9)
inner = annulus.evaluate(np.column_stack([eta1, np.zeros_like(eta1)]))
outer = annulus.evaluate(np.column_stack([eta1, np.ones_like(eta1)]))


def implicit(p, a, b):
    return p[:, 0] ** 2 / a**2 + p[:, 1] ** 2 / b**2 - 1.0


print("inner boundary implicit residual:", np.max(np.abs(implicit(inner, 0.375, 0.0625))))
print("outer boundary implicit residual:", np.max(np.abs(implicit(outer, 0.75, 0.125))))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "annulus.txt")
    save_geometry(annulus, path)
    loaded = load_geometry(path, final_time=300.0)
    diff = np.max(np.abs(loaded.control_points - annulus.control_points))
    print("file round trip, control-point difference: %.1e" % diff)
