"""The fast-diagonalization preconditioner at work: per-mode temporal solves.

Assembles the space-time system on a 3D box, applies preconditioned GMRES,
and contrasts the iteration count with the unpreconditioned one.
"""

import time

import numpy as np

from monoiga import (
    FastDiagPreconditioner,
    KroneckerOperator,
    SpaceTimeSpace,
    SplineSpace,
    builtin_geometry,
    gmres,
    spatial_operators,
    time_matrices,
)
from monoiga.assembly import SpatialQuadratureData, TimeQuadratureData
from monoiga.linalg import NonConvergenceError

p, elements = 2, 8
st = SpaceTimeSpace(
    [SplineSpace.uniform(p, elements)] * 3, SplineSpace.uniform(p, elements)
)
geo = builtin_geometry("unit_cube")
print("space-time unknowns:", st.num_dof)

cm, diff, react = 1.0, 1e-3, 0.13 * 0.26
sdata = SpatialQuadratureData(st.spatial, geo)
W_t, M_t = time_matrices(TimeQuadratureData(st, 1.0))
M_s, K_s = spatial_operators(sdata)
op = KroneckerOperator(
    st.num_time,
    st.num_space,
    [(cm, W_t, M_s), (diff, M_t, K_s), (react, M_t, M_s)],
)

rng = np.random.default_rng(0)
rhs = rng.standard_normal(st.num_dof)

t0 = time.time()
precond = FastDiagPreconditioner.build(
    cm, diff, react, sdata, (M_s, K_s), (W_t, M_t)
)
print("preconditioner setup: %.2fs" % (time.time() - t0))

t0 = time.time()
x, iters, _ = gmres(op, rhs, precond=precond, tol=1e-8)
print("preconditioned GMRES: %d iteration(s), %.2fs, residual %.2e"
      % (iters, time.time() - t0,
         np.linalg.norm(op.matvec(x) - rhs) / np.linalg.norm(rhs)))

try:
    x0, it0, _ = gmres(op, rhs, tol=1e-8, max_iter=400)
    print("unpreconditioned GMRES: %d iterations" % it0)
except NonConvergenceError as exc:
    print("unpreconditioned GMRES: no convergence within %d iterations "
          "(last residual %.1e)" % (exc.iterations, exc.residuals[-1]))
