"""Memory and time of one stabilized 3D solve at a chosen mesh size.

Solves the layer-pulse problem on the unit cube (degree 2, final time 80,
the pulse switched on over [44.5, 59.5] in the top layer) with the spline
upwind stabilizer on ``n^3`` spatial and ``n`` temporal elements, so
``h = h_t = 1/n``; ``n`` is the first argument (default 8).  Prints the
unknowns, the size of one array on the space-time quadrature grid (the
unit the solver's working set is counted in), the Newton steps and their
GMRES iterations, the solve time, the process's peak RSS and the minor
page faults of the solve.

    python demos/06_memory_scaling.py 16
"""

import resource
import sys
import time

from monoiga import (
    ExperimentConfig,
    MonodomainProblem,
    build_geometry,
    build_space,
    fixed_point_solve,
    make_source,
)

n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
cfg = ExperimentConfig(
    geometry="unit_cube",
    degree=2,
    h_space=[1.0 / n],
    h_time=1.0 / n,
    final_time=80.0,
    source="layer_pulse_3d",
    source_params={"window_start": 44.5, "window_end": 59.5},
    stabilization="spline_upwind",
)
geo = build_geometry(cfg.geometry, final_time=cfg.final_time)
space = build_space(geo, cfg.degree, cfg.h_space, cfg.h_time)
source = make_source(cfg.source, cfg.final_time, cfg.constants, cfg.source_params)
problem = MonodomainProblem(geometry=geo, space=space, source=source, **cfg.constants)

# The default rule has degree + 1 Gauss points per element in every direction.
points = 1
for s in list(space.spatial) + [space.time]:
    points *= (len(s.breakpoints) - 1) * (s.degree + 1)

faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
result = fixed_point_solve(problem, cfg.solver_config())
seconds = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_SELF)

print("cube %d^3 x %d, degree %d: %d unknowns" % (n, n, cfg.degree, space.num_dof))
print("one grid array: %d points, %.1f MB" % (points, points * 8 / 2**20))
print("steps: %d, converged: %s" % (result.iterations, result.converged))
print("GMRES per step:", result.gmres_iterations)
print("solve: %.2f s" % seconds)
print("peak RSS: %.1f MB" % (usage.ru_maxrss / 1024.0))
print("minor page faults in the solve: %d" % (usage.ru_minflt - faults))
