"""Tour of the spline building blocks.

Builds univariate spaces, evaluates bases and derivatives, and shows the
space-time tensor space with its zero-initial-condition constraint.
"""

import numpy as np

from monoiga import SpaceTimeSpace, SplineSpace

print("== univariate space ==")
space = SplineSpace.uniform(degree=2, num_elements=4)
print(space)
print("breakpoints:", space.breakpoints)
print("Greville abscissae:", space.greville())

x = 0.37
first, vals = space.eval_basis(x, order=0)
print("basis values at x=%.2f: indices %d..%d ->" % (x, first, first + 2), vals)
print("partition of unity:", vals.sum())

first, ders = space.eval_basis(x, order=1)
print("first derivatives:", ders, "(sum %.1e)" % ders.sum())

print("\n== space-time tensor space ==")
st = SpaceTimeSpace(
    [SplineSpace.uniform(2, 8), SplineSpace.uniform(2, 4)],
    SplineSpace.uniform(2, 6),
)
print(st)
print("unknowns: %d spatial x %d temporal = %d" % (st.num_space, st.num_time, st.num_dof))
print("temporal basis at t=0 (all zero by construction):",
      np.abs(st.time_collocation([0.0])).max())

print("element window of temporal basis function 2:", st.time.window_elements(2))
