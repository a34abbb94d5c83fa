"""monoiga: space-time isogeometric solver for the monodomain equation.

Smooth-spline Galerkin discretization of the monodomain reaction-diffusion
model with Rogers-McCulloch kinetics over the whole space-time cylinder,
with upwind stabilization driven by a low-rank residual indicator and a
fast-diagonalization preconditioner, built from the same stabilizer terms
as the operator, for the Kronecker-structured linear systems.
"""

from .assembly import (
    KroneckerOperator,
    QuadratureRule,
    WeightedMass,
    evaluate_field,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
)
from .bspline import (
    KnotVector,
    SpaceTimeSpace,
    SplineSpace,
    uniform_open_knots,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SourceTerm,
    build_geometry,
    build_space,
    characteristic,
    make_source,
    manufactured_exact_1d,
    oscillation_metric,
    parse_config,
    run_compare,
    run_convergence,
    run_single,
    support_bleed_margin,
    write_field,
)
from .geometry import (
    GeometryError,
    GeometryMap,
    box_geometry,
    builtin_geometry,
    load_geometry,
    save_geometry,
)
from .linalg import (
    DecompositionError,
    FastDiagPreconditioner,
    NonConvergenceError,
    generalized_eig,
    gmres,
    pcg,
    solve_w_system,
)
from .solver import (
    FixedPointConfig,
    FixedPointDiverged,
    MonodomainProblem,
    SolveResult,
    fixed_point_solve,
    l2_error,
)
from .stabilization import (
    LowRankIndicator,
    ResidualIndicator,
    StabilizationError,
    StabilizationGrid,
    StabilizationWeights,
    assemble_stabilization,
    compute_tau,
    compute_theta,
    lowrank_factorize,
)

__version__ = "0.1.0"
