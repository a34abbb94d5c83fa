"""monoiga: space-time isogeometric solver for the monodomain equation.

Smooth-spline Galerkin discretization of the monodomain reaction-diffusion
model with Rogers-McCulloch kinetics over the whole space-time cylinder,
with upwind stabilization driven by a low-rank residual indicator and a
block-arrowhead fast-diagonalization preconditioner for the Kronecker-
structured linear systems.
"""

from .assembly import (
    KroneckerOperator,
    QuadratureRule,
    UnivariateMatrices,
    WeightedMass,
    reaction_mass,
    rhs_vectors,
    spatial_operators,
    time_matrices,
    univariate_matrices,
    univariate_matrix,
)
from .bspline import (
    KnotVector,
    SpaceTimeSpace,
    SplineSpace,
    SupportExtension,
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
from .fields import evaluate_field
from .geometry import (
    GeometryError,
    GeometryMap,
    box_geometry,
    builtin_geometry,
    load_geometry,
    save_geometry,
)
from .linalg import (
    ConsistencyError,
    DecompositionError,
    FastDiagPreconditioner,
    NonConvergenceError,
    TimePencil,
    build_time_pencil,
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
    StabilizationMatrices,
    StabilizationWeights,
    assemble_stabilization,
    compute_tau,
    compute_theta,
    lowrank_factorize,
    strong_residual,
    write_theta_csv,
)

__version__ = "0.1.0"
