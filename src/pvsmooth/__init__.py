"""Variable smoothing for weakly convex composite minimization over subspaces.

The solver minimizes h(x) + g(A x) over a linear subspace V, where h is
smooth, g is rho-weakly convex with an available proximal map, and A is
linear.  Each iteration takes a projected gradient step on a partial
Moreau-envelope smoothing of g with a slowly decreasing smoothing
parameter; see :mod:`pvsmooth.solver`.

Building blocks live in :mod:`pvsmooth.core` (function/operator interfaces,
envelopes), :mod:`pvsmooth.prox` (pointwise-supremum families and scalar
penalties), :mod:`pvsmooth.projections` (subspace and convex-set
projections), :mod:`pvsmooth.penalty` (the outer penalty continuation
loop), :mod:`pvsmooth.problems` (ready-made application instances), and
:mod:`pvsmooth.oracles` (slow independent references used for testing).
"""

from .core import (
    CallableProx,
    CallableSmooth,
    CompositeProblem,
    IdentityMap,
    IdentityProjector,
    LinearMap,
    MatrixMap,
    ProxFunction,
    ScaledSquaredNorm,
    SmoothFunction,
    SubspaceProjector,
    ZeroFunction,
    ZeroSmooth,
    matrix_norm_bound,
    moreau_envelope,
    moreau_gradient,
    spectral_norm,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContractError,
    ConvergenceError,
    DomainError,
    NumericalError,
    PvsError,
    StageError,
)
from .penalty import (
    BallPenalty,
    PenaltyDiagnostics,
    PenaltySchedule,
    SmoothSum,
    penalty_distance_sq,
    run_penalty,
)
from .problems import (
    FirstBlockBallPenalty,
    LassoInstance,
    MaxDispersionInstance,
    ProductBallPenalty,
    QuadraticLoss,
    build_constrained_lasso,
    build_dro_affine,
    build_dro_quadratic,
    build_max_dispersion_direct,
    build_max_dispersion_product,
    dispersion_objective,
    random_affine_scenarios,
    random_anchors,
    random_lasso_data,
    subspace_start,
)
from .projections import (
    BallSpec,
    KernelProjector,
    ProductKernelProjector,
    ReplicatedKernelProjector,
    dykstra_project,
    project_ball,
    project_diagonal,
    project_simplex,
)
from .prox import (
    L1Penalty,
    MCPPenalty,
    SCADPenalty,
    ScalarRegularizer,
    SupAffineFamily,
    SupQuadraticFamily,
    TukeyPenalty,
    envelope_by_weights,
    simplex_weights_kkt,
    solve_simplex_weights,
)
from .solver import (
    IterateTrace,
    SolverConfig,
    affine_shift_wrap,
    epoch_iteration_budget,
    epoch_stationarity_constant,
    pvs_step,
    run_pvs,
    schedule,
    stationarity_constant,
    theorem_bound_margins,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
