"""Distinguished bounded solutions of quasi-periodic linear systems.

The package builds affine cocycles from quasi-periodic linear ODEs,
difference equations and finite-delay recursions, locates the candidate
distinguished bounded solution as the minimizer of a min-max functional
over near-return maps, and certifies it through fixed-point residuals
and comparability-of-recurrence tests.
"""

__version__ = "0.1.0"

from .cocycle import (
    CocycleSystem,
    affine_map_samples,
    affine_path,
    estimate_bound_constant,
    evaluate_affine,
    fundamental_matrix,
    verify_cocycle_identity,
)
from .comparability import (
    DEFAULT_DELTA_GRID,
    ComparabilityReport,
    estimate_modulus,
)
from .errors import (
    BlowUpError,
    ConfigError,
    CoverageError,
    FavardError,
    NearSingularityError,
    SolverError,
)
from .scenarios import (
    EXIT_CERTIFIED,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    RunRecord,
    Scenario,
    build_system,
    bundled_scenarios,
    resolve_seed,
    run_scenario,
)
from .signals import (
    AlmostPeriodReport,
    TrajectorySample,
    sample_forcing,
    sample_signal,
    scan_almost_periods,
)
from .solver import (
    FavardProblem,
    FavardResult,
    FixedPointReport,
    NearReturnSet,
    default_certificate_tolerance,
    find_near_returns,
    grid_oracle,
    solve_minmax,
    verify_fixed_point,
)
from .torus import (
    QuasiPeriodicSpec,
    ReciprocalForcing,
    TrigPolynomial,
    angular_distance,
    reduce_phase,
)

__all__ = [name for name in dir() if not name.startswith("_")]
