"""Truncated-basis toolkit for the pumped dissipative Kerr oscillator.

Subpackages by theme: `fock` (states and operators on the truncated basis),
`dynamics` (master-equation and semiclassical evolution), `measures`
(entropies, squeezing, Fano factor, distances), `quasidist` (s-parametrized
phase-space functions), `steady` (closed-form stationary state), `gaussian`
(linearized treatment), `analytics` (damping/decoherence benchmarks),
`config`/`runner`/`cli` (scenario plumbing).
"""

from .analytics import (
    DecoherenceEstimate,
    coherent_damped_distribution,
    decoherence_times,
    fock_damping_distribution,
    fock_max_linear_entropy,
    kitten_decoherence,
    kitten_linear_entropy_approx,
)
from .config import (
    ClassicalPathOutput,
    CoherentInit,
    DistanceToSteadyOutput,
    FockInit,
    GaussianReportOutput,
    QuasiGridOutput,
    ScenarioConfig,
    SteadyReportOutput,
    SuperpositionInit,
    TimeSpec,
    TimeseriesOutput,
    canonical_text,
    validate_config,
)
from .dynamics import (
    SemiclassicalPath,
    StepDiagnostics,
    TimeGrid,
    Trajectory,
    classical_path,
    evolve,
    kerr_lossless_evolve,
    linear_damping_amplitude,
    linearized_noise_path,
    liouvillian_apply,
    stream_evolution,
    unpumped_evolve,
)
from .errors import (
    ConfigInvalid,
    CutoffExceeded,
    CutoffTooSmall,
    DimensionMismatch,
    DriftTooLarge,
    EigSolverFailure,
    GammaOverflow,
    ImaginaryResidue,
    IndexOutOfRange,
    IntegrationFailure,
    InvalidOrder,
    IoError,
    KerrOscError,
    KerrZero,
    LossZero,
    NegativeDiagonal,
    NegativeHusimi,
    NonconvergenceWithinMaxTerms,
    NonpositiveKs,
    PoleAtNonpositiveInteger,
    PositivityLost,
    PumpNotZero,
    SParamOutOfRange,
    StepSizeUnderflow,
    SupportMismatch,
    UnphysicalMoments,
    UnstableLinearization,
    VacuumLimitWarning,
    ZeroNorm,
    ZeroSeparation,
)
from .fock import (
    DensityMatrix,
    FockCutoff,
    OscillatorParams,
    StateVector,
    annihilation_matrix,
    coherent_overlap,
    coherent_state,
    coherent_superposition,
    default_cutoff,
    density_from_pure,
    fock_state,
    leading_block,
    tail_mass,
)
from .gaussian import (
    GaussianState,
    LinearizedCoeffs,
    StrongPumpEstimates,
    classical_steady_amplitude,
    gaussian_entropy_purity,
    gaussian_S_F,
    gaussian_squeeze_S,
    gaussian_vs_exact_report,
    gaussian_weights,
    gaussian_x,
    linearized_coeffs,
    steady_noise_moments,
    steady_table,
    strong_pump_estimates,
)
from .measures import (
    MomentSet,
    SpectralDecomposition,
    bures_distance,
    chaotic_reference,
    fano,
    linear_entropy_and_purity,
    max_linear_entropy_bound,
    moments,
    photon_distribution,
    relative_entropy,
    spectral_decomposition,
    squeezing,
    von_neumann_entropy,
)
from .quasidist import (
    QuasiGrid,
    associated_laguerre,
    cg_matrix_element,
    gaussian_quasidistribution,
    quasidistribution,
)
from .runner import RunReport, render_grid, run_scenario
from .steady import (
    SteadyParams,
    complex_gamma,
    complex_lgamma,
    hyper_0f2,
    hyper_0f2_diagnostic,
    steady_density,
    steady_moment,
)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
