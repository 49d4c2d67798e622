"""qndsim: simulate and verify repeated non-demolition measurements.

The toolkit samples probe-outcome trajectories of an indirect measurement
whose jump operators are functions of the measured observable, evolves the
posterior state over the observable's spectrum, and checks the limit laws
numerically: concentration of the spectral measure with Born-rule
frequencies, exponential decay of excluded regions at the relative-entropy
rate, asymptotic normality of the maximum-likelihood estimate, and
trace-norm convergence of the rescaled posterior kernel to a Gaussian.
"""

from .spectral import (
    RegionError,
    SpectralModel,
    SpectralModelError,
    SpectralWeights,
    StateKernel,
    StateValidationReport,
    build_spectral_model,
    diagonal_state,
    model_from_dict,
    pure_state,
    spectral_probability,
    state_from_dict,
    validate_state,
)
from .probes import (
    AssumptionCheck,
    BinaryPhase,
    GaussianReadout,
    ProbeError,
    ProbeModel,
    ProbeValidationReport,
    TabulatedProbe,
    ZeroDensityError,
    probe_from_config,
    relative_entropy,
    validate_probe,
)
from .trajectories import (
    Ensemble,
    definetti_sample,
    log_prior_weights,
    posterior_means,
    posterior_weights,
    sample_ensemble,
    sequential_sample,
    trajectory_rng,
)
from .estimators import (
    CltSamples,
    ConsistencyResult,
    EstimatorReport,
    LaplaceCheck,
    RateTrace,
    RescaledKernelResult,
    WindowError,
    WindowGrid,
    build_window_grid,
    clt_samples,
    laplace_condition_check,
    limit_kernel,
    mle,
    mle_consistency_stat,
    mle_table,
    rate_traces,
    rescaled_posterior_kernel,
    trace_norm_distance,
)
from .harness import (
    DEFAULT_CHECKPOINTS,
    DEFAULT_SEED,
    ConfigError,
    ExperimentConfig,
    KsResult,
    ReportBundle,
    TestResult,
    ValidationFailure,
    build_model,
    build_probe,
    build_state,
    estimate_ensemble,
    ks_test,
    load_trajectories,
    persist_trajectories,
    run_experiment,
    simulate_ensemble,
    validate_config,
)

__version__ = "0.1.0"
