"""Parallel tempered subset-posterior sampling with quantile-averaged intervals.

Run independent samplers over K data shards, each targeting the shard
posterior with its likelihood raised to n / m_j, then combine scalar
functionals by averaging empirical quantile functions across shards.  The
average quantile function is exactly the one-dimensional Wasserstein-2
barycenter of the shard posteriors.
"""

__version__ = "0.1.0"

from . import rng
from .errors import ConfigError, DataError, NumericError, PieError
from .models import (
    FAMILIES,
    LinearFunctional,
    ModelSpec,
    ObservationSet,
    PartitionPlan,
    TemperedTarget,
    apply_functional,
    partition,
    tempered_log_density,
)
from .samplers import (
    ChainConfig,
    DrawMatrix,
    NormalLinearPosterior,
    bernoulli_beta_params,
    exponential_gamma_params,
    normal_linear_nig_params,
    poisson_gamma_params,
    sample_bernoulli_beta,
    sample_exponential_gamma,
    sample_metropolis,
    sample_normal_linear_nig,
    sample_poisson_gamma,
)
from .combine import (
    GaussianApprox,
    IntervalEstimate,
    PooledTransform,
    QuantileTable,
    average_quantile_tables,
    barycenter_residual,
    combine_multidim,
    consensus_combine,
    default_grid,
    empirical_quantile,
    gaussian_barycenter,
    marginal_tables,
    pie_interval,
    pooled_center_scale,
    quantile_table,
    sample_from_table,
)
from .metrics import (
    DensityEstimate,
    RateFit,
    accuracy,
    bias_variance_summary,
    kde_1d,
    quantile_gap,
    rate_fit,
    silverman_bandwidth,
    table_moments,
    w2_from_tables,
)
from .data import (
    load_csv,
    read_draws,
    read_quantile_table,
    simulate_linear,
    simulate_univariate,
    write_draws,
    write_observations,
    write_quantile_table,
)
from .config import ExperimentConfig, load_config
from .runner import ExperimentReport, SeedResult, emit_report, run_experiment

__all__ = [
    "__version__", "rng",
    "PieError", "ConfigError", "DataError", "NumericError",
    "FAMILIES", "ObservationSet", "PartitionPlan", "ModelSpec",
    "TemperedTarget", "LinearFunctional",
    "partition", "tempered_log_density", "apply_functional",
    "DrawMatrix", "ChainConfig", "NormalLinearPosterior",
    "sample_poisson_gamma", "sample_exponential_gamma", "sample_bernoulli_beta",
    "sample_normal_linear_nig", "sample_metropolis",
    "poisson_gamma_params", "exponential_gamma_params", "bernoulli_beta_params",
    "normal_linear_nig_params",
    "QuantileTable", "IntervalEstimate", "GaussianApprox",
    "default_grid", "empirical_quantile", "quantile_table",
    "average_quantile_tables", "pie_interval", "gaussian_barycenter",
    "barycenter_residual", "consensus_combine", "sample_from_table",
    "PooledTransform", "pooled_center_scale", "combine_multidim", "marginal_tables",
    "DensityEstimate", "RateFit", "w2_from_tables", "kde_1d", "accuracy",
    "bias_variance_summary", "quantile_gap", "rate_fit", "table_moments",
    "silverman_bandwidth",
    "simulate_linear", "simulate_univariate", "load_csv", "write_observations",
    "write_quantile_table", "read_quantile_table", "write_draws", "read_draws",
    "ExperimentConfig", "load_config",
    "ExperimentReport", "SeedResult", "run_experiment", "emit_report",
]
