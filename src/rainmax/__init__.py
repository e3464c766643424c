"""Annual-maximum rainfall statistics.

Block-maxima ingestion, GEV fitting by maximum likelihood and
probability-weighted moments, truncated Cramer-von Mises and likelihood
ratio goodness-of-fit tests, diagnostic plot data, parameter- and
F-madogram-based station clustering, and a recurrence-rate independence
test, all reproducible from a single seed.
"""

from .cluster import (
    DistanceMatrix,
    FeatureMatrix,
    Partition,
    euclidean_dm,
    extremal_coefficient,
    fmadogram_dm,
    pam_cluster,
    param_features,
    pseudo_f,
    select_k,
    silhouette,
    ward_cluster,
)
from .diagnose import (
    PlotSeries,
    density_series,
    pp_points,
    qq_points,
    return_level_series,
)
from .estimate import (
    FitError,
    FitResult,
    ProfileInterval,
    fit_mle,
    fit_pwm,
    profile_ci_xi,
)
from .gev import (
    GevParams,
    gev_cdf,
    gev_pdf,
    gev_quantile,
    gev_sample,
    log_likelihood,
    return_level,
)
from .gof import (
    FamilyDecision,
    TestResult,
    lrt_gumbel_vs_gev,
    select_family,
    tcvm_statistic,
    tcvm_test,
)
from .ingest import (
    AnnualMaximaSeries,
    DailyTable,
    ParseError,
    ValidationError,
    block_maxima,
    parse_daily_csv,
    summary_stats,
    synth_dataset,
)
from .recurrence import (
    IndependenceResult,
    RecurrenceConfig,
    independence_test,
    pairwise_independence_report,
)

__version__ = "0.1.0"

__all__ = [
    "AnnualMaximaSeries",
    "DailyTable",
    "DistanceMatrix",
    "FamilyDecision",
    "FeatureMatrix",
    "FitError",
    "FitResult",
    "GevParams",
    "IndependenceResult",
    "ParseError",
    "Partition",
    "PlotSeries",
    "ProfileInterval",
    "RecurrenceConfig",
    "TestResult",
    "ValidationError",
    "block_maxima",
    "density_series",
    "euclidean_dm",
    "extremal_coefficient",
    "fit_mle",
    "fit_pwm",
    "fmadogram_dm",
    "gev_cdf",
    "gev_pdf",
    "gev_quantile",
    "gev_sample",
    "independence_test",
    "log_likelihood",
    "lrt_gumbel_vs_gev",
    "pairwise_independence_report",
    "pam_cluster",
    "param_features",
    "parse_daily_csv",
    "pp_points",
    "profile_ci_xi",
    "pseudo_f",
    "qq_points",
    "return_level",
    "return_level_series",
    "select_family",
    "select_k",
    "silhouette",
    "summary_stats",
    "synth_dataset",
    "tcvm_statistic",
    "tcvm_test",
    "ward_cluster",
]
