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
from .diagnose import PlotSeries, station_diagnostics
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
    synth_dataset,
)
from .recurrence import (
    IndependenceResult,
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
    "TestResult",
    "ValidationError",
    "block_maxima",
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
    "profile_ci_xi",
    "pseudo_f",
    "return_level",
    "select_family",
    "select_k",
    "silhouette",
    "station_diagnostics",
    "synth_dataset",
    "tcvm_statistic",
    "tcvm_test",
    "ward_cluster",
]
