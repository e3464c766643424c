"""Annual-maximum rainfall statistics.

Block-maxima ingestion, GEV fitting by maximum likelihood and
probability-weighted moments, truncated Cramer-von Mises and likelihood
ratio goodness-of-fit tests, diagnostic plot data, parameter- and
F-madogram-based station clustering, and a recurrence-rate independence
test, all reproducible from a single seed.

The top-level names are loaded lazily (PEP 562): ``import rainmax`` imports
no submodule and no numpy, and the first use of a name imports the
submodule that defines it.
"""

import importlib

# public name -> the submodule that defines it
_SUBMODULE = {
    "DistanceMatrix": "cluster",
    "FeatureMatrix": "cluster",
    "Partition": "cluster",
    "euclidean_dm": "cluster",
    "extremal_coefficient": "cluster",
    "fmadogram_dm": "cluster",
    "pam_cluster": "cluster",
    "param_features": "cluster",
    "pseudo_f": "cluster",
    "select_k": "cluster",
    "silhouette": "cluster",
    "ward_cluster": "cluster",
    "PlotSeries": "diagnose",
    "station_diagnostics": "diagnose",
    "FitError": "estimate",
    "FitResult": "estimate",
    "ProfileInterval": "estimate",
    "fit_mle": "estimate",
    "fit_pwm": "estimate",
    "profile_ci_xi": "estimate",
    "GevParams": "gev",
    "gev_cdf": "gev",
    "gev_pdf": "gev",
    "gev_quantile": "gev",
    "gev_sample": "gev",
    "log_likelihood": "gev",
    "return_level": "gev",
    "FamilyDecision": "gof",
    "TestResult": "gof",
    "lrt_gumbel_vs_gev": "gof",
    "select_family": "gof",
    "tcvm_statistic": "gof",
    "tcvm_test": "gof",
    "AnnualMaximaSeries": "ingest",
    "DailyTable": "ingest",
    "ParseError": "ingest",
    "ValidationError": "ingest",
    "block_maxima": "ingest",
    "parse_daily_csv": "ingest",
    "synth_dataset": "ingest",
    "IndependenceResult": "recurrence",
    "independence_test": "recurrence",
    "pairwise_independence_report": "recurrence",
}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
