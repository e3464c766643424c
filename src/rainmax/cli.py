"""Batch CLI wiring ingestion, fitting, testing, diagnostics, clustering and
independence analysis into seeded, reproducible runs with file outputs.

Every subcommand writes only inside the output directory; re-running with
the same configuration and inputs reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import shutil
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

# rainmax's BLAS calls are small (the largest is fmadogram_dm's stations x
# years x stations product), so the worker that OpenBLAS starts per extra
# CPU when numpy loads has little to do and mostly spins before it sleeps.
# Load numpy, through the package imports below, with one BLAS thread
# unless the user set a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cluster as cl
from . import diagnose, gof, ingest, recurrence
from .demo import demo_dataset
from .estimate import FitError, FitResult, fit_mle_rows, profile_ci_xi_rows
from .ingest import AnnualMaximaSeries
from .seeding import SEED_LIMIT, _map_on_cpus, derive_seed

_METHODS = ("params", "fmadogram")


@dataclass
class RunConfig:
    input: str | None = None
    out: str = "out"
    seed: int = 0
    alpha: float = 0.05
    delta: float = gof.DEFAULT_DELTA
    bootstrap: int = gof.DEFAULT_BOOTSTRAP
    permutations: int = recurrence.DEFAULT_PERMUTATIONS
    min_coverage: float = ingest.DEFAULT_MIN_COVERAGE
    min_overlap: int = cl.DEFAULT_MIN_OVERLAP
    standardize: bool = True
    kmax: int = 7
    method: str = "params"
    demo: bool = False
    target: str | None = None
    ci_level: float = 0.95

    def validate(self) -> None:
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if not 0.0 <= self.delta < 0.5:
            raise ValueError("delta must lie in [0, 0.5)")
        if self.bootstrap < gof._MIN_BOOTSTRAP:
            raise ValueError(
                f"bootstrap count must be at least {gof._MIN_BOOTSTRAP}, got {self.bootstrap}"
            )
        if self.permutations < recurrence._MIN_PERMUTATIONS:
            raise ValueError(
                f"permutations must be at least {recurrence._MIN_PERMUTATIONS}, "
                f"got {self.permutations}"
            )
        if not 0.0 < self.min_coverage <= 1.0:
            raise ValueError("min_coverage must lie in (0, 1]")
        if self.min_overlap < 2:
            raise ValueError("min_overlap must be at least 2")
        if self.kmax < 2:
            raise ValueError("kmax must be at least 2")
        if self.method not in _METHODS:
            raise ValueError("method must be 'params' or 'fmadogram'")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")


def slugify(name: str) -> str:
    ascii_name = unicodedata.normalize("NFKD", name).encode("ascii", "ignore").decode()
    cleaned = "".join(c.lower() if c.isalnum() else "_" for c in ascii_name)
    collapsed = "_".join(filter(None, cleaned.split("_")))
    return collapsed or "station"


def _check_slugs(series: Sequence[AnnualMaximaSeries]) -> None:
    """Per-station outputs are named by ``slugify(station_id)``; two
    stations with one slug would overwrite each other's files, so such a
    pair stops the run before any file is written."""
    seen: dict[str, str] = {}
    for s in series:
        slug = slugify(s.station_id)
        first = seen.setdefault(slug, s.station_id)
        if first != s.station_id:
            raise ValueError(
                f"stations {first!r} and {s.station_id!r} share the output name {slug!r}"
            )


def _json_text(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _dump_json(payload: object, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(payload), encoding="utf-8")


# The number format of every CSV and TSV this module writes. For a float v,
# NUMBER % v is format(v, ".10g"), nan, infinities and -0.0 included.
_NUMBER = "%.10g"


def _format_optional(value: float | None) -> str:
    """A number in the ``_NUMBER`` format; ``None`` is an empty field."""
    return "" if value is None else _NUMBER % value


def _write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[object]], delimiter: str = ","
) -> None:
    """One CSV file with standard quoting, so a station id holding a comma
    or a quote stays one field. Its directory is made when missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_if_any(payload: dict, path: Path) -> None:
    """Writes a nonempty payload; an empty one removes the file, so no
    record is left from an earlier run."""
    if payload:
        _dump_json(payload, path)
    else:
        path.unlink(missing_ok=True)


def _input_path(cfg: RunConfig) -> Path:
    if cfg.input is None:
        raise ValueError("no input given: pass --input or --demo")
    path = Path(cfg.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return path


def _load_series(cfg: RunConfig) -> list[AnnualMaximaSeries]:
    if cfg.demo:
        return demo_dataset(seed=cfg.seed)
    with _input_path(cfg).open("r", encoding="utf-8-sig", newline="") as fh:
        return ingest.read_series_csv(fh)


def cmd_ingest(cfg: RunConfig, out: Path) -> None:
    skips: list[ingest.SkipEntry] = []
    if cfg.demo:
        series = _load_series(cfg)
    else:
        with _input_path(cfg).open("rb") as fh:
            table = ingest.parse_daily_csv(fh)
        series, skips = ingest.block_maxima(table, min_coverage=cfg.min_coverage)
    with (out / "series.csv").open("w", encoding="utf-8", newline="") as fh:
        ingest.write_series_csv(series, fh)
    skip_log = "".join(json.dumps(dataclasses.asdict(e), sort_keys=True) + "\n" for e in skips)
    (out / "skip_log.jsonl").write_text(skip_log, encoding="utf-8")


def _free_fits(
    series: Sequence[AnnualMaximaSeries], out: Path
) -> tuple[list[AnnualMaximaSeries], dict[str, FitResult]]:
    """The one free fit per station that every fitting stage reads.

    All stations are fitted in one ``fit_mle_rows`` call. A station whose
    fit fails with ``FitError``, or ``ValueError`` for a sample the fit
    rejects (fewer than 5 distinct maxima), is left out of the returned
    series and so out of every later output; ``fit_errors.json`` names it
    with its reason. The file exists only when a station failed, so one
    left by an earlier run is removed.
    """
    fits: dict[str, FitResult] = {}
    errors: dict[str, str] = {}
    for s, fit in zip(series, fit_mle_rows([s.values for s in series])):
        if isinstance(fit, FitResult):
            fits[s.station_id] = fit
        else:
            errors[s.station_id] = str(fit)
    _write_if_any(errors, out / "fit_errors.json")
    return [s for s in series if s.station_id in fits], fits


def _fit_stage(
    series: Sequence[AnnualMaximaSeries], fits: dict[str, FitResult], ci_level: float, out: Path
) -> None:
    """Each station's free fit with its profile interval, in ``fits.json``
    and ``station_params.csv``. The intervals reuse the fits and come from
    one ``profile_ci_xi_rows`` call. A station whose interval cannot be
    found gets null endpoints and a ``ci_error`` reason instead of
    aborting the run."""
    frees = [fits[s.station_id] for s in series]
    cis = profile_ci_xi_rows([s.values for s in series], ci_level, frees)
    results: dict[str, dict] = {}
    for s, free, ci in zip(series, frees, cis):
        payload = dataclasses.asdict(free)
        payload.update(payload.pop("params"))
        if isinstance(ci, FitError):
            payload.update(ci_lo=None, ci_hi=None, ci_level=ci_level, ci_error=str(ci))
        else:
            payload.update(ci_lo=ci.lower, ci_hi=ci.upper, ci_level=ci.level)
        results[s.station_id] = payload
    _dump_json(results, out / "fits.json")
    columns = ("mu", "sigma", "xi", "ci_lo", "ci_hi")
    rows = (
        [station, *(_format_optional(row[c]) for c in columns)] for station, row in results.items()
    )
    _write_csv(out / "station_params.csv", ["station", *columns], rows)


def cmd_fit(cfg: RunConfig, out: Path) -> None:
    series, fits = _free_fits(_load_series(cfg), out)
    _fit_stage(series, fits, cfg.ci_level, out)


def _gof_stage(
    series: Sequence[AnnualMaximaSeries], fits: dict[str, FitResult], cfg: RunConfig, out: Path
) -> dict[str, FitResult]:
    """Family choice and LRT per station from its free fit, in ``gof.json``
    and ``families.csv``; returns each station's fit of its chosen family.

    The stations' family tests run on the ``_map_on_cpus`` thread pool.
    Each station's bootstrap seed derives from its id, so the outputs do
    not depend on the number of threads, and the first station in series
    order whose test raises is the error reported."""

    def select_family(s: AnnualMaximaSeries) -> gof.FamilyDecision:
        return gof.select_family(
            s.values,
            fits[s.station_id],
            alpha=cfg.alpha,
            delta=cfg.delta,
            B=cfg.bootstrap,
            seed=derive_seed(cfg.seed, "gof", s.station_id),
        )

    results: dict[str, dict] = {}
    family_fits: dict[str, FitResult] = {}
    for s, decision in zip(series, _map_on_cpus(select_family, series)):
        lrt = gof.lrt_gumbel_vs_gev(fits[s.station_id], decision.gumbel_fit)
        family_fits[s.station_id] = decision.fit
        results[s.station_id] = {
            "family": decision.chosen,
            "p_gumbel": decision.gumbel_p,
            "p_second": decision.second_p,
            "alpha": decision.alpha,
            "lrt_statistic": lrt.statistic,
            "lrt_p": lrt.p_value,
        }
    _dump_json(results, out / "gof.json")
    pvalues = ("p_gumbel", "p_second")
    rows = (
        [station, row["family"], *(_format_optional(row[c]) for c in pvalues)]
        for station, row in results.items()
    )
    _write_csv(out / "families.csv", ["station", "family", *pvalues], rows)
    return family_fits


def cmd_gof(cfg: RunConfig, out: Path) -> None:
    series, fits = _free_fits(_load_series(cfg), out)
    _gof_stage(series, fits, cfg, out)


def _write_diagnostics(
    series: Sequence[AnnualMaximaSeries],
    fits: dict[str, FitResult],
    out: Path,
) -> None:
    """Per-station plot data under ``diagnostics/``, which is cleared first
    so that no station directory is left from an earlier run. Each plot is
    an ``x,y`` CSV with a JSON sidecar naming its kind, station and
    parameters. A CSV's rows are one ``%`` format of all its numbers:
    they need no quoting, so they are the bytes ``_write_csv`` gives.
    The stations stay on one thread: the formatting holds the
    interpreter lock."""
    root = out / "diagnostics"
    shutil.rmtree(root, ignore_errors=True)
    row = f"{_NUMBER},{_NUMBER}\n"
    for s in series:
        params = fits[s.station_id].params
        station_dir = root / slugify(s.station_id)
        station_dir.mkdir(parents=True)
        for plot in diagnose.station_diagnostics(s.values, params):
            xy = tuple(itertools.chain.from_iterable(zip(plot.x.tolist(), plot.y.tolist())))
            table = "x,y\n" + (row * len(plot.x)) % xy
            (station_dir / f"{plot.kind}.csv").write_text(table, encoding="utf-8", newline="")
            sidecar = {
                "kind": plot.kind,
                "station": s.station_id,
                "params": dataclasses.asdict(params),
                "n_points": len(plot.x),
            }
            (station_dir / f"{plot.kind}.json").write_text(_json_text(sidecar), encoding="utf-8")


def cmd_diagnose(cfg: RunConfig, out: Path) -> None:
    series = _load_series(cfg)
    _check_slugs(series)
    series, fits = _free_fits(series, out)
    _write_diagnostics(series, fits, out)


def _partition_payload(partition: cl.Partition) -> dict:
    return {
        "K": partition.k,
        "assignments": partition.assignment,
        "medoids": list(partition.medoids) if partition.medoids is not None else None,
        "mean_silhouette": partition.mean_silhouette,
    }


def _write_scores(scores: dict[int, float], path: Path) -> None:
    _write_csv(path, ["K", "score"], ([k, _format_optional(scores[k])] for k in sorted(scores)))


def _write_pam(dm: cl.DistanceMatrix, chosen: cl.SelectKResult, out: Path, method: str) -> None:
    """The distance matrix (TSV), its silhouette table and its PAM
    partitions, as ``cluster/<method>_{distance.tsv,silhouette.csv,pam.json}``."""
    cluster_dir = out / "cluster"
    rows = ([label, *map(_format_optional, values)] for label, values in zip(dm.labels, dm.values))
    header = ["station", *dm.labels]
    _write_csv(cluster_dir / f"{method}_distance.tsv", header, rows, delimiter="\t")
    _write_scores(chosen.scores, cluster_dir / f"{method}_silhouette.csv")
    partitions = {str(k): _partition_payload(p) for k, p in chosen.partitions.items()}
    _dump_json(partitions, cluster_dir / f"{method}_pam.json")


def _cluster_params(fits: dict[str, FitResult], cfg: RunConfig, out: Path) -> cl.Partition:
    """Parameter-space clustering outputs; returns the Ward 2-group cut."""
    features = cl.param_features(fits, standardize=cfg.standardize)
    dm = cl.euclidean_dm(features)
    # select_k checks kmax before any Ward cut is taken or file written
    chosen = cl.select_k(dm, kmax=cfg.kmax)
    _write_pam(dm, chosen, out, "params")

    dendrogram = cl.ward_cluster(features)
    cuts = {k: dendrogram.cut(k) for k in range(2, cfg.kmax + 1)}
    _dump_json(
        {
            "merges": [[a, b, h] for a, b, h in dendrogram.merges],
            "cuts": {k: _partition_payload(p) for k, p in cuts.items()},
        },
        out / "cluster" / "params_dendrogram.json",
    )
    # the pseudo-F table scores the cuts written above
    scores = {k: cl.pseudo_f(features, p) for k, p in cuts.items()}
    _write_scores(scores, out / "cluster" / "params_pseudo_f.csv")
    return cuts[2]


def _cluster_fmadogram(
    series: Sequence[AnnualMaximaSeries], cfg: RunConfig, out: Path
) -> None:
    """F-madogram clustering outputs. Stations that share fewer than
    ``min_overlap`` years with others are left out and listed, with their
    short pairs, in ``fmadogram_excluded.json``."""
    dm, excluded = cl.fmadogram_dm(series, min_overlap=cfg.min_overlap)
    # select_k checks kmax before any file is written
    chosen = cl.select_k(dm, kmax=cfg.kmax)
    cluster_dir = out / "cluster"
    payload = {"min_overlap": cfg.min_overlap, "excluded": excluded} if excluded else {}
    _write_if_any(payload, cluster_dir / "fmadogram_excluded.json")
    _write_pam(dm, chosen, out, "fmadogram")
    rows = []
    for i, j in itertools.combinations(range(dm.n), 2):
        nu = float(dm.values[i, j])
        coef = cl.extremal_coefficient(nu)
        values = map(_format_optional, (nu, coef.theta, coef.raw))
        rows.append([dm.labels[i], dm.labels[j], *values])
    header = ["station_a", "station_b", "fmadogram", "theta", "theta_raw"]
    _write_csv(cluster_dir / "fmadogram_extremal.csv", header, rows)


def cmd_cluster(cfg: RunConfig, out: Path) -> None:
    series = _load_series(cfg)
    if cfg.method == "params":
        _, fits = _free_fits(series, out)
        _cluster_params(fits, cfg, out)
    else:
        _cluster_fmadogram(series, cfg, out)


def _independence_report(
    series: Sequence[AnnualMaximaSeries], target: str, cfg: RunConfig, out: Path
) -> None:
    """The target's pair table (CSV, empty statistics for a failed pair)
    and its detail (JSON, the failure's reason or the radii grid) under
    ``independence/``."""
    table, detail = [], []
    for row in recurrence.pairwise_independence_report(series, target, cfg.permutations, cfg.seed):
        entry: dict = {"target": row.target, "other": row.other, "n_common_years": row.n_common}
        if row.result is None:
            entry["error"] = row.error
        else:
            grid = row.result.grid
            peak = divmod(int(grid.deviations.argmax()), grid.deviations.shape[1])
            entry.update(
                statistic=row.result.statistic,
                p_value=row.result.p_value,
                permutations=row.result.permutations,
                x_radii=grid.x_radii.tolist(),
                y_radii=grid.y_radii.tolist(),
                max_deviation_at=list(peak),
            )
        detail.append(entry)
        stats = map(_format_optional, (entry.get("statistic"), entry.get("p_value")))
        table.append([row.target, row.other, *stats, row.n_common])
    indep_dir, slug = out / "independence", slugify(target)
    header = ["target", "other", "statistic", "p_value", "n_common_years"]
    _write_csv(indep_dir / f"{slug}.csv", header, table)
    _dump_json(detail, indep_dir / f"{slug}.json")


def cmd_indep(cfg: RunConfig, out: Path) -> None:
    series = _load_series(cfg)
    if cfg.target is None:
        raise ValueError("--target is required for the independence report")
    _independence_report(series, cfg.target, cfg, out)


def cmd_report(cfg: RunConfig, out: Path) -> None:
    """Full pipeline: fits, family selection, diagnostics, both clusterings,
    and an independence report for each singleton in the 2-group parameter
    clustering."""
    series = _load_series(cfg)
    _check_slugs(series)
    series, fits = _free_fits(series, out)

    with (out / "series.csv").open("w", encoding="utf-8", newline="") as fh:
        ingest.write_series_csv(series, fh)
    _fit_stage(series, fits, cfg.ci_level, out)
    family_fits = _gof_stage(series, fits, cfg, out)
    _write_diagnostics(series, family_fits, out)

    two_group = _cluster_params(fits, cfg, out)
    _cluster_fmadogram(series, cfg, out)

    # the reports are the singletons' of this run: none is left from an earlier one
    shutil.rmtree(out / "independence", ignore_errors=True)
    for station in cl.singleton_stations(two_group):
        _independence_report(series, station, cfg, out)

    _dump_json(dataclasses.asdict(cfg), out / "run_config.json")


_COMMANDS = {
    "ingest": cmd_ingest,
    "fit": cmd_fit,
    "gof": cmd_gof,
    "diagnose": cmd_diagnose,
    "cluster": cmd_cluster,
    "indep": cmd_indep,
    "report": cmd_report,
}


# per RunConfig annotation: the JSON values a --config file may give the
# field, and the type its flag parses (the bool fields' flags are in
# _FLAG_OPTIONS)
_CONFIG_TYPES = {
    "bool": ("true or false", lambda v: isinstance(v, bool), None),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    "float": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str), str),
}

# the flags that are not a plain typed value
_FLAG_OPTIONS = {
    "standardize": {
        "action": argparse.BooleanOptionalAction,
        "help": "z-score parameter features before clustering",
    },
    "method": {"choices": _METHODS},
    "demo": {"action": "store_true", "help": "use the bundled dataset"},
}


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes ``--config`` and then one flag per
    ``RunConfig`` field, in field order; a flag left out is ``None``."""
    parser = argparse.ArgumentParser(
        prog="rainmax",
        description="Annual-maximum rainfall analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("ingest", "parse daily records into annual maxima"),
        ("fit", "fit GEV parameters with profile intervals"),
        ("gof", "goodness-of-fit family selection"),
        ("diagnose", "emit diagnostic plot data"),
        ("cluster", "station clustering and scores"),
        ("indep", "pairwise independence report for a target station"),
        ("report", "run the full pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for f in dataclasses.fields(RunConfig):
            options = _FLAG_OPTIONS.get(f.name) or {"type": _CONFIG_TYPES[f.type][2]}
            p.add_argument("--" + f.name.replace("_", "-"), default=None, **options)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object: {path}")
        fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        unknown = set(loaded) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in loaded.items():
            kind, ok, _ = _CONFIG_TYPES[fields[name].type]
            if not ok(value):
                raise ValueError(f"config key {name!r} must be {kind}, got {json.dumps(value)}")
        cfg = dataclasses.replace(cfg, **loaded)
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name) is not None
    }
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = args.out  # the resolved configuration's, once it is known
    try:
        cfg = _resolve_config(args)
        out = Path(cfg.out)
        # an envelope left by an earlier failed run would mark this run's
        # output as partial
        (out / "error.json").unlink(missing_ok=True)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out)
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary emits an error envelope
        envelope = {"error": type(exc).__name__, "message": str(exc), "command": args.command}
        sys.stderr.write(json.dumps(envelope, sort_keys=True) + "\n")
        if out is not None and Path(out).is_dir():
            _dump_json(envelope, Path(out) / "error.json")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
