"""rainmax benchmark: run one workload through the CLI and print one JSON result.

    python3 bench/run.py --workload report-demo --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src/`` directory. Each CLI command runs in a fresh interpreter, as a
user would launch it. With ``--trace 0`` the run repeats whole rounds of
the workload's commands, as many as fit in ``--seconds`` (at least one),
and reports the end-to-end metrics as medians over rounds. With
``--trace 1`` it runs one plain round and one round under ``tracer.py`` and
reports the per-layer metrics. Outputs of the first round are checked
against independent computations; every later round, traced or not, must
reproduce them byte for byte. The last line of standard output is the
JSON result.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as C
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PY = sys.executable

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
COMMAND_TIMEOUT_S = 150
REPORT_DEMO_SEED = 29


@dataclass(frozen=True)
class Step:
    """One CLI command writing to ``<round>/<out>``; ``args`` and the named
    ``checks`` receive the round's directory."""

    out: str
    args: Callable[[Path], list[str]]
    checks: tuple[tuple[str, Callable[[Path], None]], ...]


@dataclass(frozen=True)
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def report_demo_steps(work: Path, seed: int) -> list[Step]:
    # The bundled network at the reference seed. The seed decides how many
    # stations reach a second-stage bootstrap (about 9.5 s each), so letting
    # the benchmark seed reach it would make the timing track the seed.
    def out(r: Path, *names: str) -> list[Path]:
        return [r / "report" / n for n in names]

    fits = ("series.csv", "fits.json")
    return [
        Step(
            "report",
            lambda r: ["report", "--demo", "--seed", str(REPORT_DEMO_SEED)],
            (
                ("fit_loglik", lambda r: C.check_fit_loglik(*out(r, *fits))),
                ("fit_is_maximum", lambda r: C.check_fit_is_maximum(*out(r, *fits))),
                ("profile_ci", lambda r: C.check_profile_ci(*out(r, *fits))),
                ("lrt", lambda r: C.check_lrt(*out(r, *fits, "gof.json"))),
                ("gof_pvalues", lambda r: C.check_gof_pvalues(*out(r, "gof.json"))),
                ("family_rule", lambda r: C.check_family_rule(*out(r, "fits.json", "gof.json"))),
                ("indep_pvalues", lambda r: C.check_indep_pvalues(*out(r, "independence"))),
                ("fmadogram", lambda r: C.check_fmadogram(*out(r, "series.csv", "cluster"))),
                ("ward_heights", lambda r: C.check_ward_heights(*out(r, "cluster"))),
                ("pam_nearest_params", lambda r: C.check_pam_nearest(*out(r, "cluster"), "params")),
                ("pam_nearest_fmadogram", lambda r: C.check_pam_nearest(*out(r, "cluster"), "fmadogram")),
            ),
        )
    ]


def daily_fit_steps(work: Path, seed: int) -> list[Step]:
    daily = work / "daily.csv"
    truth = inputs.write_daily_csv(daily, seed)

    def series(r: Path) -> Path:
        return r / "ingest" / "series.csv"

    def fits(r: Path) -> Path:
        return r / "fit" / "fits.json"

    return [
        Step(
            "ingest",
            lambda r: ["ingest", "--input", str(daily)],
            (
                ("series_truth", lambda r: C.check_series_truth(series(r), truth.maxima)),
                (
                    "skip_log_truth",
                    lambda r: C.check_skip_log_truth(r / "ingest" / "skip_log.jsonl", truth.skipped),
                ),
            ),
        ),
        Step(
            "fit",
            lambda r: ["fit", "--input", str(series(r))],
            (
                ("fit_loglik", lambda r: C.check_fit_loglik(series(r), fits(r))),
                ("fit_is_maximum", lambda r: C.check_fit_is_maximum(series(r), fits(r))),
                ("profile_ci", lambda r: C.check_profile_ci(series(r), fits(r))),
            ),
        ),
    ]


def network_cluster_steps(work: Path, seed: int) -> list[Step]:
    # Three networks per round: PAM's work depends on the network (how many
    # double-exchange passes it needs), and averaging three keeps that from
    # dominating the run-to-run spread.
    steps = []
    for n in range(1, inputs.NETWORKS + 1):
        series = work / f"series{n}.csv"
        steps += _network_steps(series, inputs.write_network_series(series, seed, n), n)
    return steps


def _network_steps(series: Path, truth: inputs.NetworkTruth, n: int) -> list[Step]:
    source = ["--input", str(series)]
    params, fmad, indep = f"params{n}", f"fmadogram{n}", f"indep{n}"
    return [
        Step(
            params,
            lambda r: ["cluster", "--method", "params", *source],
            (
                ("ward_heights", lambda r: C.check_ward_heights(r / params / "cluster")),
                ("pam_nearest_params", lambda r: C.check_pam_nearest(r / params / "cluster", "params")),
            ),
        ),
        Step(
            fmad,
            lambda r: ["cluster", "--method", "fmadogram", *source],
            (
                ("fmadogram", lambda r: C.check_fmadogram(series, r / fmad / "cluster")),
                ("pam_regions", lambda r: C.check_pam_regions(r / fmad / "cluster", truth.region)),
                ("pam_nearest_fmadogram", lambda r: C.check_pam_nearest(r / fmad / "cluster", "fmadogram")),
            ),
        ),
        Step(
            indep,
            lambda r: ["indep", "--target", truth.target, *source],
            (
                ("indep_pvalues", lambda r: C.check_indep_pvalues(r / indep / "independence")),
                (
                    "within_region",
                    lambda r: C.check_within_region_dependent(
                        r / indep / "independence", truth.target, truth.region
                    ),
                ),
            ),
        ),
    ]


WORKLOADS = {
    "report-demo": report_demo_steps,
    "daily-fit": daily_fit_steps,
    "network-cluster": network_cluster_steps,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], log: Path) -> Proc:
    """Run to completion; wall time from launch to exit, CPU and peak RSS from wait4."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def run_round(steps: list[Step], round_dir: Path, traced: bool) -> list[Proc]:
    round_dir.mkdir(parents=True)
    procs = []
    for step in steps:
        args = [*step.args(round_dir), "--out", str(round_dir / step.out)]
        if traced:
            argv = [PY, str(BENCH / "tracer.py"), str(round_dir / f"{step.out}.stats.json"), *args]
        else:
            argv = [PY, "-m", "rainmax", *args]
        procs.append(run_process(argv, round_dir / f"{step.out}.log"))
    return procs


def verify(steps: list[Step], procs: list[Proc], round_dir: Path, reference: Path | None) -> tuple[int, bool]:
    """Check one round; returns (failed commands, whether every command ran and passed its checks).

    The reference round is checked against independent computations; any
    other round must reproduce the reference's outputs.
    """
    failed, correct = 0, True
    for step, proc in zip(steps, procs):
        if proc.code != 0:
            log = (round_dir / f"{step.out}.log").read_text(encoding="utf-8", errors="replace")
            sys.stderr.write(f"{step.out}: exit {proc.code}\n{log[-2000:]}\n")
            failed += 1
            correct = False  # its outputs were never checked
            continue
        if reference is None:
            tests = [lambda check=check: check(round_dir) for _, check in step.checks]
        else:
            tests = [lambda: C.check_same_tree(reference / step.out, round_dir / step.out)]
        for test in tests:
            try:
                test()
            except Exception:  # a malformed output fails its command, not the benchmark
                sys.stderr.write(f"{step.out}: check failed\n{traceback.format_exc()}")
                failed += 1
                correct = False
                break
    return failed, correct


def import_seconds(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", "import rainmax.cli"], cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def importtime_breakdown() -> tuple[float, float]:
    """(rainmax, scipy.stats) cumulative import seconds from ``-X importtime``."""
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)")
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        res = subprocess.run(
            [PY, "-X", "importtime", "-c", "import rainmax.cli"],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        )
        rainmax_us = scipy_stats_us = 0
        for m in map(line.match, res.stderr.splitlines()):
            if m is None:
                continue
            cumulative, indent, name = int(m.group(1)), m.group(2), m.group(3)
            if not indent and (name == "rainmax" or name.startswith("rainmax.")):
                rainmax_us += cumulative
            if name == "scipy.stats" and not scipy_stats_us:
                scipy_stats_us = cumulative
        samples.append((rainmax_us / 1e6, scipy_stats_us / 1e6))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def end_to_end(steps: list[Step], work: Path, seconds: float) -> tuple[dict, int, int, bool]:
    import_seconds(1)  # compiles bytecode and warms the file cache
    setup = import_seconds(SETUP_REPEATS)
    rounds: list[list[Proc]] = []
    t0 = time.perf_counter()
    # whole rounds, as many as fit in ``seconds`` at the pace of those already run
    while not rounds or (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run_round(steps, work / f"round{len(rounds) + 1}", traced=False))
    failed, correct = 0, True
    for i, procs in enumerate(rounds, start=1):
        f, ok = verify(steps, procs, work / f"round{i}", None if i == 1 else work / "round1")
        failed, correct = failed + f, correct and ok
    metrics = {
        "wall_s": statistics.median(sum(p.wall for p in r) for r in rounds),
        "cpu_s": statistics.median(sum(p.cpu for p in r) for r in rounds),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in r) for r in rounds),
        "setup_s": statistics.median(setup),
    }
    return metrics, len(rounds) * len(steps), failed, correct


def per_layer(steps: list[Step], work: Path) -> tuple[dict, int, int, bool]:
    import_seconds(1)
    plain_dir, traced_dir = work / "round1", work / "traced"
    plain = run_round(steps, plain_dir, traced=False)
    traced = run_round(steps, traced_dir, traced=True)
    failed, correct = verify(steps, plain, plain_dir, None)
    f, ok = verify(steps, traced, traced_dir, plain_dir)
    failed, correct = failed + f, correct and ok

    calls: Counter = Counter()
    seconds: Counter = Counter()
    counts: Counter = Counter()
    cli_self_s = 0.0
    for stats_file in traced_dir.glob("*.stats.json"):
        stats = json.loads(stats_file.read_text(encoding="utf-8"))
        calls.update(stats["calls"])
        seconds.update(stats["seconds"])
        counts.update(stats["counts"])
        cli_self_s += stats["cli_self_s"]

    def rate(count: float, name: str) -> float:
        return count / seconds[name] if seconds[name] else 0.0

    metrics: dict[str, float] = {}
    for layer, names in tracer.SPANS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = seconds[name]
    for key in (
        "estimate.fit_mle.free.calls",
        "estimate.fit_mle.gumbel.calls",
        "estimate.fit_mle.frechet.calls",
        "estimate.fit_mle.weibull.calls",
        "estimate.fit_mle.iterations",
        "estimate.fit_mle.se_missing",
        "estimate.fit_mle.failed",
        "gof.bootstrap_refits",
        "gof.bootstrap_redraws",
    ):
        metrics[key] = counts[key]
    metrics["gof.refits_per_s"] = rate(counts["gof.bootstrap_refits"], "gof.tcvm_test")
    metrics["recurrence.permutations_per_s"] = rate(
        counts["recurrence.permutations"], "recurrence.independence_test"
    )
    metrics["ingest.parse_daily_csv.rows_per_s"] = rate(
        counts["ingest.parse_daily_csv.rows"], "ingest.parse_daily_csv"
    )
    metrics["ingest.parse_daily_csv.peak_mb"] = 0.0
    daily = work / "daily.csv"
    if daily.exists():
        res = subprocess.run(
            [PY, str(BENCH / "tracer.py"), "--parse-peak", str(daily)],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        )
        metrics["ingest.parse_daily_csv.peak_mb"] = float(res.stdout.split()[-1])
    metrics["import.rainmax_s"], metrics["import.scipy_stats_s"] = importtime_breakdown()
    metrics["cli.self_s"] = cli_self_s
    metrics["trace.overhead_s"] = sum(p.wall for p in traced) - sum(p.wall for p in plain)
    return metrics, 2 * len(steps), failed, correct


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit unwinds through run_process, which stops the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "rainmax" / "cli.py").is_file():
        sys.stderr.write(f"no rainmax sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = WORKLOADS[args.workload](work, args.seed)
    if args.trace:
        values, attempted, failed, correct = per_layer(steps, work)
        declared = spec["per_layer"]
    else:
        values, attempted, failed, correct = end_to_end(steps, work, args.seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        sys.stderr.write(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}\n")
        return 2
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
