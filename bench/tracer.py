"""Run one rainmax CLI command with every public layer function wrapped in a span.

    python3 bench/tracer.py STATS_JSON <rainmax arguments...>
    python3 bench/tracer.py --parse-peak DAILY_CSV

The first form runs ``rainmax.cli.main`` in this process after rebinding
each traced function in every rainmax module that holds it (``fit_mle`` in
``gof`` and ``cli``, ``log_likelihood`` in ``estimate``, and the defining
module itself, so calls inside a module are seen too). It writes call
counts, inclusive seconds, self time of the ``cmd_*`` handlers and
numerical counters to STATS_JSON. The program's files are not touched.

The second form parses a daily CSV once under tracemalloc and prints the
peak traced allocation in MB; it runs apart from the timed passes because
tracemalloc slows every allocation.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

SPANS = {
    "gev": ("log_likelihood",),
    "estimate": ("fit_mle", "profile_ci_xi"),
    "gof": ("tcvm_test", "tcvm_statistic", "lrt_gumbel_vs_gev", "select_family"),
    "diagnose": ("station_diagnostics",),
    "cluster": ("fmadogram_dm", "pam_cluster", "ward_cluster", "select_k", "silhouette"),
    "recurrence": ("independence_test",),
    "ingest": ("parse_daily_csv", "block_maxima", "read_series_csv"),
}


class Recorder:
    """Span and counter store for one traced process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.cli_self_s = 0.0
        self._covered: list[float] = []  # per open span: time covered by spans directly inside it
        self._tcvm_fits: int | None = None  # fit_family calls in the open tcvm_test

    def span(self, name: str, fn, before=None, after=None):
        covered_stack, clock = self._covered, time.perf_counter
        is_handler = name.startswith("cli.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            covered_stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.failed"] += 1
                raise
            finally:
                dt = clock() - t0
                covered = covered_stack.pop()
                if covered_stack:
                    covered_stack[-1] += dt
                self.calls[name] += 1
                self.seconds[name] += dt
                if is_handler:
                    self.cli_self_s += dt - covered
            if after is not None:
                after(result)
            return result

        return wrapper

    def tcvm_scope(self, fn):
        """Marks the extent of one tcvm_test so fit_family can count refits."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._tcvm_fits = 0
            try:
                return fn(*args, **kwargs)
            finally:
                self._tcvm_fits = None

        return wrapper

    def fit_family_counter(self, fn):
        """Counts bootstrap refits (every fit_family call in a tcvm_test after the
        fit of the observed sample) and the refits among them that raised."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._tcvm_fits is None:
                return fn(*args, **kwargs)
            self._tcvm_fits += 1
            if self._tcvm_fits == 1:
                return fn(*args, **kwargs)
            self.counts["gof.bootstrap_refits"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts["gof.bootstrap_redraws"] += 1
                raise

        return wrapper

    def fit_mle_before(self, args, kwargs) -> None:
        constraint = args[1] if len(args) > 1 else kwargs.get("constraint", "free")
        self.counts[f"estimate.fit_mle.{constraint}.calls"] += 1

    def fit_mle_after(self, fit) -> None:
        self.counts["estimate.fit_mle.iterations"] += fit.iterations
        self.counts["estimate.fit_mle.se_missing"] += fit.std_errors is None

    def parse_after(self, records) -> None:
        self.counts["ingest.parse_daily_csv.rows"] += len(records)

    def independence_after(self, result) -> None:
        self.counts["recurrence.permutations"] += result.permutations

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "cli_self_s": self.cli_self_s,
        }


def install(rec: Recorder):
    """Wrap the traced functions and return the rainmax.cli module."""
    import rainmax.cli as cli

    modules = [m for n, m in sys.modules.items() if n == "rainmax" or n.startswith("rainmax.")]

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    hooks = {
        "estimate.fit_mle": {"before": rec.fit_mle_before, "after": rec.fit_mle_after},
        "ingest.parse_daily_csv": {"after": rec.parse_after},
        "recurrence.independence_test": {"after": rec.independence_after},
    }
    for layer, names in SPANS.items():
        module = sys.modules[f"rainmax.{layer}"]
        for fname in names:
            original = getattr(module, fname)
            target = rec.tcvm_scope(original) if (layer, fname) == ("gof", "tcvm_test") else original
            rebind(original, rec.span(f"{layer}.{fname}", target, **hooks.get(f"{layer}.{fname}", {})))
    gof = sys.modules["rainmax.gof"]
    rebind(gof.fit_family, rec.fit_family_counter(gof.fit_family))
    for command, handler in list(cli._COMMANDS.items()):
        wrapped = rec.span(f"cli.cmd_{command}", handler)
        cli._COMMANDS[command] = wrapped
        rebind(handler, wrapped)
    return cli


def parse_peak_mb(path: Path) -> float:
    from rainmax.ingest import parse_daily_csv

    tracemalloc.start()
    try:
        with path.open("rb") as fh:
            parse_daily_csv(fh)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--parse-peak":
        print(f"{parse_peak_mb(Path(argv[1])):.6f}")
        return 0
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    rec = Recorder()
    cli = install(rec)
    try:
        return cli.main(argv[1:])
    finally:
        Path(argv[0]).write_text(json.dumps(rec.stats(), sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
