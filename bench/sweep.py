"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py --workload daily-fit --seeds 1-10 [--trace 0]

Each run is a separate ``run.py`` process. Result lines are appended to
``.bench_work/results/<workload>.trace<0|1>.jsonl``. For every metric the
summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, the spread the benchmark's bounds are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORK


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    log = results_dir / f"{args.workload}.trace{args.trace}.jsonl"
    rows = []
    for seed in args.seeds:
        res = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(run_seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(res.stdout.splitlines()[-1])
        row["seed"] = seed
        rows.append(row)
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        print(
            f"seed {seed}: correct={row['correct']} attempted={row['attempted']} failed={row['failed']}",
            flush=True,
        )

    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
