"""Self-test of the output checks: each must pass the program's real output
and reject a copy with one deliberate fault in the file it guards.

    python3 bench/selftest.py

Runs one round of every workload on seed 1 (about a minute), then for each named
check corrupts a fresh copy of the round and runs the check on it. The
determinism check is tested by altering one byte of a copied step output.
Exits 1 if a check fails real output or accepts a corrupted copy.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

from scipy.stats import genextreme

import checks as C
import run

SEED = 1


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _first(data: dict) -> dict:
    return data[sorted(data)[0]]


def _shift_loglik(fits: dict) -> None:
    _first(fits)["loglik"] += 1e-3


def _suboptimal_fit(step: Path) -> None:
    # a self-consistent fit (loglik recomputed) that is not the maximum
    source = step.parent / "ingest" if step.name == "fit" else step
    series = C.read_series(source / "series.csv")

    def edit(fits: dict) -> None:
        station = sorted(fits)[0]
        row = fits[station]
        row["mu"] += 0.05 * row["sigma"]
        x = series[station][1]
        row["loglik"] = float(genextreme.logpdf(x, -row["xi"], loc=row["mu"], scale=row["sigma"]).sum())

    _edit_json(step / "fits.json", edit)


def _widen_ci(fits: dict) -> None:
    _first(fits)["ci_hi"] += 0.05


def _scale_lrt(gof: dict) -> None:
    _first(gof)["lrt_statistic"] *= 1.01


def _off_grid_p(gof: dict) -> None:
    _first(gof)["p_gumbel"] += 0.0003


def _flip_family(gof: dict) -> None:
    row = _first(gof)
    row["family"] = "weibull" if row["family"] == "gumbel" else "gumbel"


def _set_perm_p(step: Path, edit) -> None:
    for report in (step / "independence").glob("*.json"):
        _edit_json(report, edit)


def _off_grid_perm_p(rows: list) -> None:
    rows[0]["p_value"] += 0.0003


def _weaken_all_pairs(rows: list) -> None:
    for row in rows:
        row["p_value"] = 0.2


def _alter_madogram(step: Path) -> None:
    path = step / "cluster" / "fmadogram_distance.tsv"
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    for i, j in ((1, 2), (2, 1)):
        rows[i][j] = format(float(rows[i][j]) + 0.01, ".10g")
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(rows)


def _raise_ward_height(dendrogram: dict) -> None:
    dendrogram["merges"][-1][2] *= 1.01


def _swap_pam_label(method: str):
    def corrupt(step: Path) -> None:
        def edit(parts: dict) -> None:
            part = parts["2"]
            station = next(s for s in sorted(part["assignments"]) if s not in part["medoids"])
            part["assignments"][station] = 3 - part["assignments"][station]

        _edit_json(step / "cluster" / f"{method}_pam.json", edit)

    return corrupt


def _swap_region_labels(step: Path) -> None:
    def edit(parts: dict) -> None:
        assignment = parts["4"]["assignments"]
        a = sorted(assignment)[0]
        b = next(s for s in sorted(assignment) if assignment[s] != assignment[a])
        assignment[a], assignment[b] = assignment[b], assignment[a]

    _edit_json(step / "cluster" / "fmadogram_pam.json", edit)


def _change_maximum(step: Path) -> None:
    lines = (step / "series.csv").read_text(encoding="utf-8").splitlines()
    station, year, value = lines[1].split(",")
    lines[1] = f"{station},{year},{float(value) + 0.1:.10g}"
    (step / "series.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_skip_entry(step: Path) -> None:
    lines = (step / "skip_log.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (step / "skip_log.jsonl").write_text("".join(lines[1:]), encoding="utf-8")


def _flip_byte(step: Path) -> None:
    path = sorted(p for p in step.rglob("*") if p.is_file() and p.name != "run_config.json")[0]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


# check name -> function that corrupts a copy of the step directory the check guards
CORRUPTIONS = {
    "fit_loglik": lambda step: _edit_json(step / "fits.json", _shift_loglik),
    "fit_is_maximum": _suboptimal_fit,
    "profile_ci": lambda step: _edit_json(step / "fits.json", _widen_ci),
    "lrt": lambda step: _edit_json(step / "gof.json", _scale_lrt),
    "gof_pvalues": lambda step: _edit_json(step / "gof.json", _off_grid_p),
    "family_rule": lambda step: _edit_json(step / "gof.json", _flip_family),
    "indep_pvalues": lambda step: _set_perm_p(step, _off_grid_perm_p),
    "within_region": lambda step: _set_perm_p(step, _weaken_all_pairs),
    "fmadogram": _alter_madogram,
    "ward_heights": lambda step: _edit_json(step / "cluster" / "params_dendrogram.json", _raise_ward_height),
    "pam_nearest_params": _swap_pam_label("params"),
    "pam_nearest_fmadogram": _swap_pam_label("fmadogram"),
    "pam_regions": _swap_region_labels,
    "series_truth": _change_maximum,
    "skip_log_truth": _drop_skip_entry,
}


def main() -> int:
    problems = 0
    for workload, build in run.WORKLOADS.items():
        work = run.WORK / "selftest" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        steps = build(work, SEED)
        real = work / "round1"
        procs = run.run_round(steps, real, traced=False)
        failed, _ = run.verify(steps, procs, real, None)
        if failed:
            print(f"{workload}: {failed} command(s) failed on real output")
            problems += 1
            continue
        bad = work / "corrupt"
        for step in steps:
            cases = [(name, check, CORRUPTIONS[name]) for name, check in step.checks]
            cases.append(
                ("same_tree", lambda r, out=step.out: C.check_same_tree(real / out, r / out), _flip_byte)
            )
            for name, check, corrupt in cases:
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(real, bad)
                corrupt(bad / step.out)
                try:
                    check(bad)
                except C.CheckError as exc:
                    print(f"{workload:16s} {step.out:10s} {name:22s} rejects corrupted copy: {exc}")
                else:
                    print(f"{workload:16s} {step.out:10s} {name:22s} ACCEPTS corrupted copy")
                    problems += 1
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
