"""Rewrite the golden reference outputs under ``tests/golden/`` from the
current code:

- ``demo_profile_ci.json``: each demo station's (ci_lo, ci_hi) from one
  ``profile_ci_xi_rows`` call on ``demo_dataset(seed=29)``, at 17
  significant digits;
- ``diagnostics/salto/`` and ``diagnostics/tacuarembo/``: those stations'
  ``diagnostics/`` files from ``rainmax report --demo --seed 29``;
- ``report_demo/``: every other file of that run, ``run_config.json``
  without its ``out`` key;
- ``report_mixed/``: the same files of ``rainmax report --seed 29 --input
  mixed.csv``, run in the directory of the file :func:`write_mixed_series`
  writes.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves numbers runs the golden tests first, which print the
largest drift per file, then this script, and states that drift in
CHANGES.md. Regenerating to hide a defect is not allowed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from rainmax.cli import _json_text, main
from rainmax.demo import demo_dataset
from rainmax.estimate import profile_ci_xi_rows
from rainmax.ingest import write_series_csv

GOLDEN = Path(__file__).resolve().parent
DIAGNOSTIC_STATIONS = ("salto", "tacuarembo")  # a Gumbel station and the one Weibull choice
# an 8-year station sharing 8 years with every demo station; its profile
# deviance never reaches the threshold below the MLE
SHORT = [61.2, 88.0, 73.5, 95.1, 70.3, 102.4, 66.0, 80.8]
# a 9-year station whose free fit does not converge
FAILING = [189.3, 72.7, 145.4, 210.8, 85.8, 423.1, 72.2, 87.2, 121.8]
MIXED_INPUT = "mixed.csv"  # relative, so run_config.json names the same input on every run


def profile_intervals() -> str:
    series = demo_dataset(seed=29)
    rows = profile_ci_xi_rows([s.values for s in series])
    lines = [
        f"  {json.dumps(s.station_id, ensure_ascii=False)}: [{ci.lower:.17g}, {ci.upper:.17g}]"
        for s, ci in zip(series, rows)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_mixed_series(directory: Path) -> None:
    """``MIXED_INPUT`` in ``directory``: the series.csv of ``rainmax ingest
    --demo --seed 29``, then Short, Bad (``FAILING``) and "Carrasco far from
    zero", Aeropuerto Carrasco's written maxima v mapped to v/25 + 1e4."""
    buf = io.StringIO()
    write_series_csv(demo_dataset(seed=29), buf)
    rows = [f"Short,{2000 + i},{v}\n" for i, v in enumerate(SHORT)]
    rows += [f"Bad,{2000 + i},{v}\n" for i, v in enumerate(FAILING)]
    rows += [
        f"Carrasco far from zero,{year},{float(value) / 25 + 1e4:.17g}\n"
        for station, year, value in csv.reader(buf.getvalue().splitlines())
        if station == "Aeropuerto Carrasco"
    ]
    (directory / MIXED_INPUT).write_text(buf.getvalue() + "".join(rows), encoding="utf-8")


def replace_tree(source: Path, target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)


def store_report(out: Path, name: str) -> None:
    """The report's --out tree, diagnostics/ aside, as ``GOLDEN / name``,
    its run_config.json without the ``out`` key."""
    shutil.rmtree(out / "diagnostics")
    config = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    del config["out"]
    (out / "run_config.json").write_text(_json_text(config), encoding="utf-8")
    replace_tree(out, GOLDEN / name)


def regenerate() -> None:
    (GOLDEN / "demo_profile_ci.json").write_text(profile_intervals(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        if main(["report", "--demo", "--seed", "29", "--out", str(out)]) != 0:
            raise SystemExit("report --demo --seed 29 failed")
        for slug in DIAGNOSTIC_STATIONS:
            replace_tree(out / "diagnostics" / slug, GOLDEN / "diagnostics" / slug)
        store_report(out, "report_demo")
    with tempfile.TemporaryDirectory() as tmp:
        write_mixed_series(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if main(["report", "--seed", "29", "--input", MIXED_INPUT, "--out", "report"]) != 0:
                raise SystemExit(f"report --seed 29 --input {MIXED_INPUT} failed")
        finally:
            os.chdir(cwd)
        store_report(Path(tmp) / "report", "report_mixed")


if __name__ == "__main__":
    regenerate()
