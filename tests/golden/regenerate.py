"""Rewrite the golden reference outputs under ``tests/golden/`` from the
current code:

- ``demo_profile_ci.json``: each demo station's (ci_lo, ci_hi) from one
  ``profile_ci_xi_rows`` call on ``demo_dataset(seed=29)``, at 17
  significant digits;
- ``diagnostics/salto/`` and ``diagnostics/tacuarembo/``: those stations'
  ``diagnostics/`` files from ``rainmax report --demo --seed 29``;
- ``report_demo/``: every other file of that run, ``run_config.json``
  without its ``out`` key.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves numbers runs the golden tests first, which print the
largest drift per file, then this script, and states that drift in
CHANGES.md. Regenerating to hide a defect is not allowed.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from rainmax.cli import _json_text, main
from rainmax.demo import demo_dataset
from rainmax.estimate import profile_ci_xi_rows

GOLDEN = Path(__file__).resolve().parent
DIAGNOSTIC_STATIONS = ("salto", "tacuarembo")  # a Gumbel station and the one Weibull choice


def profile_intervals() -> str:
    series = demo_dataset(seed=29)
    rows = profile_ci_xi_rows([s.values for s in series])
    lines = [
        f"  {json.dumps(s.station_id, ensure_ascii=False)}: [{ci.lower:.17g}, {ci.upper:.17g}]"
        for s, ci in zip(series, rows)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def replace_tree(source: Path, target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)


def regenerate() -> None:
    (GOLDEN / "demo_profile_ci.json").write_text(profile_intervals(), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        if main(["report", "--demo", "--seed", "29", "--out", str(out)]) != 0:
            raise SystemExit("report --demo --seed 29 failed")
        for slug in DIAGNOSTIC_STATIONS:
            replace_tree(out / "diagnostics" / slug, GOLDEN / "diagnostics" / slug)
        shutil.rmtree(out / "diagnostics")
        config = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
        del config["out"]
        (out / "run_config.json").write_text(_json_text(config), encoding="utf-8")
        replace_tree(out, GOLDEN / "report_demo")


if __name__ == "__main__":
    regenerate()
