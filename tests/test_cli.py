"""CLI tests: subcommand outputs, config precedence, error envelopes,
idempotent re-runs. Heavy end-to-end determinism lives in the acceptance
suite; these runs use small replicate counts."""

import csv
import dataclasses
import datetime as dt
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rainmax import cli, cluster, estimate, gof, recurrence, seeding
from rainmax.cli import main, slugify
from rainmax.demo import URUGUAY_STATION_PARAMS, demo_dataset
from rainmax.estimate import fit_mle_rows, profile_ci_xi_rows
from rainmax.gev import GevParams, gev_sample
from rainmax.ingest import synth_dataset, write_series_csv
from rainmax.seeding import derive_seed

from golden.regenerate import FAILING, MIXED_INPUT, SHORT, write_mixed_series

FAST = ["--bootstrap", "99", "--permutations", "99"]


def _write_series(path, n_stations=6, years=33, seed=3):
    spec = [(name, params) for name, params in URUGUAY_STATION_PARAMS[:n_stations]]
    series = synth_dataset(spec, years=years, seed=seed)
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_series_csv(series, fh)
    return series


def _write_daily(path):
    rows = ["station,date,precip_mm"]
    rng = np.random.default_rng(0)
    for year in (1990, 1991):
        day = dt.date(year, 1, 1)
        while day.year == year:
            rows.append(f"A,{day.isoformat()},{rng.random() * 40 + 0.1:.2f}")
            day += dt.timedelta(days=1)
    # a sparse year that must be skipped
    rows.extend(f"A,1992-01-{d:02d},5.0" for d in range(1, 11))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _child_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _fresh(code, **env):
    """Standard output of ``code`` run in a fresh interpreter, with
    OPENBLAS_NUM_THREADS unset unless given in ``env``."""
    child = _child_env()
    child.pop("OPENBLAS_NUM_THREADS", None)  # this process imported rainmax.cli
    done = subprocess.run(
        [sys.executable, "-c", code], env={**child, **env}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency; scipy costs most of a CLI launch
    probe = (
        "import sys, rainmax.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh(probe) == "[]"


def test_package_import_loads_no_submodule_and_no_numpy():
    probe = (
        "import sys, rainmax; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'rainmax')))"
    )
    assert _fresh(probe) == "['rainmax']"


def test_top_level_names_are_their_submodules_objects():
    probe = """
import sys, rainmax
for name in rainmax.__all__:
    value = getattr(rainmax, name)
    assert value.__module__.startswith("rainmax."), name
    assert value is getattr(sys.modules[value.__module__], name), name
    assert name in dir(rainmax), name
namespace = {}
exec("from rainmax import *", namespace)
print(sorted(set(namespace) - {"__builtins__"}) == rainmax.__all__, len(rainmax.__all__), rainmax.__version__)
"""
    assert _fresh(probe) == "True 43 0.1.0"


def test_unknown_top_level_name_raises_attribute_error():
    probe = """
import rainmax
try:
    rainmax.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(probe) == "module 'rainmax' has no attribute 'no_such_name'"


def test_cli_import_sets_one_blas_thread_only_when_unset():
    probe = "import os, rainmax.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(probe) == "1"
    assert _fresh(probe, OPENBLAS_NUM_THREADS="2") == "2"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_import_starts_no_blas_worker_thread():
    probe = (
        "import rainmax.cli; "
        "print([line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')])"
    )
    assert _fresh(probe) == "['1']"


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert example is not None, "README.md has no Library example block"
    printed = _fresh(example.group(1))
    assert printed.startswith("GevParams("), printed


# runs the CLI with an import hook that refuses every scipy module
WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from rainmax.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_report_runs_without_scipy(tmp_path):
    args = ["report", "--demo", "--seed", "29", "--out", "out", *FAST]
    trees = []
    for name, command in (("blocked", ["-c", WITHOUT_SCIPY]), ("plain", ["-m", "rainmax"])):
        (tmp_path / name).mkdir()
        done = subprocess.run(
            [sys.executable, *command, *args],
            cwd=tmp_path / name,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        trees.append(_tree(tmp_path / name / "out"))
    assert trees[0] == trees[1]
    assert "fits.json" in trees[0] and "run_config.json" in trees[0]


# runs one CLI command, then reports whether numpy.ma was ever imported
NUMPY_MA_PROBE = """
import sys
from rainmax.cli import main
code = main(sys.argv[1:])
print("numpy.ma" in sys.modules)
raise SystemExit(code)
"""


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # a bare np.unique, np.quantile or np.percentile imports numpy.ma, about
    # 13 ms of every launch; sorted distinct values and rainmax's own
    # quantiles stand in for them
    series = tmp_path / "series.csv"
    _write_series(series, n_stations=8)
    commands = [
        ["fit", "--input", str(series)],
        ["cluster", "--method", "params", "--input", str(series)],
        ["cluster", "--method", "fmadogram", "--input", str(series)],
        ["indep", "--target", "Rocha", "--input", str(series), "--permutations", "99"],
        ["report", "--demo", "--seed", "29", *FAST],
    ]
    for k, command in enumerate(commands):
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_MA_PROBE, *command, "--out", str(tmp_path / f"out{k}")],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False", command


# families.csv of report --demo --seed 29 at the default B = 999. Rivera's
# p_gumbel is exactly alpha = 0.05, so one bootstrap comparison that flips
# changes its family.
DEMO_FAMILIES = """\
station,family,p_gumbel,p_second
Punta del Este,gumbel,0.669,
Aeropuerto Carrasco,gumbel,0.241,
Mercedes,gumbel,0.224,
Colonia,gumbel,0.41,
Aeropuerto Melilla,gumbel,0.107,
Rocha,gumbel,0.208,
Prado,gumbel,0.143,
Paso de los Toros,gumbel,0.583,
Palmitas,gumbel,0.099,
Melo,gumbel,0.804,
Durazno,gumbel,0.08,
Trinidad,gumbel,0.534,
Paysandú,gumbel,0.544,
Salto,gumbel,0.488,
Rivera,gumbel,0.058,
Young,gumbel,0.5,
Treinta y Tres,gumbel,0.099,
Bella Unión,gumbel,0.952,
Tacuarembó,weibull,0.022,0.341
Artigas,gumbel,0.054,
"""


@pytest.fixture(scope="module")
def demo_report(tmp_path_factory):
    """The ``--out`` tree of ``report --demo --seed 29`` at the defaults."""
    out = tmp_path_factory.mktemp("demo_report")
    assert main(["report", "--demo", "--seed", "29", "--out", str(out)]) == 0
    return out


def test_demo_report_families(demo_report):
    assert (demo_report / "families.csv").read_text(encoding="utf-8") == DEMO_FAMILIES


GOLDEN_DIAGNOSTICS = Path(__file__).parent / "golden" / "diagnostics"


def _same_to_tenth_digit(got: float, ref: float) -> bool:
    """``got`` is within one unit of the 10th significant digit of ``ref``;
    zeros and non-finite values must match exactly."""
    if ref == 0.0 or not math.isfinite(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= 10.0 ** (math.floor(math.log10(abs(ref))) - 9)


@pytest.mark.parametrize("slug", ["salto", "tacuarembo"])
def test_demo_diagnostics_match_the_golden_files(demo_report, slug):
    # the 14 diagnostics/ files of a Gumbel station (Salto) and of the demo's
    # one non-Gumbel choice (Tacuarembo, Weibull), as report --demo --seed 29
    # wrote them. Names, headers, row counts and the sidecars' other fields
    # match exactly; numbers, the sidecars' parameters too, within one unit
    # of their 10th significant digit, as numpy's SIMD exp and log may
    # differ in the last ulp between CPUs and flip a printed digit
    golden, written = GOLDEN_DIAGNOSTICS / slug, demo_report / "diagnostics" / slug
    names = sorted(p.name for p in golden.iterdir())
    assert len(names) == 14 and sorted(p.name for p in written.iterdir()) == names
    identical = True
    for name in names:
        ref_text = (golden / name).read_text(encoding="utf-8")
        got_text = (written / name).read_text(encoding="utf-8")
        identical = identical and got_text == ref_text
        if name.endswith(".json"):
            ref, got = json.loads(ref_text), json.loads(got_text)
            ref_params, got_params = ref.pop("params"), got.pop("params")
            assert got == ref, name
            assert got_params.keys() == ref_params.keys(), name
            for key, value in ref_params.items():
                assert _same_to_tenth_digit(got_params[key], value), (name, key)
            continue
        ref_lines, got_lines = ref_text.splitlines(), got_text.splitlines()
        assert got_lines[0] == ref_lines[0] == "x,y", name
        assert len(got_lines) == len(ref_lines), name
        for got_line, ref_line in zip(got_lines[1:], ref_lines[1:]):
            pairs = zip(got_line.split(","), ref_line.split(","), strict=True)
            assert all(_same_to_tenth_digit(float(g), float(r)) for g, r in pairs), (name, ref_line)
    print(f"{slug}: the 14 files are byte-identical to the golden ones: {identical}")


GOLDEN_REPORT = Path(__file__).parent / "golden" / "report_demo"
# The relative tolerance of every float of the golden report that is not
# compared exactly, fixed before any drift was measured. The free fit's
# Newton stop resolves the likelihood's flat directions only to about
# 1.5e-8 (a daily-fit station's shape moved that much when only its
# start's last bits changed), and every fitted and derived number inherits
# such a move; 5e-7 lies well above it and below the 1e-6 relative move of
# one shape that the comparison must catch.
REPORT_RTOL = 5e-7
# compared exactly: the Monte Carlo p-values, which lie on the
# (1 + k)/(B + 1) grid, and the integer columns of the CSV tables; every
# string, integer and bool of the JSON files is compared exactly as well
EXACT_KEYS = {"p_gumbel", "p_second", "p_value", "K", "year", "n_common_years"}


def _drift(got: object, ref: object, where: str, exact: bool = False) -> float:
    """The largest relative drift of the floats in ``got`` from ``ref``,
    asserting that each lies within REPORT_RTOL and all else is equal."""
    if isinstance(ref, dict):
        assert isinstance(got, dict) and got.keys() == ref.keys(), where
        return max(
            (_drift(got[k], ref[k], f"{where}: {k}", k in EXACT_KEYS) for k in ref), default=0.0
        )
    if isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        return max((_drift(g, r, where, exact) for g, r in zip(got, ref)), default=0.0)
    if isinstance(ref, float) and not exact:
        assert isinstance(got, float), (where, got, ref)
        if got == ref or (math.isnan(got) and math.isnan(ref)):
            return 0.0
        drift = abs(got - ref) / abs(ref) if ref else math.inf
        assert drift <= REPORT_RTOL, (where, got, ref)
        return drift
    assert type(got) is type(ref) and got == ref, (where, got, ref)
    return 0.0


def _parse_output(path: Path) -> object:
    """A JSON file's value, or a CSV or TSV table as its header and one
    dict per row, with every cell that reads as a number as a float."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)

    def cell(value: str) -> float | str:
        try:
            return float(value)
        except ValueError:
            return value

    delimiter = "\t" if path.suffix == ".tsv" else ","
    header, *rows = csv.reader(text.splitlines(), delimiter=delimiter)
    rows = [dict(zip(header, map(cell, row), strict=True)) for row in rows]
    return {"header": header, "rows": rows}


def _report_files(root: Path) -> list[str]:
    files = (p.relative_to(root) for p in root.rglob("*") if p.is_file())
    return sorted(p.as_posix() for p in files if p.parts[0] != "diagnostics")


def _compare_with_golden_report(
    out: Path, golden: Path = GOLDEN_REPORT, names: list[str] | None = None
) -> list[str]:
    """Compares the --out tree of a golden run, diagnostics/ aside, with its
    golden copy, or only the files ``names`` when given; returns a line per
    file with its largest relative drift and whether its bytes are the
    golden ones."""
    if names is None:
        names = _report_files(golden)
        got_names = _report_files(out)
        assert got_names == names, sorted(set(names) ^ set(got_names))
    lines = []
    for name in names:
        ref_bytes = (golden / name).read_bytes()
        if name == "run_config.json":  # the golden copy has no out key
            got = json.loads((out / name).read_text(encoding="utf-8"))
            del got["out"]
            got_bytes = cli._json_text(got).encode("utf-8")
        else:
            got, got_bytes = _parse_output(out / name), (out / name).read_bytes()
        drift = _drift(got, _parse_output(golden / name), name)
        same = got_bytes == ref_bytes
        lines.append(f"{name}: largest relative drift {drift:.3g}, bytes identical: {same}")
    return lines


def _print_comparison(title: str, lines: list[str]) -> None:
    print("\n".join(lines))
    same = all(line.endswith("True") for line in lines)
    print(f"{title}, {len(lines)} files: {'bytes identical' if same else 'bytes differ'}")


def test_demo_report_matches_the_golden_tree(demo_report):
    _print_comparison("report_demo", _compare_with_golden_report(demo_report))


GOLDEN_MIXED = Path(__file__).parent / "golden" / "report_mixed"


@pytest.fixture(scope="module")
def mixed_runs(tmp_path_factory):
    """``report/`` and ``fit/``: the --out trees of report --seed 29 and of
    fit on the mixed series file, run in its directory as regenerate.py
    runs the report."""
    root = tmp_path_factory.mktemp("mixed")
    write_mixed_series(root)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for command in ("report", "fit"):
            assert main([command, "--seed", "29", "--input", MIXED_INPUT, "--out", command]) == 0
    return root


def test_mixed_report_matches_the_golden_tree(mixed_runs):
    # the demo series plus an 8-year station (its profile interval fails,
    # the F-madogram stage leaves it out), a station whose free fit fails
    # and one thousands of scales from zero: fits of two series lengths
    names = _report_files(GOLDEN_MIXED)
    assert {"fit_errors.json", "cluster/fmadogram_excluded.json"} <= set(names)
    assert "ci_error" in json.loads((GOLDEN_MIXED / "fits.json").read_text(encoding="utf-8"))["Short"]
    lines = _compare_with_golden_report(mixed_runs / "report", GOLDEN_MIXED)
    _print_comparison("report_mixed", lines)


def test_mixed_fit_matches_the_golden_report(mixed_runs):
    names = ["fit_errors.json", "fits.json", "station_params.csv"]
    lines = _compare_with_golden_report(mixed_runs / "fit", GOLDEN_MIXED, names)
    _print_comparison("fit on report_mixed's input", lines)


def _edit_short_ci_error(out: Path) -> None:
    path = out / "fits.json"
    fits = json.loads(path.read_text(encoding="utf-8"))
    fits["Short"]["ci_error"] += "."
    path.write_text(cli._json_text(fits), encoding="utf-8")


def _drop_fit_errors(out: Path) -> None:
    (out / "fit_errors.json").unlink()


@pytest.mark.parametrize(
    "alter, where",
    [(_edit_short_ci_error, "fits.json: Short: ci_error"), (_drop_fit_errors, "fit_errors.json")],
)
def test_golden_mixed_comparison_catches(mixed_runs, tmp_path, alter, where):
    out = tmp_path / "report"
    shutil.copytree(mixed_runs / "report", out, ignore=shutil.ignore_patterns("diagnostics"))
    alter(out)
    with pytest.raises(AssertionError, match=re.escape(where)):
        _compare_with_golden_report(out, GOLDEN_MIXED)


def _move_one_p_value(out: Path) -> None:
    path = out / "gof.json"
    gof_json = json.loads(path.read_text(encoding="utf-8"))
    gof_json["Salto"]["p_gumbel"] += 1 / 1000  # one step of the B = 999 grid
    path.write_text(cli._json_text(gof_json), encoding="utf-8")


def _nudge_one_p_value(out: Path) -> None:
    # within REPORT_RTOL: only the exact comparison of p-values catches it
    path = out / "independence" / "artigas.json"
    detail = json.loads(path.read_text(encoding="utf-8"))
    detail[0]["p_value"] *= 1.0 + 1e-9
    path.write_text(cli._json_text(detail), encoding="utf-8")


def _swap_two_partition_labels(out: Path) -> None:
    path = out / "cluster" / "params_pam.json"
    pam = json.loads(path.read_text(encoding="utf-8"))
    labels = pam["3"]["assignments"]
    a = next(iter(labels))
    b = next(s for s in labels if labels[s] != labels[a])
    labels[a], labels[b] = labels[b], labels[a]
    path.write_text(cli._json_text(pam), encoding="utf-8")


def _drop_one_file(out: Path) -> None:
    (out / "cluster" / "fmadogram_silhouette.csv").unlink()


def _move_one_shape(out: Path) -> None:
    path = out / "fits.json"
    fits = json.loads(path.read_text(encoding="utf-8"))
    fits["Tacuarembó"]["xi"] *= 1.0 + 1e-6
    path.write_text(cli._json_text(fits), encoding="utf-8")


@pytest.mark.parametrize(
    "alter, where",
    [
        (_move_one_p_value, "gof.json: Salto: p_gumbel"),
        (_nudge_one_p_value, "independence/artigas.json: p_value"),
        (_swap_two_partition_labels, "cluster/params_pam.json: 3: assignments"),
        (_drop_one_file, "cluster/fmadogram_silhouette.csv"),
        (_move_one_shape, "fits.json: Tacuarembó: xi"),
    ],
)
def test_golden_report_comparison_catches(demo_report, tmp_path, alter, where):
    out = tmp_path / "report"
    shutil.copytree(demo_report, out, ignore=shutil.ignore_patterns("diagnostics"))
    alter(out)
    with pytest.raises(AssertionError, match=re.escape(where)):
        _compare_with_golden_report(out)


@given(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats().map(np.float64),
        st.integers(-(2**70), 2**70),
    )
)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(2**53 + 1)
@example(12345678901)
def test_number_format_is_format_g(value):
    # the diagnostics tables are written with one % format of all their
    # numbers, every other table through _format_optional: one format
    assert cli._NUMBER % value == format(value, ".10g")
    assert cli._format_optional(value) == format(value, ".10g")


class TestFamilyTestsOnThreads:
    """The gof stage runs each station's family tests on the usable-CPU
    thread pool."""

    @staticmethod
    def _gof(out, monkeypatch, workers):
        monkeypatch.setattr(seeding, "_usable_cpus", lambda: workers)
        return main(["gof", "--demo", "--seed", "29", "--bootstrap", "99", "--out", str(out)])

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch):
        tables = []
        for workers in (1, 2, 4):
            out = tmp_path / f"cpus{workers}"
            assert self._gof(out, monkeypatch, workers) == 0
            tables.append([(out / name).read_bytes() for name in ("gof.json", "families.csv")])
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_first_failing_station_in_series_order_is_reported(self, tmp_path, monkeypatch, workers):
        # the 3rd and the 7th stations' tests raise, the 3rd's only after the
        # 7th's has, on any pool of two or more threads
        stations = [s.station_id for s in demo_dataset(seed=29)]
        failing = {derive_seed(29, "gof", stations[i]): i for i in (2, 6)}
        select_family = gof.select_family

        def select_family_failing(data, free, **kwargs):
            i = failing.get(kwargs["seed"])
            if i is None:
                return select_family(data, free, **kwargs)
            if i == 2:
                time.sleep(0.3)
            raise estimate.FitError(f"family test failed for {stations[i]}")

        monkeypatch.setattr(gof, "select_family", select_family_failing)
        out = tmp_path / "out"
        assert self._gof(out, monkeypatch, workers) == 1
        envelope = json.loads((out / "error.json").read_text(encoding="utf-8"))
        assert envelope["message"] == f"family test failed for {stations[2]}"
        assert not (out / "gof.json").exists()


class TestSlugify:
    def test_accents_and_spaces(self):
        assert slugify("Paysandú") == "paysandu"
        assert slugify("Bella Unión") == "bella_union"
        assert slugify("Treinta y Tres") == "treinta_y_tres"


class TestIngest:
    def test_daily_to_series_with_skip_log(self, tmp_path):
        daily = tmp_path / "daily.csv"
        _write_daily(daily)
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(daily), "--out", str(out)]) == 0
        series_lines = (out / "series.csv").read_text().strip().splitlines()
        assert series_lines[0] == "station,year,max_mm"
        assert len(series_lines) == 3  # 1990 and 1991 retained
        skips = [json.loads(line) for line in (out / "skip_log.jsonl").read_text().splitlines()]
        assert skips == [{"station": "A", "year": 1992, "coverage": pytest.approx(10 / 366)}]

    def test_under_covered_station_left_out(self, tmp_path):
        # "Sparse" misses every other day of both years: the run goes on
        # without it, and its years are in the skip log
        daily = tmp_path / "daily.csv"
        _write_daily(daily)
        days = [dt.date(1990, 1, 1) + dt.timedelta(days=d) for d in range(0, 730, 2)]
        with daily.open("a") as fh:
            fh.write("".join(f"Sparse,{d},{d.day}.5\n" for d in days))
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(daily), "--out", str(out)]) == 0
        stations = [line.split(",")[0] for line in (out / "series.csv").read_text().splitlines()[1:]]
        assert stations == ["A", "A"]
        skips = [json.loads(line) for line in (out / "skip_log.jsonl").read_text().splitlines()]
        assert [(e["station"], e["year"]) for e in skips] == [("A", 1992), ("Sparse", 1990), ("Sparse", 1991)]

    def test_demo_ingest(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ingest", "--demo", "--out", str(out), "--seed", "1"]) == 0
        lines = (out / "series.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 20 * 33


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert "nope.csv" in err["message"]

    @pytest.mark.parametrize("command", ["ingest", "fit"])
    def test_input_errors_name_the_fix(self, tmp_path, capsys, command):
        out = str(tmp_path / "o")
        assert main([command, "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ValueError", "no input given: pass --input or --demo")
        missing = tmp_path / "nope.csv"
        assert main([command, "--input", str(missing), "--out", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("FileNotFoundError", f"input file not found: {missing}")

    def test_error_json_written_to_out_dir(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        rc = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert rc == 1
        envelope = json.loads((out / "error.json").read_text())
        assert envelope["command"] == "fit"

    @pytest.mark.parametrize("via_config", [False, True], ids=["default_out", "config_out"])
    def test_error_json_follows_the_resolved_out(self, tmp_path, capsys, monkeypatch, via_config):
        # select_k rejects kmax before any file of the params clustering is
        # written, so out/ holds error.json alone
        monkeypatch.chdir(tmp_path)
        args = ["cluster", "--demo", "--kmax", "25"]
        out = tmp_path / "out"
        if via_config:
            out = tmp_path / "from_config"
            (tmp_path / "cfg.json").write_text(json.dumps({"out": str(out)}))
            args += ["--config", "cfg.json"]
        assert main(args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "kmax must lie in [2, 19], got 25"
        assert not (out / "cluster").exists()
        assert json.loads((out / "error.json").read_text()) == err

    def test_success_removes_an_earlier_error_json(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["indep", "--demo", "--out", str(out), "--permutations", "99"]
        assert main(args) == 1
        envelope = json.loads((out / "error.json").read_text())
        assert envelope["message"] == "--target is required for the independence report"
        assert main([*args, "--target", "Melo"]) == 0
        assert not (out / "error.json").exists()
        assert (out / "independence" / "melo.csv").exists()

    def test_invalid_config_value(self, tmp_path, capsys):
        rc = main(["gof", "--demo", "--out", str(tmp_path / "o"), "--alpha", "1.5"])
        assert rc == 1
        assert "alpha" in json.loads(capsys.readouterr().err)["message"]

    def test_ci_level_checked_before_any_output(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ci_level": 1.5}))
        out = tmp_path / "o"
        out.mkdir()
        assert main(["report", "--demo", "--config", str(config), "--out", str(out), *FAST]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ValueError", "ci_level must lie in (0, 1)")
        assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_range_checked_before_any_output(self, tmp_path, capsys, seed):
        # a seed is hashed as 16 bytes: 2**128 used to pass validation, make
        # --out, and fail there with OverflowError
        out = tmp_path / "o"
        assert main(["fit", "--demo", "--seed", str(seed), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (
            "ValueError",
            f"seed must lie in [0, 2**128), got {seed}",
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "module, floor, flag, wording",
        [
            (gof, "_MIN_BOOTSTRAP", "--bootstrap", "bootstrap count"),
            (recurrence, "_MIN_PERMUTATIONS", "--permutations", "permutations"),
        ],
        ids=["bootstrap", "permutations"],
    )
    def test_count_floors_are_the_libraries(
        self, tmp_path, capsys, monkeypatch, module, floor, flag, wording
    ):
        # indep without --target fails just after validation, so the message
        # tells whether the count passed the floor
        args = ["indep", "--demo", "--out", str(tmp_path / "o")]
        monkeypatch.setattr(module, floor, 150)
        assert main([*args, flag, "120"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{wording} must be at least 150, got 120"
        monkeypatch.setattr(module, floor, 50)
        assert main([*args, flag, "60"]) == 1
        assert "--target" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["--delta", "0.5"], None, "delta must lie in [0, 0.5)"),
            (["--min-coverage", "0"], None, "min_coverage must lie in (0, 1]"),
            (["--min-overlap", "1"], None, "min_overlap must be at least 2"),
            (["--kmax", "1"], None, "kmax must be at least 2"),
            # the --method flag takes only its choices, a config file any string
            ([], {"method": "kmeans"}, "method must be 'params' or 'fmadogram'"),
        ],
        ids=["delta", "min_coverage", "min_overlap", "kmax", "method"],
    )
    def test_config_checks_before_any_output(self, tmp_path, capsys, args, config, message):
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            args = [*args, "--config", str(tmp_path / "config.json")]
        out = tmp_path / "o"
        assert main(["fit", "--demo", *args, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == ("ValueError", message)
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        out = tmp_path / "o"
        assert main(["fit", "--demo", "--config", str(missing), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["message"]) == (
            "FileNotFoundError",
            f"config file not found: {missing}",
        )
        assert not out.exists()

    def test_indep_requires_target(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv)
        rc = main(["indep", "--input", str(series_csv), "--out", str(tmp_path / "o"), *FAST])
        assert rc == 1
        assert "target" in json.loads(capsys.readouterr().err)["message"]


def _check_generated_parser(capsys) -> None:
    """Every subcommand's --help lists --config, then one flag per RunConfig
    field in field order; --standardize has its --no- form, --demo has none,
    and --method takes only its choices."""
    flags = [f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(cli.RunConfig)]
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit) as stop:
            cli._build_parser().parse_args([command, "--help"])
        assert stop.value.code == 0
        options = capsys.readouterr().out.split("options:\n")[1]
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, re.M)
        assert listed == ["--help", "--config", *flags]
        assert "  --standardize, --no-standardize\n" in options
        assert re.search(r"^  --demo +use the bundled dataset$", options, re.M)
        assert "--no-demo" not in options
        assert "  --method {params,fmadogram}\n" in options
        with pytest.raises(SystemExit) as stop:
            cli._build_parser().parse_args([command, "--method", "x"])
        assert stop.value.code == 2
        assert "argument --method: invalid choice: 'x' (choose from" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "kmax": 4}))
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv)
        out = tmp_path / "out"
        rc = main(
            [
                "cluster",
                "--config",
                str(cfg),
                "--input",
                str(series_csv),
                "--out",
                str(out),
                "--kmax",
                "3",
                "--method",
                "fmadogram",
            ]
        )
        assert rc == 0
        table = (out / "cluster" / "fmadogram_silhouette.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in table] == ["K", "2", "3"]

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("demo", "false", "true or false"),
            ("standardize", 0, "true or false"),
            ("seed", True, "an integer"),
            ("kmax", 3.0, "an integer"),
            ("alpha", "0.1", "a number"),
            ("ci_level", False, "a number"),
            ("method", None, "a string"),
            ("input", 5, "a string or null"),
        ],
    )
    def test_config_value_types_checked(self, tmp_path, capsys, key, value, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        out.mkdir()
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        expected = f"config key {key!r} must be {kind}, got {json.dumps(value)}"
        assert (err["error"], err["message"]) == ("ValueError", expected)
        assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_config_values_of_every_field_type_accepted(self, tmp_path):
        assert {f.type for f in dataclasses.fields(cli.RunConfig)} <= set(cli._CONFIG_TYPES)
        values = {"demo": True, "seed": 3, "alpha": 0, "delta": 0.1, "method": "fmadogram"}
        values |= {"input": None, "target": "Melo", "standardize": False}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = cli._build_parser().parse_args(["fit", "--config", str(cfg)])
        resolved = cli._resolve_config(args)
        assert {k: getattr(resolved, k) for k in values} == values

    @pytest.mark.parametrize(
        "command", ["ingest", "fit", "gof", "diagnose", "cluster", "indep", "report"]
    )
    def test_every_field_has_a_flag(self, command):
        dests = set(vars(cli._build_parser().parse_args([command]))) - {"command", "config"}
        assert dests == {f.name for f in dataclasses.fields(cli.RunConfig)}

    def test_parser_is_generated_from_the_fields(self, capsys):
        _check_generated_parser(capsys)

    @pytest.mark.parametrize("field", ["standardize", "method", "demo"])
    def test_check_fails_without_a_flag_option(self, capsys, monkeypatch, field):
        options = {k: v for k, v in cli._FLAG_OPTIONS.items() if k != field}
        monkeypatch.setattr(cli, "_FLAG_OPTIONS", options)
        with pytest.raises(AssertionError):
            _check_generated_parser(capsys)

    def test_ci_level_flag_sets_the_interval_level(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fit", "--demo", "--ci-level", "0.9", "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text())
        assert {row["ci_level"] for row in fits.values()} == {0.9}

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["seed", 1]))
        assert main(["fit", "--config", str(cfg), "--demo", "--out", str(tmp_path / "o")]) == 1
        assert "JSON object" in json.loads(capsys.readouterr().err)["message"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(["fit", "--config", str(cfg), "--demo", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bogus" in json.loads(capsys.readouterr().err)["message"]


@pytest.fixture
def fit_counts(monkeypatch):
    """Fits by constraint, counted at the rows entry point in every module
    that calls it (one per sample, so a refit inside ``profile_ci_xi_rows``
    counts too); ``fit_mle``, through which ``gof`` fits, is its one-row
    case."""
    counts = Counter()

    def counting_fit_mle_rows(samples, constraint="free"):
        counts[constraint] += len(samples)
        return fit_mle_rows(samples, constraint)

    for module in (estimate, cli):
        monkeypatch.setattr(module, "fit_mle_rows", counting_fit_mle_rows)
    return counts


class TestSubcommands:
    def test_fit_outputs(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(series_csv), "--out", str(out)]) == 0
        table = (out / "station_params.csv").read_text().strip().splitlines()
        assert table[0] == "station,mu,sigma,xi,ci_lo,ci_hi"
        assert len(table) == 7
        fits = json.loads((out / "fits.json").read_text())
        row = fits["Mercedes"]
        assert row["converged"] and row["ci_lo"] < row["xi"] < row["ci_hi"]

    def test_series_with_byte_order_mark(self, tmp_path):
        plain = tmp_path / "series.csv"
        _write_series(plain, n_stations=3)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for name, path in (("plain", plain), ("marked", marked)):
            assert main(["fit", "--input", str(path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "marked" / "fits.json").read_bytes() == (
            tmp_path / "plain" / "fits.json"
        ).read_bytes()

    def test_fit_survives_station_without_profile_interval(self, tmp_path):
        # an 8-year station whose profile deviance never reaches the
        # threshold below the MLE, appended to the bundled demo series
        assert main(["ingest", "--demo", "--seed", "29", "--out", str(tmp_path / "demo")]) == 0
        series_csv = tmp_path / "demo" / "series.csv"
        with series_csv.open("a", encoding="utf-8") as fh:
            fh.writelines(f"Short,{2000 + i},{v}\n" for i, v in enumerate(SHORT))
        out = tmp_path / "out"
        assert main(["fit", "--input", str(series_csv), "--out", str(out)]) == 0
        assert not (out / "error.json").exists()
        fits = json.loads((out / "fits.json").read_text())
        assert len(fits) == 21
        row = fits["Short"]
        assert row["ci_lo"] is None and row["ci_hi"] is None
        assert row["ci_error"] == (
            "profile deviance stays below the threshold at xi=-1.0; "
            "lower endpoint unbounded in (-1.0, 2.0)"
        )
        assert all("ci_error" not in r for sid, r in fits.items() if sid != "Short")
        table = (out / "station_params.csv").read_text().strip().splitlines()
        assert table[-1].startswith("Short,") and table[-1].endswith(",,")

    def test_fit_settles_stations_far_from_zero(self, tmp_path):
        # the demo series mapped to v/25 + 1e4, thousands of scales from 0:
        # every station's free fit starts from its Gumbel fit, which must
        # settle there too
        assert main(["ingest", "--demo", "--seed", "29", "--out", str(tmp_path / "demo")]) == 0
        with (tmp_path / "demo" / "series.csv").open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        shifted = tmp_path / "shifted.csv"
        with shifted.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([s, y, repr(float(v) / 25 + 1e4)] for s, y, v in rows)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(shifted), "--out", str(out)]) == 0
        assert not (out / "fit_errors.json").exists()
        assert len(json.loads((out / "fits.json").read_text())) == 20

    @pytest.mark.parametrize(
        "command",
        [["fit"], ["gof", *FAST], ["diagnose"], ["cluster", "--method", "params", "--kmax", "3"]],
    )
    def test_one_free_fit_per_station(self, tmp_path, fit_counts, command):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=4)
        assert main([*command, "--input", str(series_csv), "--out", str(tmp_path / "out")]) == 0
        assert fit_counts["free"] == 4

    def test_fit_counts_see_a_refit_in_the_interval_stage(self, tmp_path, fit_counts, monkeypatch):
        # the count above must catch an interval stage that fits again
        def without_frees(samples, level, frees=None):
            return profile_ci_xi_rows(samples, level)

        monkeypatch.setattr(cli, "profile_ci_xi_rows", without_frees)
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=4)
        assert main(["fit", "--input", str(series_csv), "--out", str(tmp_path / "out")]) == 0
        assert fit_counts["free"] == 8

    def test_gof_outputs(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=4)
        out = tmp_path / "out"
        assert main(["gof", "--input", str(series_csv), "--out", str(out), *FAST]) == 0
        table = (out / "families.csv").read_text().strip().splitlines()
        assert table[0] == "station,family,p_gumbel,p_second"
        assert len(table) == 5
        payload = json.loads((out / "gof.json").read_text())
        assert set(payload) == {"Punta del Este", "Aeropuerto Carrasco", "Mercedes", "Colonia"}
        for row in payload.values():
            assert row["family"] in ("gumbel", "frechet", "weibull")
            assert 0.0 <= row["lrt_p"] <= 1.0

    def test_diagnose_outputs(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=2)
        out = tmp_path / "out"
        assert main(["diagnose", "--input", str(series_csv), "--out", str(out)]) == 0
        station_dir = out / "diagnostics" / "punta_del_este"
        kinds = sorted(p.stem for p in station_dir.glob("*.csv"))
        assert kinds == [
            "density_empirical",
            "density_model",
            "pp",
            "qq",
            "return_curve",
            "return_gumbel_line",
            "return_points",
        ]
        sidecar = json.loads((station_dir / "pp.json").read_text())
        assert sidecar["station"] == "Punta del Este"
        assert set(sidecar["params"]) == {"mu", "sigma", "xi"}

    def test_cluster_params_outputs(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=8)
        out = tmp_path / "out"
        rc = main(
            ["cluster", "--input", str(series_csv), "--out", str(out), "--method", "params", "--kmax", "4"]
        )
        assert rc == 0
        dendro = json.loads((out / "cluster" / "params_dendrogram.json").read_text())
        assert len(dendro["merges"]) == 7
        assert set(dendro["cuts"]) == {"2", "3", "4"}
        pam = json.loads((out / "cluster" / "params_pam.json").read_text())
        assert pam["2"]["K"] == 2 and len(pam["2"]["assignments"]) == 8
        scores = (out / "cluster" / "params_pseudo_f.csv").read_text().splitlines()
        assert scores[0] == "K,score" and len(scores) == 4

    def test_indep_outputs(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=5)
        out = tmp_path / "out"
        rc = main(
            ["indep", "--input", str(series_csv), "--out", str(out), "--target", "Mercedes", *FAST]
        )
        assert rc == 0
        table = (out / "independence" / "mercedes.csv").read_text().strip().splitlines()
        assert table[0] == "target,other,statistic,p_value,n_common_years"
        assert len(table) == 5
        detail = json.loads((out / "independence" / "mercedes.json").read_text())
        assert len(detail) == 4 and all(d["target"] == "Mercedes" for d in detail)

    def test_indep_reports_a_failed_pair(self, tmp_path):
        # Short shares 8 years with the target, fewer than the test takes:
        # its row has no statistics and its entry the reason, no radii
        assert main(["ingest", "--demo", "--seed", "29", "--out", str(tmp_path / "demo")]) == 0
        demo = tmp_path / "demo" / "series.csv"
        with_short = tmp_path / "with_short.csv"
        rows = "".join(f"Short,{2000 + i},{v}\n" for i, v in enumerate(SHORT))
        with_short.write_text(demo.read_text(encoding="utf-8") + rows, encoding="utf-8")
        runs = {}
        for name, source in (("demo", demo), ("with_short", with_short)):
            out = tmp_path / f"indep_{name}"
            args = ["indep", "--target", "Punta del Este", "--input", str(source)]
            assert main([*args, "--out", str(out), *FAST]) == 0
            written = out / "independence" / "punta_del_este"
            table = written.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
            runs[name] = table, json.loads(written.with_suffix(".json").read_text(encoding="utf-8"))
        (table, detail), (ref_table, ref_detail) = runs["with_short"], runs["demo"]
        assert table[-1] == "Punta del Este,Short,,,8"
        assert detail[-1] == {
            "target": "Punta del Este",
            "other": "Short",
            "n_common_years": 8,
            "error": "series must have at least 10 points",
        }
        assert (table[:-1], detail[:-1]) == (ref_table, ref_detail)

    def test_cluster_rerun_idempotent(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=8)
        out = tmp_path / "out"
        args = ["cluster", "--input", str(series_csv), "--out", str(out), "--method", "fmadogram"]
        assert main(args) == 0
        first = {p.name: p.read_bytes() for p in (out / "cluster").iterdir()}
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in (out / "cluster").iterdir()}
        assert first == second


class TestOutputLayout:
    """The bytes of each output format, from the files a CLI run writes."""

    def test_distance_tsv_layout(self, tmp_path, monkeypatch):
        # three stations 5, 12 and 13 apart in feature space
        rows = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 12.0]])
        features = cluster.FeatureMatrix(("s00", "s01", "s02"), rows)
        monkeypatch.setattr(cluster, "param_features", lambda fits, standardize: features)
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=3)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(series_csv), "--out", str(out), "--kmax", "2"]) == 0
        text = (out / "cluster" / "params_distance.tsv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].split("\t") == ["station", "s00", "s01", "s02"]
        assert lines[1].split("\t")[2] == "5"
        assert lines[1:] == ["s00\t0\t5\t12", "s01\t5\t0\t13", "s02\t12\t13\t0"]
        assert text == "\n".join(lines) + "\n"

    def test_score_table_layout(self, tmp_path, monkeypatch):
        # scores handed over out of K order: the table sorts them
        select_k = cluster.select_k

        def unordered_scores(dm, kmax):
            return dataclasses.replace(select_k(dm, kmax=kmax), scores={3: 0.25, 2: 0.5})

        monkeypatch.setattr(cluster, "select_k", unordered_scores)
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=4)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(series_csv), "--out", str(out), "--kmax", "3"]) == 0
        assert (out / "cluster" / "params_silhouette.csv").read_text() == "K,score\n2,0.5\n3,0.25\n"

    def test_plot_csv_and_sidecar(self, tmp_path):
        x = gev_sample(GevParams(80.0, 25.0, 0.0), 10, seed=16)
        series_csv = tmp_path / "series.csv"
        rows = "".join(f"Somewhere,{1990 + i},{v}\n" for i, v in enumerate(x.tolist()))
        series_csv.write_text("station,year,max_mm\n" + rows)
        out = tmp_path / "out"
        assert main(["diagnose", "--input", str(series_csv), "--out", str(out)]) == 0
        lines = (out / "diagnostics" / "somewhere" / "pp.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 11
        sidecar = (out / "diagnostics" / "somewhere" / "pp.json").read_text()
        assert '"kind": "pp"' in sidecar and '"station": "Somewhere"' in sidecar

    def test_pair_report_csv_layout(self, tmp_path):
        spec = [(f"st{i:02d}", GevParams(90.0, 20.0, 0.05)) for i in range(6)]
        series_csv = tmp_path / "series.csv"
        with series_csv.open("w", encoding="utf-8", newline="") as fh:
            write_series_csv(synth_dataset(spec, years=33, seed=13)[:3], fh)
        out = tmp_path / "out"
        args = ["indep", "--input", str(series_csv), "--out", str(out), "--target", "st00"]
        assert main([*args, "--permutations", "99", "--seed", "5"]) == 0
        lines = (out / "independence" / "st00.csv").read_text().strip().splitlines()
        assert lines[0] == "target,other,statistic,p_value,n_common_years"
        assert len(lines) == 3

    def test_skip_log_json_lines(self, tmp_path):
        # 1991 in full, then 183 of the 366 days of 1992: coverage 0.5
        days = [dt.date(1991, 1, 1) + dt.timedelta(days=d) for d in range(365 + 183)]
        daily = tmp_path / "daily.csv"
        daily.write_text("station,date,precip_mm\n" + "".join(f"A,{d},{d.day}.5\n" for d in days))
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(daily), "--out", str(out)]) == 0
        skip_log = (out / "skip_log.jsonl").read_text()
        assert skip_log == '{"coverage": 0.5, "station": "A", "year": 1992}\n'


@pytest.mark.parametrize("method", ["params", "fmadogram"])
@pytest.mark.parametrize("kmax", [20, 25])
def test_cluster_checks_kmax_before_writing(tmp_path, capsys, kmax, method):
    out = tmp_path / "out"
    args = ["cluster", "--demo", "--method", method, "--kmax", str(kmax)]
    assert main([*args, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("ValueError", f"kmax must lie in [2, 19], got {kmax}")
    assert not any((out / "cluster").glob("*"))


@pytest.mark.parametrize("command", [["cluster"], ["report", *FAST]])
def test_two_stations_named_before_choosing_k(tmp_path, capsys, command):
    series_csv = tmp_path / "series.csv"
    _write_series(series_csv, n_stations=2)
    out = tmp_path / "out"
    assert main([*command, "--input", str(series_csv), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("ValueError", "choosing K needs at least 3 stations, got 2")


@pytest.mark.parametrize("command", [["cluster", "--method", "fmadogram"], ["report", *FAST]])
def test_one_fmadogram_call_per_command(tmp_path, monkeypatch, command):
    # every F-madogram distance comes from the one function the package
    # exports, which is the function a traced run times
    fmadogram_dm = cluster.fmadogram_dm
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fmadogram_dm(*args, **kwargs)

    monkeypatch.setattr(cluster, "fmadogram_dm", counting)
    assert main([*command, "--demo", "--seed", "29", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["diagnose", "report"])
def test_colliding_slugs_stop_before_any_output(tmp_path, capsys, command):
    demo = demo_dataset(seed=29)
    paso = next(s for s in demo if s.station_id == "Paso de los Toros")
    twin = dataclasses.replace(paso, station_id="Paso de los Toros.", values=paso.values * 1.5)
    source = tmp_path / "series.csv"
    with source.open("w", encoding="utf-8", newline="") as fh:
        write_series_csv([*demo, twin], fh)
    out = tmp_path / "out"
    assert main([command, "--input", str(source), "--out", str(out), *FAST]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == (
        "ValueError",
        "stations 'Paso de los Toros' and 'Paso de los Toros.' share the output name "
        "'paso_de_los_toros'",
    )
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_station_ids_with_commas_stay_one_field(tmp_path):
    station = "Paso de los Toros, Tacuarembo"
    series = [
        dataclasses.replace(s, station_id=station) if s.station_id == "Paso de los Toros" else s
        for s in demo_dataset(seed=29)
    ]
    source = tmp_path / "series.csv"
    with source.open("w", encoding="utf-8", newline="") as fh:
        write_series_csv(series, fh)
    out = tmp_path / "out"
    assert main(["report", "--input", str(source), "--out", str(out), "--seed", "29", *FAST]) == 0
    columns = {}
    for path in out.rglob("*.csv"):
        with path.open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows), path
        columns[path.relative_to(out).as_posix()] = [set(column) for column in zip(*rows)]
    for name in ("series.csv", "station_params.csv", "families.csv"):
        assert station in columns[name][0], name
    pairs = [name for name in columns if name.startswith("independence/")]
    assert len(pairs) == 1  # seed 29 leaves one singleton in the 2-group cut
    for name in ("cluster/fmadogram_extremal.csv", *pairs):
        assert station in columns[name][0] | columns[name][1], name


class TestReport:
    def test_small_end_to_end(self, tmp_path):
        out = tmp_path / "report"
        rc = main(["report", "--demo", "--out", str(out), "--seed", "29", *FAST])
        assert rc == 0
        assert (out / "run_config.json").exists()
        assert (out / "series.csv").exists()
        assert (out / "station_params.csv").exists()
        assert (out / "families.csv").exists()
        assert (out / "cluster" / "params_silhouette.csv").exists()
        assert (out / "cluster" / "fmadogram_silhouette.csv").exists()
        # seed 29 produces a singleton in the 2-group parameter clustering,
        # which triggers the pairwise independence stage
        indep = list((out / "independence").glob("*.csv"))
        assert len(indep) == 1
        rows = indep[0].read_text().strip().splitlines()
        assert len(rows) == 20  # header + 19 other stations
        cfg = json.loads((out / "run_config.json").read_text())
        assert cfg["seed"] == 29 and cfg["bootstrap"] == 99

    def test_rerun_into_a_used_out_matches_a_fresh_run(self, tmp_path):
        # seed 29 leaves one singleton in the 2-group cut and seed 1 none, so
        # the second run must remove the first run's independence report
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["report", "--demo", "--seed", "29", "--out", str(reused), *FAST]) == 0
        assert any((reused / "independence").iterdir())
        for out in (reused, fresh):
            assert main(["report", "--demo", "--seed", "1", "--out", str(out), *FAST]) == 0
        trees = []
        for out in (reused, fresh):
            tree = _tree(out)
            config = json.loads(tree.pop("run_config.json"))
            assert config.pop("out") == str(out)
            trees.append((tree, config))
        assert trees[0] == trees[1]
        assert not (fresh / "independence").exists()

    def test_run_config_replays_the_run(self, tmp_path):
        # run_config.json records the full configuration: fed back through
        # --config with only a new --out, it writes the same files
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["report", "--demo", "--out", str(first), *FAST]) == 0
        assert main(["report", "--config", str(first / "run_config.json"), "--out", str(replay)]) == 0
        trees = []
        for out in (first, replay):
            tree = _tree(out)
            config = json.loads(tree.pop("run_config.json"))
            assert config.pop("out") == str(out)
            trees.append((tree, config))
        assert trees[0] == trees[1]

    def test_report_fits_each_station_once(self, tmp_path, fit_counts):
        out = tmp_path / "report"
        assert main(["report", "--demo", "--out", str(out), "--seed", "29", *FAST]) == 0
        rows = json.loads((out / "gof.json").read_text()).values()
        second_stage = sum(row["p_second"] is not None for row in rows)
        assert second_stage >= 1, "seed 29 must reach a second-stage test"
        assert fit_counts["free"] == fit_counts["gumbel"] == 20
        assert fit_counts["frechet"] + fit_counts["weibull"] == second_stage


# a 9-year station whose free fit raises FitError
FAILING_REASON = "MLE did not converge under constraint 'free'"
# stations with fewer than 5 distinct maxima, which the free fit rejects
FEW = {"Four": [61.2, 88.0, 73.5, 95.1], "Flat": [70.0] * 33}
FEW_REASON = "data must contain at least 5 distinct values"
PARAMS_OUTPUTS = [
    f"cluster/params_{name}"
    for name in ("dendrogram.json", "distance.tsv", "pam.json", "pseudo_f.csv", "silhouette.csv")
]


class TestStationIsolation:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("isolation")
        assert main(["ingest", "--demo", "--seed", "29", "--out", str(root / "demo")]) == 0
        demo = root / "demo" / "series.csv"
        failing = root / "failing.csv"
        failing.write_text(
            demo.read_text() + "".join(f"Bad,{2000 + i},{v}\n" for i, v in enumerate(FAILING))
        )
        both = root / "both.csv"
        both.write_text(
            failing.read_text() + "".join(f"Short,{2000 + i},{v}\n" for i, v in enumerate(SHORT))
        )
        few = root / "few.csv"
        rows = [f"{s},{2000 + i},{v}\n" for s, values in FEW.items() for i, v in enumerate(values)]
        few.write_text(demo.read_text() + "".join(rows))
        return {"demo": demo, "failing": failing, "both": both, "few": few, "root": root}

    @staticmethod
    def _run(inputs, name, command, source):
        out = inputs["root"] / f"{name}_{source}"
        assert main([*command, "--input", str(inputs[source]), "--out", str(out), *FAST]) == 0
        assert not (out / "error.json").exists()
        return out

    @pytest.mark.parametrize(
        "command, outputs",
        [
            (["fit"], ["fits.json", "station_params.csv"]),
            (["cluster", "--method", "params"], PARAMS_OUTPUTS),
        ],
    )
    def test_failed_free_fit_is_listed_and_left_out(self, inputs, command, outputs):
        name = command[0]
        with_bad = self._run(inputs, name, command, "failing")
        without = self._run(inputs, name, command, "demo")
        assert json.loads((with_bad / "fit_errors.json").read_text()) == {"Bad": FAILING_REASON}
        assert not (without / "fit_errors.json").exists()
        for path in outputs:
            assert (with_bad / path).read_bytes() == (without / path).read_bytes(), path

    @pytest.mark.parametrize(
        "command",
        [
            ["fit"],
            ["gof"],
            ["diagnose"],
            ["cluster", "--method", "params"],
            ["report", "--seed", "29"],
        ],
    )
    def test_station_with_too_few_distinct_maxima_is_listed(self, inputs, command):
        out = self._run(inputs, command[0], command, "few")
        assert json.loads((out / "fit_errors.json").read_text()) == {s: FEW_REASON for s in FEW}
        for path in out.rglob("*"):
            if path.is_file() and path.name != "fit_errors.json":
                text = path.read_text(encoding="utf-8")
                assert not any(station in text for station in FEW), path
        assert not any(slugify(s) in {p.name for p in out.glob("diagnostics/*")} for s in FEW)

    def test_fmadogram_checks_kmax_before_writing_exclusions(self, inputs):
        out = inputs["root"] / "kmax_fmadogram"
        args = ["cluster", "--method", "fmadogram", "--kmax", "25", "--input", str(inputs["both"])]
        assert main([*args, "--out", str(out)]) == 1
        assert not any((out / "cluster").glob("*"))

    def test_rerun_without_failures_removes_old_records(self, inputs):
        out = inputs["root"] / "rerun"
        for source, failed in (("both", True), ("demo", False)):
            for command in (["fit"], ["cluster", "--method", "fmadogram"]):
                assert main([*command, "--input", str(inputs[source]), "--out", str(out)]) == 0
            assert (out / "fit_errors.json").exists() == failed
            assert (out / "cluster" / "fmadogram_excluded.json").exists() == failed

    @pytest.mark.parametrize("command", [["diagnose"], ["report", "--seed", "29"]])
    def test_rerun_clears_stale_diagnostics(self, inputs, command):
        demo = inputs["demo"].read_text()
        with_short = inputs["root"] / "with_short.csv"
        with_short.write_text(demo + "".join(f"Short,{2000 + i},{v}\n" for i, v in enumerate(SHORT)))
        demo_slugs = {slugify(line.split(",")[0]) for line in demo.splitlines()[1:]}
        out = inputs["root"] / f"stale_{command[0]}"
        for source, slugs in ((with_short, demo_slugs | {"short"}), (inputs["demo"], demo_slugs)):
            assert main([*command, "--input", str(source), "--out", str(out), *FAST]) == 0
            assert {p.name for p in (out / "diagnostics").iterdir()} == slugs

    def test_report_drops_failed_and_short_stations(self, inputs):
        out = self._run(inputs, "report", ["report", "--seed", "29"], "both")
        ref = self._run(inputs, "report", ["report", "--seed", "29"], "demo")
        assert json.loads((out / "fit_errors.json").read_text()) == {"Bad": FAILING_REASON}
        demo_stations = json.loads((ref / "gof.json").read_text())
        excluded = json.loads((out / "cluster" / "fmadogram_excluded.json").read_text())
        assert excluded == {
            "min_overlap": 10,
            "excluded": {"Short": {station: 8 for station in demo_stations}},
        }
        assert not (ref / "fit_errors.json").exists()
        assert not (ref / "cluster" / "fmadogram_excluded.json").exists()
        for name in ("fits.json", "gof.json"):
            rows = json.loads((out / name).read_text())
            ref_rows = json.loads((ref / name).read_text())
            assert "Bad" not in rows and "Short" in rows
            assert {k: v for k, v in rows.items() if k != "Short"} == ref_rows
        for path in (ref / "cluster").glob("fmadogram_*"):
            assert (out / "cluster" / path.name).read_bytes() == path.read_bytes(), path.name
        assert "Bad," not in (out / "series.csv").read_text()
        assert not (out / "diagnostics" / "bad").exists()
