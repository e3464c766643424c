"""CLI tests: subcommand outputs, config precedence, error envelopes,
idempotent re-runs. Heavy end-to-end determinism lives in the acceptance
suite; these runs use small replicate counts."""

import datetime as dt
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rainmax import cli, estimate
from rainmax.cli import main, slugify
from rainmax.demo import URUGUAY_STATION_PARAMS
from rainmax.estimate import fit_mle
from rainmax.gev import GevParams
from rainmax.ingest import synth_dataset, write_series_csv

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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about half a second per CLI launch; the package uses
    # scipy.special and numpy for what it needed from it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, rainmax.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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

    def test_error_json_written_to_out_dir(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        rc = main(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert rc == 1
        envelope = json.loads((out / "error.json").read_text())
        assert envelope["command"] == "fit"

    def test_invalid_config_value(self, tmp_path, capsys):
        rc = main(["gof", "--demo", "--out", str(tmp_path / "o"), "--alpha", "1.5"])
        assert rc == 1
        assert "alpha" in json.loads(capsys.readouterr().err)["message"]

    def test_indep_requires_target(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv)
        rc = main(["indep", "--input", str(series_csv), "--out", str(tmp_path / "o"), *FAST])
        assert rc == 1
        assert "target" in json.loads(capsys.readouterr().err)["message"]


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(["fit", "--config", str(cfg), "--demo", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bogus" in json.loads(capsys.readouterr().err)["message"]


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

    def test_fit_survives_station_without_profile_interval(self, tmp_path):
        # an 8-year station whose profile deviance never reaches the
        # threshold below the MLE, appended to the bundled demo series
        assert main(["ingest", "--demo", "--seed", "29", "--out", str(tmp_path / "demo")]) == 0
        series_csv = tmp_path / "demo" / "series.csv"
        short = [61.2, 88.0, 73.5, 95.1, 70.3, 102.4, 66.0, 80.8]
        with series_csv.open("a", encoding="utf-8") as fh:
            fh.writelines(f"Short,{2000 + i},{v}\n" for i, v in enumerate(short))
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

    def test_fit_makes_one_free_fit_per_station(self, tmp_path, monkeypatch):
        series_csv = tmp_path / "series.csv"
        _write_series(series_csv, n_stations=3)
        free_fits = []

        def counting_fit_mle(data, constraint="free"):
            free_fits.append(constraint == "free")
            return fit_mle(data, constraint)

        monkeypatch.setattr(cli, "fit_mle", counting_fit_mle)
        monkeypatch.setattr(estimate, "fit_mle", counting_fit_mle)
        assert main(["fit", "--input", str(series_csv), "--out", str(tmp_path / "out")]) == 0
        assert sum(free_fits) == 3

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
