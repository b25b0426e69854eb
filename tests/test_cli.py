import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fresh import SRC
from ruinbounds import classify, cli, ecdf_survival, reference, sample_Z, SimConfig
from ruinbounds.cli import main
from ruinbounds.montecarlo import GENERATOR_NAME
from ruinbounds.reference import derive_seed, PARETO_HEAVY
from ruinbounds.tableio import read_csv_table, read_json

BASE_CONFIG = """\
[spec:heavy]
family = pareto
beta = 0.1
k = 0.9

[spec:matched]
family = lognormal
mu = 0.2145908
sigma2 = 0.0645385

[run]
c = 1.0
x = 1.2 1.4 2.0
horizons = 10 inf
rmax = 6
replicates = 400
truncation = adaptive
seed = 99
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestClassifyCommand:
    def test_stdout_csv(self, config_path, capsys):
        assert main(["classify", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "heavy" in out and "interior" in out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0].startswith("spec,elog,m,M,d1,d2")

    def test_csv_matches_library(self, config_path, tmp_path):
        out = tmp_path / "classify.csv"
        assert main(["classify", "--config", config_path, "--out", str(out)]) == 0
        _, columns, rows = read_csv_table(out)
        row = dict(zip(columns, rows[0]))
        regime = classify(PARETO_HEAVY)
        assert row["spec"] == "heavy"
        assert row["elog"] == regime.elog
        assert row["M"] == math.inf
        assert row["d1"] == 0

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "classify.json"
        code = main(["classify", "--config", config_path, "--format", "json",
                     "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        recs = {r["spec"]: r for r in payload["rows"]}
        assert recs["heavy"]["d2"] == "inf"
        assert recs["matched"]["family"] == "lognormal"


class TestMomentsCommand:
    def test_series_and_horizon_files(self, config_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["moments", "--config", config_path, "--out", str(out) + "/"]) == 0
        meta, columns, rows = read_csv_table(out / "moments_series.csv")
        assert columns == ("spec", "r", "gamma_r", "beta_r")
        assert len(rows) == 12  # two specs, rmax 6
        by_key = {(r[0], r[1]): r for r in rows}
        assert by_key[("heavy", 1)][3] == pytest.approx(0.1124, abs=5e-4)
        _, hcols, hrows = read_csv_table(out / "moments_horizons.csv")
        assert hcols == ("spec", "r", "n", "beta_r_n")
        assert all(row[2] == 10 for row in hrows)

    def test_metadata_notes_first_infinite_beyond_rmax(self, tmp_path, capsys):
        cfg = tmp_path / "p.ini"
        cfg.write_text("[spec:heavy]\nfamily = pareto\nbeta = 0.1\nk = 0.9\n"
                       "[run]\nhorizons = inf\nrmax = 60\n")
        assert main(["moments", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# first_infinite_heavy = 61" in out
        rows = [l for l in out.splitlines() if l.startswith("heavy,60,")]
        assert len(rows) == 1 and "inf" not in rows[0]

    def test_moment_exactly_at_one_is_infinite(self, tmp_path, capsys):
        # gamma_1 = theta/(alpha - 1) = 1 exactly, though the rounded log is not 0
        cfg = tmp_path / "g.ini"
        cfg.write_text("[spec:edge]\nfamily = gamma\nalpha = 4\ntheta = 3\n"
                       "[run]\nhorizons = inf\nrmax = 2\n")
        assert main(["moments", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# first_infinite_edge = 1" in out
        assert [l.split(",")[3] for l in out.splitlines() if l.startswith("edge,")] == [
            "inf", "inf"]

    def test_domain_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:shrink]\nfamily = lognormal\nmu = -0.1\nsigma2 = 0.04\n"
                       "[run]\nhorizons = inf\n")
        assert main(["moments", "--config", str(cfg)]) == 3


class TestBoundsCommand:
    def test_values_round_trip(self, config_path, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", config_path, "--out", str(out)]) == 0
        _, columns, rows = read_csv_table(out)
        table = {(r[0], r[1], r[2]): dict(zip(columns, r)) for r in rows}
        cell = table[("heavy", math.inf, 2.0)]
        assert cell["survival_lower"] == pytest.approx(0.9275, abs=1e-3)
        assert cell["order"] == 3
        finite = table[("heavy", 10, 2.0)]
        assert finite["survival_lower"] >= cell["survival_lower"]
        vac = table[("heavy", math.inf, 1.2)]
        assert vac["vacuous"] is False and vac["survival_lower"] > 0

    def test_matched_lognormal_horizon_10_cell(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[spec:matched]\nfamily = lognormal\nmu = 0.21459085740810752\n"
            "sigma2 = 0.06453852113757118\n"
            "[run]\nx = 9.5\nhorizons = 10\nrmax = 6\n"
        )
        out = tmp_path / "cell.csv"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        _, columns, rows = read_csv_table(out)
        cell = dict(zip(columns, rows[0]))
        assert cell["survival_lower"] == pytest.approx(0.8190, abs=1e-3)
        assert cell["order"] == 4

    def test_horizon_label_re_parses_to_value_written(self, config_path, tmp_path,
                                                      monkeypatch):
        written, emit = [], cli._emit

        def capture(cfg, columns, records, metadata, default_name):
            written.extend(tuple(record[col] for col in columns) for record in records)
            return emit(cfg, columns, records, metadata, default_name)

        monkeypatch.setattr(cli, "_emit", capture)
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--config", config_path, "--out", str(out)]) == 0
        _, columns, rows = read_csv_table(out)
        assert {row[columns.index("horizon")] for row in rows} == {10, math.inf}
        assert rows == written

    def test_requires_x_grid(self, tmp_path):
        cfg = tmp_path / "nox.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n[run]\nhorizons = inf\n")
        assert main(["bounds", "--config", str(cfg)]) == 2


class TestLongHorizonCommands:
    """Order-60 moments at horizon 200, where moment ratios overflow a double."""

    @pytest.mark.parametrize("command", ["bounds", "boundaries"])
    def test_order_sixty_long_horizon(self, tmp_path, capsys, command):
        cfg = tmp_path / "long.ini"
        cfg.write_text(
            "[spec:matched]\nfamily = lognormal\nmu = 0.21459085740810752\n"
            "sigma2 = 0.06453852113757118\n"
            "[spec:shape]\nfamily = gamma\nalpha = 17\ntheta = 13.333333333333334\n"
            "[run]\nx = 1.5 9.5 1e6\nhorizons = 200\nrmax = 60\n"
        )
        assert main([command, "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("\nshape,") == (3 if command == "bounds" else 59)


class TestBoundariesCommand:
    def test_layout_and_values(self, config_path, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["boundaries", "--config", config_path, "--out", str(out)]) == 0
        _, columns, rows = read_csv_table(out)
        assert columns == ("spec", "r", "Z_10", "Z")
        matched = {r[1]: r for r in rows if r[0] == "matched"}
        assert matched[1][3] == pytest.approx(7.2857, rel=1e-3)
        assert matched[5][2] == pytest.approx(13.4176, rel=1e-3)


class TestSimulateCommand:
    def test_files_and_determinism(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["simulate", "--config", config_path, "--out", str(out),
                         "--replicates", "120", "--truncation", "10"])
            assert code == 0
        for name in ("samples_heavy.csv", "estimate_heavy.json",
                     "samples_matched.csv", "estimate_matched.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta, columns, rows = read_csv_table(out1 / "samples_heavy.csv")
        assert columns == ("sample",)
        assert len(rows) == 120
        assert meta["generator"] == GENERATOR_NAME
        assert meta["truncation"] == 10
        # samples re-parse equal to a direct library call
        sim = SimConfig(replicates=120, truncation=10, seed=derive_seed(99, 0))
        est = sample_Z(PARETO_HEAVY, sim)
        assert np.array_equal(np.array([r[0] for r in rows], dtype=float), est.samples)
        payload = read_json(out1 / "estimate_heavy.json")
        assert payload["x"] == [1.2, 1.4, 2.0]
        assert payload["survival"][2] == ecdf_survival(est, 2.0, 1.0)

    def test_requires_out(self, config_path):
        assert main(["simulate", "--config", config_path]) == 2

    def test_adaptive_without_growth_is_domain_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:shrink]\nfamily = lognormal\nmu = -0.2\nsigma2 = 0.1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_adaptive_zero_sums(self, tmp_path):
        # most reciprocal draws underflow to 0.0, so many series are 0 exactly
        cfg = tmp_path / "zero.ini"
        cfg.write_text("[spec:flat]\nfamily = pareto\nbeta = 0.001\nk = 0.9\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--replicates", "50"]) == 0
        _, _, rows = read_csv_table(out / "samples_flat.csv")
        assert 0 < sum(row[0] == 0.0 for row in rows) < 50

    def test_adaptive_non_convergence_is_domain_error(self, tmp_path):
        # E[log shock] is about 1.1e-6: the series needs far more than the term cap
        cfg = tmp_path / "slow.ini"
        cfg.write_text("[spec:slow]\nfamily = pareto\nbeta = 1e6\nk = 1.0000001\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ruinbounds.cli", "simulate",
             "--config", str(cfg), "--out", str(tmp_path / "o"), "--replicates", "3"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("domain error: series did not converge")
        assert "Traceback" not in proc.stderr


class TestReproduceCommand:
    def test_table_2_files(self, tmp_path):
        out = tmp_path / "repro"
        assert main(["reproduce", "--table", "2", "--out", str(out)]) == 0
        meta, columns, rows = read_csv_table(out / "table_2.csv")
        assert columns == ("r", "gamma_r", "beta_r", "boundary")
        assert rows[0][2] == pytest.approx(0.1124, abs=5e-4)
        report = read_json(out / "table_2_deltas.json")
        assert report["max_abs_delta_analytic"] < 5e-4
        assert report["table_id"] == 2

    def test_deterministic_given_seed(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["reproduce", "--table", "7", "--seed", "5",
                         "--replicates", "200", "--out", str(out)]) == 0
            outs.append((out / "table_7.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_blank_cells_preserved(self, tmp_path):
        out = tmp_path / "repro8"
        assert main(["reproduce", "--table", "8", "--replicates", "150",
                     "--out", str(out)]) == 0
        _, columns, rows = read_csv_table(out / "table_8.csv")
        by_x = {r[0]: dict(zip(columns, r)) for r in rows}
        assert by_x[9.5]["lower_bound_3"] is None
        assert by_x[9.5]["survival_mc_5"] is None
        assert by_x[9.5]["lower_bound_10"] is not None

    def test_invalid_table_id(self):
        assert main(["reproduce", "--table", "12"]) == 2

    def test_defaults_are_the_reference_defaults(self):
        assert cli.ExperimentConfig().replicates == reference.DEFAULT_REPLICATES


class TestNonAsciiUnderAsciiLocale:
    """Files are UTF-8 whatever the locale: run under the C locale with UTF-8 mode off."""

    @staticmethod
    def run(*args, text=True):
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-X", "utf8=0", *args], env=env,
                              capture_output=True, text=text, timeout=120)

    def test_table_round_trip(self, tmp_path):
        script = (  # ASCII source: the C locale decodes the command line as ASCII
            "import locale, sys\n"
            "from ruinbounds.tableio import read_csv_table, write_csv_table\n"
            "print(locale.getpreferredencoding(False))\n"
            "path = write_csv_table(sys.argv[1], ('name',), [('\\u03c3-shock',)],"
            " {'spec': '\\u03c3'})\n"
            "assert read_csv_table(path) == ({'spec': '\\u03c3'}, ('name',),"
            " [('\\u03c3-shock',)])\n")
        out = tmp_path / "t.csv"
        proc = self.run("-c", script, str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().lower() not in ("utf-8", "utf8")  # the locale is not UTF-8
        assert out.read_bytes() == "# spec = σ\nname\nσ-shock\n".encode("utf-8")

    def test_config_spec_name(self, tmp_path):
        cfg = tmp_path / "sigma.ini"
        cfg.write_bytes("[spec:σ]\nfamily = constant\na = 2\n".encode("utf-8"))
        out = tmp_path / "classify.csv"
        proc = self.run("-m", "ruinbounds.cli", "classify", "--config", str(cfg),
                        "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, _, rows = read_csv_table(out)
        assert [row[0] for row in rows] == ["σ"]


    def test_config_spec_name_to_stdout(self, tmp_path):
        cfg = tmp_path / "sigma.ini"
        cfg.write_bytes("[spec:σ]\nfamily = constant\na = 2\n".encode("utf-8"))
        proc = self.run("-m", "ruinbounds.cli", "classify", "--config", str(cfg), text=False)
        assert proc.returncode == 0, proc.stderr
        assert b"\xcf\x83" in proc.stdout
        out = tmp_path / "classify.csv"
        self.run("-m", "ruinbounds.cli", "classify", "--config", str(cfg), "--out", str(out))
        assert proc.stdout == out.read_bytes()

    def test_stdout_without_a_buffer(self, tmp_path):
        cfg = tmp_path / "sigma.ini"
        cfg.write_bytes("[spec:σ]\nfamily = constant\na = 2\n".encode("utf-8"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["classify", "--config", str(cfg)]) == 0
        out = tmp_path / "classify.csv"
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        assert buf.getvalue() == out.read_text(encoding="utf-8")


class TestErrorPaths:
    def test_config_required(self, capsys):
        assert main(["classify"]) == 2
        assert "--config is required" in capsys.readouterr().err

    def test_missing_config(self):
        assert main(["classify", "--config", "/nonexistent/exp.ini"]) == 2

    def test_unknown_run_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n[run]\nbogus = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_adaptive_tol_is_an_unknown_run_key(self, tmp_path, capsys):
        # the adaptive tolerance is the fixed montecarlo.ADAPTIVE_TOL
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n[run]\nadaptive_tol = 1e-9\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown key 'adaptive_tol'" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:c]\nfamily = cauchy\nloc = 2\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_non_finite_parameter(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:g]\nfamily = gamma\nalpha = inf\ntheta = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_no_specs(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[run]\nc = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("horizons", ["10 10", "inf 3 inf"])
    @pytest.mark.parametrize("command", ["bounds", "boundaries"])
    def test_repeated_horizons(self, tmp_path, capsys, command, horizons):
        cfg = tmp_path / "twice.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n"
                       f"[run]\nx = 3.5\nhorizons = {horizons}\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "horizons must not repeat" in captured.err

    def test_nan_in_x_grid(self, tmp_path, capsys):
        cfg = tmp_path / "nan.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n[run]\nx = 1.5 nan 3.0\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "x grid values must be positive" in captured.err

    @pytest.mark.parametrize("c", ["inf", "0", "-1", "nan"])
    def test_consumption_must_be_positive_and_finite(self, tmp_path, capsys, c):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[spec:c]\nfamily = constant\na = 2\n[run]\nc = {c}\nx = 3.5\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c must be positive and finite" in captured.err

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        out = blocker / "nested" / "out.csv"
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n")
        assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 4

    def test_flag_overrides_config_seed(self, config_path, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        main(["simulate", "--config", config_path, "--out", str(out1),
              "--replicates", "50", "--truncation", "8"])
        main(["simulate", "--config", config_path, "--out", str(out2),
              "--replicates", "50", "--truncation", "8", "--seed", "1234"])
        a = (out1 / "samples_heavy.csv").read_text()
        b = (out2 / "samples_heavy.csv").read_text()
        assert a != b
