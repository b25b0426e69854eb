import argparse
import configparser
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fresh import SRC
from ruinbounds import classify, cli, ecdf_survival, reference, sample_Z, SimConfig
from ruinbounds.cli import main
from ruinbounds.montecarlo import GENERATOR_NAME, derive_seed
from ruinbounds.reference import PARETO_HEAVY
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


# the rule of a blank out, from [run] or --out
BLANK_OUT = "out must name a file or directory, got a blank value"


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

    def test_infinite_stock_on_an_infinite_moment_is_vacuous(self, tmp_path, capsys):
        """The series of this lognormal has no finite moment: x = inf is vacuous, not NaN."""
        cfg = tmp_path / "ln.ini"
        cfg.write_text("[spec:ln]\nfamily = lognormal\nmu = 0.1\nsigma2 = 1.0\n"
                       "[run]\nx = 2.0 inf\nhorizons = 3 inf\nrmax = 4\n")
        assert main(["bounds", "--config", str(cfg)]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("ln,")]
        assert rows == ["ln,3,2,1,0,1,7.037482548870284,true",
                        "ln,3,inf,3,1,0,0,false",
                        "ln,inf,2,1,0,1,inf,true",
                        "ln,inf,inf,1,0,1,inf,true"]

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

    def test_without_out_writes_to_the_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "--table", "2"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table_2.csv",
                                                              "table_2_deltas.json"]

    @pytest.mark.parametrize("out", ["", "  "])
    def test_blank_out_exits_2(self, tmp_path, monkeypatch, capsys, out):
        # Path("") would name the current directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["reproduce", "--table", "2", "--out", out])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --out: {BLANK_OUT}\n")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_table_id(self):
        assert main(["reproduce", "--table", "12"]) == 2

    @pytest.mark.parametrize("table_id", [True, 1.0, np.float64(1.0)],
                             ids=["bool", "float", "numpy_float"])
    @pytest.mark.parametrize("call", [reference.reference_table, reference.build_table])
    def test_table_id_must_be_an_integer(self, call, table_id):
        """``True`` and ``1.0`` hash as 1, so a dict lookup alone would take them as table 1."""
        message = f"^table id must be an integer, got {re.escape(repr(table_id))}$"
        with pytest.raises(ValueError, match=message):
            call(table_id)

    @pytest.mark.parametrize("name, value", [("seed", -5), ("seed", True),
                                             ("replicates", 0), ("replicates", True)])
    @pytest.mark.parametrize("table_id", [1, 3, 7])
    def test_build_table_checks_seed_and_replicates(self, table_id, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            reference.build_table(table_id, **{name: value})

    @pytest.mark.parametrize("flag, value, message", [("--seed", "-5", "seed must be >= 0"),
                                                      ("--seed", str(2 ** 64),
                                                       "seed must be below 2 ** 64"),
                                                      ("--replicates", "0",
                                                       "replicates must be >= 1")])
    @pytest.mark.parametrize("table_id", ["1", "7"])
    def test_bad_seed_or_replicates_exits_2(self, tmp_path, capsys, table_id, flag, value,
                                            message):
        out = tmp_path / "repro"
        with pytest.raises(SystemExit) as info:  # argparse admits the flag
            main(["reproduce", "--table", table_id, flag, value, "--out", str(out)])
        assert info.value.code == 2
        assert f"error: argument {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("key, value", [("rmax", "2.5"), ("c", "abc"), ("seed", "1e3"),
                                            ("replicates", "ten")])
    def test_unparsable_run_value_names_file_and_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[spec:c]\nfamily = constant\na = 2\n[run]\n{key} = {value}\n")
        assert main(["classify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg} [run] {key}: ")
        assert repr(value) in err

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "twice.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\na = 3\n")
        assert main(["classify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {cfg}: While reading from ")

    @pytest.mark.parametrize("section", ["output", "specimen", "spec", "SPEC", "spec x"])
    def test_only_run_and_spec_colon_sections(self, tmp_path, capsys, section):
        # a spec's name is the text after 'spec:', so [specimen] and [spec] are no specs
        cfg = tmp_path / "section.ini"
        cfg.write_text(f"[{section}]\nfamily = constant\na = 2\n[run]\nx = 3\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {cfg}: unknown section [{section}]; "
                                "expected [run] or [spec:NAME]\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_spec_colon_in_any_case(self, tmp_path):
        cfg = tmp_path / "case.ini"
        cfg.write_text("[SPEC: a]\nfamily = constant\na = 2\n[Spec:b]\nfamily = constant\n"
                       "a = 3\n")
        assert [name for name, _ in cli.load_config_file(str(cfg)).specs] == ["a", "b"]

    def test_non_numeric_spec_parameter(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:p]\nfamily = pareto\nbeta = abc\nk = 0.9\n")
        assert main(["classify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg} [spec:p]: non-numeric parameter for family 'pareto': "
            "could not convert string to float: 'abc'\n")

    def test_unknown_family(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:c]\nfamily = cauchy\nloc = 2\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_non_finite_parameter(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:g]\nfamily = gamma\nalpha = inf\ntheta = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    def test_repeated_spec_name(self, tmp_path, capsys, command):
        # both sections are named 'a': one spec's output would overwrite the other's
        cfg = tmp_path / "twice.ini"
        cfg.write_text("[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       "[spec: a]\nfamily = constant\na = 2\n[run]\nreplicates = 10\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {cfg} [spec: a]: spec name 'a' repeats\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    @pytest.mark.parametrize("name", ["", " ", "/../../escaped", "x/y", "a\\b", "..\\up"])
    def test_spec_name_unfit_for_a_file_name(self, tmp_path, capsys, command, name):
        # the name becomes part of output file names: '/' or '\\' could leave --out
        cfg = tmp_path / "name.ini"
        cfg.write_text(f"[spec:{name}]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       "[run]\nreplicates = 10\n")
        out = tmp_path / "out" / "inner"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {cfg} [spec:{name}]: spec name "
                                f"{name.strip()!r} is empty or holds '/' or '\\'\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", ["simulate", "moments"])
    def test_non_ascii_spec_name_passes(self, tmp_path, command):
        cfg = tmp_path / "name.ini"
        cfg.write_text("[spec:σ-名]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       "[run]\nreplicates = 10\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", f"{out}{os.sep}"]) == 0
        if command == "simulate":
            assert {path.name for path in out.iterdir()} == {"samples_σ-名.csv",
                                                             "estimate_σ-名.json"}
        else:
            metadata, _, rows = read_csv_table(out / "moments_series.csv")
            assert "first_infinite_σ-名" in metadata and rows[0][0] == "σ-名"

    @pytest.mark.parametrize("command", ["classify", "moments", "bounds", "boundaries"])
    @pytest.mark.parametrize("source", ["flag", "run"])
    def test_json_needs_an_output_path(self, tmp_path, capsys, command, source):
        # JSON goes to files only: moments can emit two tables
        cfg = tmp_path / "json.ini"
        run = "format = json\n" if source == "run" else ""
        cfg.write_text(f"[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n[run]\nx = 2\n{run}")
        flags = ["--format", "json"] if source == "flag" else []
        assert main([command, "--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: format json writes files only; "
                                "set --out or [run] out\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["flag", "run"])
    def test_two_tables_need_a_directory(self, tmp_path, capsys, source, fmt):
        # the horizon table would replace the series table in one file
        out = tmp_path / f"m.{fmt}"
        cfg = tmp_path / "two.ini"
        run = f"out = {out}\nformat = {fmt}\n" if source == "run" else ""
        cfg.write_text(f"[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       f"[run]\nhorizons = 5 inf\n{run}")
        flags = ["--out", str(out), "--format", fmt] if source == "flag" else []
        assert main(["moments", "--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: moments writes two tables, moments_series and "
                                f"moments_horizons, but the output path {str(out)!r} names "
                                "one file; set --out or [run] out to a directory\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("horizons, name", [("inf", "moments_series"),
                                                ("5", "moments_horizons")])
    def test_one_table_goes_to_the_named_file(self, tmp_path, capsys, horizons, name):
        out = tmp_path / "m.csv"
        cfg = tmp_path / "one.ini"
        cfg.write_text(f"[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       f"[run]\nhorizons = {horizons}\n")
        assert main(["moments", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        want = tmp_path / "want"
        assert main(["moments", "--config", str(cfg), "--out", f"{want}{os.sep}"]) == 0
        assert out.read_bytes() == (want / f"{name}.csv").read_bytes()

    def test_equals_in_a_metadata_key(self, tmp_path, capsys):
        # the key first_infinite_a=b would read back as first_infinite_a
        cfg = tmp_path / "eq.ini"
        cfg.write_text("[spec:a=b]\nfamily = pareto\nk = 3\nbeta = 0.9\n")
        assert main(["moments", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "metadata key 'first_infinite_a=b' holds '='" in captured.err

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
        assert "[run] x: x must not be NaN, got x=nan" in captured.err

    @pytest.mark.parametrize("x", ["0", "-1"])
    def test_nonpositive_x_in_x_grid(self, tmp_path, capsys, x):
        cfg = tmp_path / "x.ini"
        cfg.write_text(f"[spec:c]\nfamily = constant\na = 2\n[run]\nx = 1.5 {x} 3.0\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"[run] x: x must be positive, got x={float(x)}" in captured.err

    @pytest.mark.parametrize("c", ["inf", "0", "-1", "nan"])
    def test_consumption_must_be_positive_and_finite(self, tmp_path, capsys, c):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[spec:c]\nfamily = constant\na = 2\n[run]\nc = {c}\nx = 3.5\n")
        assert main(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "consumption must be positive and finite" in captured.err

    @pytest.mark.parametrize("flag, value, name", [("--seed", "-5", "seed"),
                                                   ("--seed", str(2 ** 64), "seed"),
                                                   ("--replicates", "0", "replicates"),
                                                   ("--truncation", "0", "truncation")])
    def test_bad_simulation_flag_exits_2_before_writing(self, config_path, tmp_path, capsys,
                                                        flag, value, name):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as info:  # argparse admits the flag
            main(["simulate", "--config", config_path, "--out", str(out), flag, value])
        assert info.value.code == 2
        assert f"error: argument {flag}: {name} must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("seed", "-5"), ("seed", str(2 ** 64)),
                                            ("replicates", "0"), ("truncation", "0")])
    @pytest.mark.parametrize("command", ["classify", "moments", "bounds", "boundaries"])
    def test_bad_run_setting_exits_2_on_every_command(self, tmp_path, capsys, command, key,
                                                      value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[spec:c]\nfamily = constant\na = 2\n[run]\nx = 3.5\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {cfg} [run] {key}: {key} must be " in captured.err
        assert not out.exists()

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


# [run] key -> (a command whose parser has the key's flag, texts to admit from each source)
SHARED_SETTINGS = {
    "rmax": ("bounds", ["4", " 4", "0", "2.5"]),
    "format": ("bounds", ["json", "JSON", " Csv ", "xml"]),
    "out": ("bounds", ["o/", " padded "]),
    "seed": ("simulate", ["3", "-5", str(2 ** 64), "1e3"]),
    "replicates": ("simulate", ["10", "0", "ten"]),
    "truncation": ("simulate", ["7", "Adaptive", "0", "x"]),
}


class TestOneAdmissionPerSetting:
    """A setting's text is admitted by one rule, from a [run] key or from its flag."""

    @staticmethod
    def admit(tmp_path, command, key, text, source):
        """The exit code of loading ``text`` for ``key`` from ``source``, and the value."""
        run = {"x": "2", "out": "o/"}  # an output path, so that format json is admitted
        flags = []
        if source == "run":
            run[key] = text
        else:
            flags = [f"--{key}", text]
        cfg = tmp_path / f"{source}.ini"
        cfg.write_text("[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n[run]\n"
                       + "".join(f"{name} = {value}\n" for name, value in run.items()))
        try:
            args = cli.build_parser().parse_args([command, "--config", str(cfg), *flags])
            loaded = cli._load_experiment(args)
        except SystemExit as exc:  # argparse rejected the flag
            return exc.code, None
        except ValueError:  # main's config error
            return 2, None
        return 0, getattr(loaded, "fmt" if key == "format" else key)

    @pytest.mark.parametrize("key, text", [(key, text)
                                           for key, (_, texts) in SHARED_SETTINGS.items()
                                           for text in texts])
    def test_same_text_same_value_from_either_source(self, tmp_path, key, text):
        command = SHARED_SETTINGS[key][0]
        from_flag = self.admit(tmp_path, command, key, text, "flag")
        assert from_flag == self.admit(tmp_path, command, key, text, "run")
        if key == "format" and text in ("json", "JSON"):
            assert from_flag == (0, "json")

    @pytest.mark.parametrize("command, key, bad, good", [
        ("bounds", "rmax", "0", "4"),
        ("bounds", "format", "xml", "csv"),
        ("simulate", "seed", "-5", "3"),
        ("simulate", "replicates", "0", "5"),
        ("simulate", "truncation", "0", "5"),
    ])
    def test_flag_does_not_hide_a_bad_run_value(self, tmp_path, capsys, command, key, bad,
                                                good):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       f"[run]\nx = 2\n{key} = {bad}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), f"--{key}", good, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {cfg} [run] {key}: {key} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "  "])
    @pytest.mark.parametrize("source", ["run", "flag"])
    def test_blank_out_exits_2_naming_its_source(self, tmp_path, monkeypatch, capsys, source,
                                                 text):
        # Path("") would name the current directory, and bounds would write bounds.csv there
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "blank.ini"
        cfg.write_text("[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n[run]\nx = 2\n"
                       + (f"out = {text}\n" if source == "run" else ""))
        argv = ["bounds", "--config", str(cfg)]
        if source == "run":
            assert main(argv) == 2
            want = f"config error: {cfg} [run] out: {BLANK_OUT}\n"
        else:
            with pytest.raises(SystemExit) as info:
                main(argv + ["--out", text])
            assert info.value.code == 2
            want = f"error: argument --out: {BLANK_OUT}\n"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(want)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("horizons", ["", " , "])
    @pytest.mark.parametrize("command", ["classify", "moments", "bounds", "boundaries",
                                         "simulate"])
    def test_empty_horizons_exits_2(self, tmp_path, capsys, command, horizons):
        cfg = tmp_path / "none.ini"
        cfg.write_text("[spec:a]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       f"[run]\nx = 2\nhorizons = {horizons}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", f"{out}{os.sep}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {cfg} [run] horizons: needs at least one value\n"
        assert not out.exists()


# The (command, flag) pairs whose command does not read the flag, so its parser rejects it.
UNREAD_FLAGS = {
    "classify": ("--seed", "--replicates", "--truncation", "--rmax"),
    "moments": ("--seed", "--replicates", "--truncation"),
    "bounds": ("--seed", "--replicates", "--truncation"),
    "boundaries": ("--seed", "--replicates", "--truncation"),
    "simulate": ("--format", "--rmax"),
    "reproduce": ("--config", "--format", "--truncation", "--rmax"),
}


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command, flag", [(command, flag)
                                               for command, flags in UNREAD_FLAGS.items()
                                               for flag in flags])
    def test_unread_flag_is_rejected(self, config_path, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        argv = ([command, "--table", "1"] if command == "reproduce"
                else [command, "--config", config_path])
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(out), flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_flag_table_matches_the_parser(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| command | flags |") + 2  # past the |---|---| rule
        documented = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            commands, flags = re.split(r"(?<!\\)\|", line)[1:3]
            for command in re.findall(r"`(\w+)`", commands):
                documented[command] = tuple(re.findall(r"--\w+", flags))
        parser = cli.build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)).choices
        parsed = {name: tuple(option for action in sub._actions
                              for option in action.option_strings
                              if option.startswith("--") and option != "--help")
                  for name, sub in subparsers.items()}
        assert parsed == documented

    def test_readme_example_config_names_every_run_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("## CLI", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "example.ini"
        path.write_text(example, encoding="utf-8")
        parser = configparser.ConfigParser()
        parser.read(path, encoding="utf-8")
        assert sorted(parser["run"]) == sorted(cli._SETTINGS)
        assert cli.load_config_file(str(path)).specs  # and every value is admitted
