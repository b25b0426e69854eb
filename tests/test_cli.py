import json
import math

import numpy as np
import pytest

from ruinbounds import classify, ecdf_survival, sample_Z, SimConfig
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


class TestErrorPaths:
    def test_missing_config(self):
        assert main(["classify", "--config", "/nonexistent/exp.ini"]) == 2

    def test_unknown_run_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[spec:c]\nfamily = constant\na = 2\n[run]\nbogus = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 2

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
