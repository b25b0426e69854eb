"""The in-package special-function kernels against scipy, bit for bit.

scipy is only a test dependency: these tests use it as the oracle, and the
import guard checks that the package itself never loads it.
"""

import os
import warnings

import numpy as np
import pytest
from scipy import special

from fresh import is_numpy, loaded_modules
from ruinbounds._special import _pairwise_row_sums, digamma, lgamma_int, logsumexp, logsumexp_rows
from ruinbounds.moments import _log_binomial_rows


class TestLogGammaAtIntegers:
    def test_bit_equal_to_gammaln(self):
        n = np.arange(1, 5001)
        want = special.gammaln(n)
        got = np.array([lgamma_int(int(k)) for k in n])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rmax", [6, 61, 1100])
    def test_log_binomial_rows_bit_equal(self, rmax):
        r = np.arange(rmax + 1)[:, None]
        j = r.T
        with np.errstate(invalid="ignore"):
            want = special.gammaln(r + 1) - special.gammaln(j + 1) - special.gammaln(r - j + 1)
        want = np.where(j <= r, want, -np.inf)
        assert np.array_equal(_log_binomial_rows(rmax), want)


class TestLogSumExp:
    def test_bit_equal_on_random_vectors(self):
        rng = np.random.default_rng(20211)
        for _ in range(20000):
            n = int(rng.integers(1, 130))
            a = rng.normal(0.0, rng.choice([1.0, 30.0, 300.0]), n)
            if rng.random() < 0.3:  # ties at the maximum
                a[rng.integers(0, n, 3)] = a.max()
            if rng.random() < 0.3:
                a[rng.integers(0, n, int(rng.integers(1, n + 1)))] = -np.inf
            if np.isneginf(a).all():
                continue
            want = special.logsumexp(a)
            got = logsumexp(a)
            assert got == want, (a.tolist(), got, want)

    @pytest.mark.parametrize("a, want", [
        ([0.25], 0.25),
        ([np.inf, 1.0], np.inf),
        ([-np.inf, np.inf, 3.0], np.inf),
        ([-np.inf], -np.inf),
        ([-np.inf, -np.inf, -np.inf], -np.inf),
    ])
    def test_edge_cases(self, a, want):
        a = np.array(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert special.logsumexp(a) == want
        assert logsumexp(a) == want


class TestLogSumExpRows:
    """The row kernel against the scalar one.

    Its sums copy numpy's pairwise summation order, so this is the test that
    fails if a numpy release changes that order.
    """

    @staticmethod
    def assert_rows_match(a, lengths):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp_rows(lengths, a.shape[1])(a)
        want = [logsumexp(a[i, :n]) for i, n in enumerate(lengths)]
        assert np.array_equal(got, want, equal_nan=True), (a, lengths)

    def test_sums_in_numpy_pairwise_order(self):
        # terms of one magnitude, whose sum shows any change of order in its last bits
        rng = np.random.default_rng(1993)
        lengths = np.arange(1, 301)
        e = rng.uniform(0.0, 1.0, (300, 300)) * (np.arange(300) < lengths[:, None])
        want = [e[i, :n].sum() for i, n in enumerate(lengths)]
        assert np.array_equal(_pairwise_row_sums(lengths, 300)(e), want)

    @pytest.mark.parametrize("rows", [1, 2, 64])
    def test_sums_in_every_layout_width(self, rows):
        # every laid-out width 8m + 7, and rows past 128 terms; the longest row fills
        # the width, so the slots past it gather a clamped column that must be masked
        rng = np.random.default_rng(rows)
        for longest in [*range(1, 128), 128, 129, 200]:
            lengths = rng.integers(1, longest + 1, rows)
            lengths[rng.integers(rows)] = longest
            e = rng.uniform(0.0, 1.0, (rows, longest)) * (np.arange(longest) < lengths[:, None])
            want = [e[i, :n].sum() for i, n in enumerate(lengths)]
            assert np.array_equal(_pairwise_row_sums(lengths, longest)(e), want), lengths

    def test_ties_at_a_small_maximum(self):
        # m > 1 with a maximum near 0, where log(m) is not lost beside it
        rng = np.random.default_rng(7)
        a = rng.uniform(-3.0, 0.0, (200, 20))
        a[:, :3] = rng.uniform(-0.1, 0.1, (200, 1))
        self.assert_rows_match(a, rng.integers(3, 21, 200))

    def test_every_length_up_to_140(self):
        rng = np.random.default_rng(1993)
        a = rng.normal(0.0, 30.0, (140, 140))
        self.assert_rows_match(a, np.arange(1, 141))

    def test_bit_equal_on_random_ragged_rows(self):
        rng = np.random.default_rng(2021)
        for _ in range(400):
            rows, width = int(rng.integers(1, 16)), int(rng.integers(1, 141))
            lengths = rng.integers(1, width + 1, rows)
            a = rng.normal(0.0, rng.choice([1.0, 30.0, 300.0]), (rows, width))
            for i, n in enumerate(lengths):
                if rng.random() < 0.3:  # ties at the maximum
                    a[i, rng.integers(0, n, 3)] = a[i, :n].max()
                if rng.random() < 0.3:
                    a[i, rng.integers(0, n, int(rng.integers(1, n + 1)))] = -np.inf
            self.assert_rows_match(a, lengths)

    def test_rows_without_a_finite_maximum(self):
        a = np.array([
            [0.25, 7.0, 7.0, np.nan],
            [np.inf, 1000.0, 1.0, 2.0],
            [-np.inf, np.inf, 3.0, 2.0],
            [-np.inf, -np.inf, -np.inf, 2.0],
            [np.nan, 1.0, 2.0, 3.0],
        ])
        self.assert_rows_match(a, np.array([3, 2, 4, 3, 4]))


class TestDigamma:
    def test_bit_equal_on_positive_axis(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([
            rng.uniform(0.0, 10.0, 5000),            # recurrence and [1, 2] rational
            np.exp(rng.uniform(np.log(1e-12), 0.0, 1000)),
            rng.uniform(10.0, 1000.0, 3000),         # asymptotic series
            np.exp(rng.uniform(np.log(10.0), np.log(1e20), 3000)),
            np.arange(1, 25) / 2.0,                  # integers up to 10 sum 1/i
            [1.4616321449683622, 17.000000000000053, 1e17, 2e17],
        ])
        xs = xs[xs > 0.0]
        got = np.array([digamma(float(x)) for x in xs])
        assert np.array_equal(got, special.digamma(xs))

    @pytest.mark.parametrize("x", [0.0, -1.5, float("nan")])
    def test_rejects_outside_positive_axis(self, x):
        with pytest.raises(ValueError):
            digamma(x)


class TestImportGuard:
    @pytest.mark.parametrize("args", [
        ("-c", "import ruinbounds"),
        ("-m", "ruinbounds.cli", "--version"),
        ("-c", "import ruinbounds; ruinbounds.sample_Z"),
    ])
    def test_no_scipy_module_loaded(self, args):
        names = loaded_modules(*args)
        assert "ruinbounds" in names
        assert [n for n in names if n == "scipy" or n.startswith("scipy.")] == []

    @pytest.mark.parametrize("args, returncode", [
        (("--version",), 0),
        (("--help",), 0),
        (("reproduce", "--help"), 0),
        (("--no-such-flag",), 2),
        (("reproduce",), 2),  # --table is required
    ])
    def test_cli_without_a_command_loads_no_numpy(self, args, returncode):
        names = loaded_modules("-m", "ruinbounds.cli", *args, returncode=returncode)
        assert "ruinbounds.cli" not in names  # runpy runs it as __main__
        assert [n for n in names if is_numpy(n)] == []
        assert [n for n in names if n.startswith("ruinbounds.")] == ["ruinbounds.errors"]
        assert "dataclasses" not in names and "inspect" not in names

    def test_reproduce_loads_only_what_it_uses(self, tmp_path):
        # tables 3 and 7-9 simulate; the moment and boundary tables are recursions alone
        for table in range(1, 10):
            names = loaded_modules("-m", "ruinbounds.cli", "reproduce", "--table", str(table),
                                   "--out", str(tmp_path))
            assert "numpy" in names and "ruinbounds.reference" in names
            for unused in ("ruinbounds.regimes", "configparser", "fractions", "decimal"):
                assert unused not in names, (table, unused)
            assert ("ruinbounds.montecarlo" in names) == (table in (3, 7, 8, 9)), table
            assert (tmp_path / f"table_{table}.csv").is_file()

    @pytest.mark.parametrize("command, used, unused", [
        ("classify", "regimes", ("montecarlo", "reference")),
        ("moments", "moments", ("montecarlo", "reference")),
        ("bounds", "bounds", ("montecarlo", "reference")),
        ("boundaries", "bounds", ("montecarlo", "reference")),
        ("simulate", "montecarlo", ("reference", "bounds", "moments")),
    ])
    def test_command_loads_only_what_it_uses(self, tmp_path, command, used, unused):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[spec:p]\nfamily = pareto\nk = 3\nbeta = 0.9\n"
                       "[run]\nx = 2\nhorizons = 5 inf\nreplicates = 10\n")
        out = tmp_path / "out"
        names = loaded_modules("-m", "ruinbounds.cli", command, "--config", str(cfg),
                               "--out", f"{out}{os.sep}")
        assert f"ruinbounds.{used}" in names
        assert [n for n in names if n in {f"ruinbounds.{m}" for m in unused}] == []
        assert any(out.iterdir())

    def test_tableio_loads_no_numpy(self):
        names = loaded_modules("-c", "import ruinbounds.tableio")
        assert "ruinbounds.tableio" in names
        assert [n for n in names if is_numpy(n)] == []

    @pytest.mark.parametrize("module", ["tableio", "cli"])
    def test_from_import_of_a_submodule_loads_no_numpy(self, module):
        # the same modules as 'import ruinbounds.<module>', not the six computing ones
        names = loaded_modules("-c", f"from ruinbounds import {module}")
        assert f"ruinbounds.{module}" in names
        assert [n for n in names if is_numpy(n)] == []
        assert "ruinbounds.bounds" not in names
