"""The in-package special-function kernels against scipy, bit for bit.

scipy is only a test dependency: these tests use it as the oracle, and the
import guard checks that the package itself never loads it.
"""

import numpy as np
import pytest
from scipy import special

from fresh import is_numpy, loaded_modules
from ruinbounds._special import digamma, lgamma_int, logsumexp
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
        assert [n for n in names if n.startswith("ruinbounds.")] == [
            "ruinbounds._defaults", "ruinbounds.errors"]
        assert "dataclasses" not in names and "inspect" not in names

    def test_reproduce_loads_only_what_it_uses(self, tmp_path):
        names = loaded_modules("-m", "ruinbounds.cli", "reproduce", "--table", "1",
                               "--out", str(tmp_path))
        assert "numpy" in names and "ruinbounds.reference" in names
        for unused in ("ruinbounds.regimes", "configparser", "fractions", "decimal"):
            assert unused not in names
        assert (tmp_path / "table_1.csv").is_file()
