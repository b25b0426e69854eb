"""The in-package special-function kernels against scipy, bit for bit.

scipy is only a test dependency: these tests use it as the oracle, and the
import guard checks that the package itself never loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import ruinbounds
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


def _modules_loaded(*args):
    """Names of every module a fresh interpreter imports while running ``args``."""
    src = str(Path(ruinbounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")]


class TestImportGuard:
    @pytest.mark.parametrize("args", [
        ("-c", "import ruinbounds"),
        ("-m", "ruinbounds.cli", "--version"),
    ])
    def test_no_scipy_module_loaded(self, args):
        names = _modules_loaded(*args)
        assert "ruinbounds" in names
        assert [n for n in names if n == "scipy" or n.startswith("scipy.")] == []
