import math

import numpy as np
import pytest

from oracles import exact_ruin_horizon, iterate_deterministic_ruin
from ruinbounds import (
    Constant,
    Gamma,
    Lognormal,
    Pareto,
    Regime,
    SimConfig,
    Trichotomy,
    classify,
    deterministic_horizon,
    deterministic_min_stock,
    ecdf_survival,
    sample_Z,
    trichotomy,
)


class TestDeterministicMinStock:
    def test_simple(self):
        assert deterministic_min_stock(2.0, 1.0) == 2.0

    def test_iteration_oracle_at_the_threshold(self):
        threshold = deterministic_min_stock(1.25, 1.0)
        assert threshold == pytest.approx(5.0, rel=1e-12)
        # just below: ruined in finite time; at the threshold: survives
        assert iterate_deterministic_ruin(1.25, threshold - 1e-9, 1.0) is not None
        assert iterate_deterministic_ruin(1.25, threshold, 1.0, cap=10_000) is None

    def test_unsustainable_for_every_stock(self):
        assert deterministic_min_stock(1.0, 1.0) == math.inf
        assert deterministic_min_stock(0.5, 3.0) == math.inf

    def test_scales_with_consumption(self):
        assert deterministic_min_stock(2.0, 2.5) == 5.0

    def test_rejects_nonpositive_consumption(self):
        with pytest.raises(ValueError):
            deterministic_min_stock(2.0, 0.0)

    @pytest.mark.parametrize("r, c, match", [
        pytest.param(1.5, math.nan, "consumption must be positive", id="nan"),
        pytest.param(1.5, -1.0, "consumption must be positive", id="-1.0"),
        pytest.param(math.nan, 1.0, "r=nan", id="r=nan"),
        pytest.param(math.inf, 1.0, "r=inf", id="r=inf"),
    ])
    def test_rejects_nan_or_negative_consumption(self, r, c, match):
        with pytest.raises(ValueError, match=match):
            deterministic_min_stock(r, c)


class TestDeterministicHorizon:
    def test_boundary_partial_sum(self):
        # 1 < 1.5 but 1 + 1/2 = 1.5 is not < 1.5
        assert deterministic_horizon(2.0, 1.5, 1.0) == 1

    def test_above_threshold_is_forever(self):
        assert deterministic_horizon(2.0, 3.0, 1.0) == math.inf

    def test_at_most_consumption(self):
        assert deterministic_horizon(2.0, 1.0, 1.0) == 0
        assert deterministic_horizon(2.0, 0.5, 1.0) == 0

    def test_shrinking_productivity_matches_iteration(self):
        n = deterministic_horizon(0.5, 100.0, 1.0)
        assert math.isfinite(n)
        assert n == iterate_deterministic_ruin(0.5, 100.0, 1.0)

    @pytest.mark.parametrize("r", [0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0])
    def test_matches_iteration_oracle(self, r):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            c = float(rng.uniform(0.2, 3.0))
            x = float(rng.uniform(0.1, 6.0)) * c
            want = iterate_deterministic_ruin(r, x, c, cap=100_000)
            got = deterministic_horizon(r, x, c)
            if want is None:
                assert got == math.inf
            else:
                assert got == want, (r, x, c)

    @pytest.mark.parametrize("x, c, match, r", [
        (math.nan, 1.0, "x must not be NaN", 1.5),
        (3.0, math.nan, "consumption must be positive", 1.5),
        (3.0, 0.0, "consumption must be positive", 1.5),
        (3.0, 1.0, "r=nan", math.nan),
        (3.0, 1.0, "r=inf", math.inf),
    ])
    def test_rejects_nan_stock_and_nonpositive_consumption(self, x, c, match, r):
        with pytest.raises(ValueError, match=match):
            deterministic_horizon(r, x, c)

    @pytest.mark.parametrize("r, x, c, want", [
        (1e-300, 1e10, 1.0, 1),        # 1 < 1e10 <= 1 + 1e300
        (0.5, 1e308, 1e-10, 1056),     # x/c overflows a float; 2**1056 - 1 < 1e318
        (2.0, 1.5, 1.0, 1),            # ties: the sum must stay strictly below x/c
        (0.5, 3.0, 1.0, 1),
        (1.0, 3.0, 1.0, 2),
        (1.5, 2.9, 1.0, 8),
    ])
    def test_extreme_and_tied_inputs_match_exact_sums(self, r, x, c, want):
        assert exact_ruin_horizon(r, x, c) == want
        assert deterministic_horizon(r, x, c) == want

    def test_threshold_past_overflowing_min_stock_is_forever(self):
        # c*r overflows in the float threshold; the sums stay below 1 + 1e-299 < 2
        assert exact_ruin_horizon(1e300, 2e10, 1e10, cap=50) is None
        assert deterministic_horizon(1e300, 2e10, 1e10) == math.inf

    @pytest.mark.parametrize("r", [0.3, 0.7, 0.99, 1.0, 1.01, 1.3, 2.5])
    def test_matches_exact_partial_sums(self, r):
        rng = np.random.default_rng(99)
        top = r / (r - 1.0) if r > 1.0 else 60.0
        for _ in range(40):
            c = float(10.0 ** rng.uniform(-5, 5))
            x = c * float(rng.uniform(1.0, top))
            want = exact_ruin_horizon(r, x, c)
            got = deterministic_horizon(r, x, c)
            assert got == (math.inf if want is None else want), (r, x, c)

    def test_overflow_raises_value_error_not_overflow_error(self):
        values = (1e-300, 1e-10, 0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0, 1e300)
        stocks = (1e-300, 1.5, 1e10, 1e300, 1.7e308)
        for r in values:
            for x in stocks:
                for c in (1e-300, 1e-10, 1.0, 1e300):
                    try:
                        n = deterministic_horizon(r, x, c)
                    except ValueError as exc:
                        assert "overflows" in str(exc)
                    else:
                        assert n == math.inf or n == int(n) <= 2 ** 53
        with pytest.raises(ValueError, match="overflows"):
            deterministic_horizon(1.0, 1e308, 1e-10)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_infinite_stock_is_forever(self, r):
        assert deterministic_horizon(r, math.inf, 1.0) == math.inf

    def test_monotone_in_stock_and_consumption(self):
        xs = np.linspace(0.5, 7.0, 80)
        values = [deterministic_horizon(1.4, float(x), 1.0) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        cs = np.linspace(0.4, 3.0, 60)
        values = [deterministic_horizon(1.4, 4.0, float(c)) for c in cs]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestClassify:
    def test_lognormal_interior_everywhere(self):
        regime = classify(Lognormal(3.17, 1.75))
        assert regime.elog > 0
        assert (regime.m, regime.M) == (0.0, math.inf)
        assert (regime.d1, regime.d2) == (0.0, math.inf)
        assert not regime.ruin_certain

    def test_pareto_below_one_support(self):
        regime = classify(Pareto(0.1, 0.9))
        assert regime.elog == pytest.approx(9.8946, abs=1e-4)
        assert regime.m == 0.9
        assert regime.d1 == 0.0 and regime.d2 == math.inf

    def test_constant_degenerate_band(self):
        regime = classify(Constant(2.0))
        assert (regime.m, regime.M) == (2.0, 2.0)
        assert (regime.d1, regime.d2) == (1.0, 1.0)
        assert regime.certain_survival_threshold == 2.0
        assert regime.certain_ruin_threshold == 2.0

    def test_negative_drift_means_certain_ruin(self):
        regime = classify(Lognormal(-0.1, 0.04))
        assert regime.ruin_certain
        assert regime.certain_survival_threshold == math.inf
        assert "ruin certain" in regime.describe()

    @pytest.mark.parametrize("a", [1.25, 1.5, 2.0, 3.0, 10.0])
    def test_constant_matches_deterministic_threshold(self, a):
        regime = classify(Constant(a))
        assert regime.certain_survival_threshold == pytest.approx(
            deterministic_min_stock(a, 1.0), rel=1e-12
        )

    def test_record_uses_inf_markers(self):
        rec = classify(Lognormal(3.17, 1.75)).to_record()
        assert rec["M"] == "inf" and rec["d2"] == "inf"
        assert rec["d1"] == 0.0


class TestTrichotomy:
    def test_constant_cases(self):
        regime = classify(Constant(2.0))
        assert trichotomy(regime, 3.0, 1.0) is Trichotomy.ONE
        assert trichotomy(regime, 1.5, 1.0) is Trichotomy.ZERO
        # the upper band edge sustains consumption exactly (fixed point)
        assert trichotomy(regime, 2.0, 1.0) is Trichotomy.ONE

    def test_interior_for_unbounded_support(self):
        regime = classify(Pareto(0.1, 0.9))
        assert trichotomy(regime, 1e6, 1.0) is Trichotomy.INTERIOR

    def test_no_investable_surplus(self):
        regime = classify(Pareto(0.1, 0.9))
        assert trichotomy(regime, 1.0, 1.0) is Trichotomy.ZERO

    def test_negative_drift_is_zero_everywhere(self):
        regime = classify(Lognormal(-0.1, 0.04))
        assert trichotomy(regime, 1e9, 1.0) is Trichotomy.ZERO

    def test_lower_edge_is_undetermined(self):
        # synthetic regime with a separated band: only the lower edge is open
        regime = Regime(elog=0.5, m=1.5, M=3.0, d1=0.5, d2=2.0,
                        certain_ruin_threshold=1.5, certain_survival_threshold=3.0)
        assert trichotomy(regime, 1.4, 1.0) is Trichotomy.ZERO
        assert trichotomy(regime, 1.5, 1.0) is Trichotomy.BOUNDARY_UNDETERMINED
        assert trichotomy(regime, 2.0, 1.0) is Trichotomy.INTERIOR
        assert trichotomy(regime, 3.0, 1.0) is Trichotomy.ONE
        assert trichotomy(regime, 3.5, 1.0) is Trichotomy.ONE

    def test_rejects_nonpositive_consumption(self):
        with pytest.raises(ValueError):
            trichotomy(classify(Constant(2.0)), 1.0, 0.0)

    @pytest.mark.parametrize("x, c, match", [
        (3.0, math.nan, "consumption must be positive"),
        (math.nan, 1.0, "x must not be NaN"),
    ])
    def test_rejects_nan_stock_and_nan_consumption(self, x, c, match):
        with pytest.raises(ValueError, match=match):
            trichotomy(classify(Constant(2.0)), x, c)


class TestRandomSpecProperties:
    def test_band_ordering_over_random_specs(self):
        rng = np.random.default_rng(77)
        specs = []
        for _ in range(250):
            specs.append(Lognormal(float(rng.normal(0, 2)), float(rng.uniform(0.01, 4))))
            specs.append(Pareto(float(rng.uniform(0.05, 5)), float(rng.uniform(0.05, 3))))
            specs.append(Gamma(float(rng.uniform(0.2, 30)), float(rng.uniform(0.1, 20))))
            specs.append(Constant(float(rng.uniform(0.2, 5))))
        for spec in specs:
            regime = classify(spec)
            assert regime.d1 <= regime.d2
            if regime.M == math.inf:
                assert regime.d1 == 0.0
            if regime.m <= 1.0:
                assert regime.d2 == math.inf


class TestMonteCarloConsistency:
    def test_certain_bands_match_ecdf(self):
        config = SimConfig(replicates=3000, truncation="adaptive", seed=11)
        regime = classify(Constant(2.0))
        est = sample_Z(Constant(2.0), config)
        assert trichotomy(regime, 3.0, 1.0) is Trichotomy.ONE
        assert ecdf_survival(est, 3.0, 1.0) >= 0.99
        assert trichotomy(regime, 1.5, 1.0) is Trichotomy.ZERO
        assert ecdf_survival(est, 1.5, 1.0) <= 0.01

    def test_certain_ruin_under_negative_drift(self):
        spec = Lognormal(-0.1, 0.04)
        est = sample_Z(spec, SimConfig(replicates=3000, truncation=400, seed=12))
        regime = classify(spec)
        for x in (2.0, 10.0, 100.0):
            assert trichotomy(regime, x, 1.0) is Trichotomy.ZERO
            assert ecdf_survival(est, x, 1.0) <= 0.01
