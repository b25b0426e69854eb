import math
import warnings

import numpy as np
import pytest

from oracles import naive_finite_betas, naive_infinite_betas
from ruinbounds import (
    Constant,
    DomainError,
    Gamma,
    Lognormal,
    Pareto,
    boundary_table,
    finite_moments,
    infinite_moments,
    schedules,
)
from ruinbounds.reference import LOGNORMAL_HEAVY, PARETO_HEAVY


class TestInfiniteMoments:
    def test_pareto_published_column(self):
        table = infinite_moments(PARETO_HEAVY, 4)
        published = {1: 0.1124, 2: 0.0765, 3: 0.0725, 4: 0.0849}
        for r, want in published.items():
            assert table.beta(r) == pytest.approx(want, abs=5e-4)

    def test_lognormal_match_third_moment_then_infinite(self):
        table = infinite_moments(LOGNORMAL_HEAVY, 4)
        assert table.beta(3) == pytest.approx(0.3847, abs=5e-4)
        assert table.beta(4) == math.inf
        assert table.first_infinite == 4
        assert table.gamma(4) > 1.0

    def test_pareto_first_infinite_is_61(self):
        table = infinite_moments(PARETO_HEAVY, 61)
        assert table.first_infinite == 61
        assert math.isfinite(table.beta(60))
        assert table.beta(61) == math.inf

    def test_constant_unit_series(self):
        table = infinite_moments(Constant(2.0), 6)
        for r in range(1, 7):
            assert table.beta(r) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
    def test_constant_closed_form(self, a):
        table = infinite_moments(Constant(a), 10)
        for r in range(1, 11):
            assert table.beta(r) == pytest.approx((a - 1.0) ** -r, rel=1e-12)

    def test_requires_positive_mean_log(self):
        with pytest.raises(DomainError):
            infinite_moments(Lognormal(-0.1, 0.04), 4)
        with pytest.raises(DomainError):
            infinite_moments(Constant(1.0), 4)

    def test_first_moment_closed_form(self):
        table = infinite_moments(Pareto(3.0, 0.9), 2)
        g1 = table.gamma(1)
        assert table.beta(1) == pytest.approx(g1 / (1.0 - g1), rel=1e-12)

    def test_agrees_with_linear_recursion(self):
        # the log-domain path against a plain-float oracle, high orders
        table = infinite_moments(PARETO_HEAVY, 20)
        naive = naive_infinite_betas(PARETO_HEAVY, 20)
        for r in range(1, 21):
            assert table.beta(r) == pytest.approx(naive[r], rel=1e-10)

    def test_survives_order_sixty(self):
        table = infinite_moments(PARETO_HEAVY, 60)
        assert np.isfinite(table.log_beta_values[1:]).all()
        # moments blow up monotonically past the minimum; log stays usable
        assert table.log_beta(60) > table.log_beta(30)


class TestFiniteMoments:
    def test_one_step_equals_inverse_moments(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 6, 3)
            for r in range(1, 7):
                assert grid.beta(r, 1) == pytest.approx(spec.inverse_moment(r), rel=1e-12)

    def test_two_step_first_order(self, matched_trio):
        for spec in matched_trio.values():
            g1 = spec.inverse_moment(1)
            grid = finite_moments(spec, 1, 2)
            assert grid.beta(1, 2) == pytest.approx(g1 * (1.0 + g1), rel=1e-12)

    def test_first_order_geometric_closed_form(self, matched_trio):
        # closed-form oracle at both the display-rounded and exact parameters
        for spec in (Lognormal(0.2146, 0.0645), matched_trio["lognormal"]):
            g1 = spec.inverse_moment(1)
            grid = finite_moments(spec, 1, 20)
            want = g1 * (1.0 - g1 ** 20) / (1.0 - g1)
            assert grid.beta(1, 20) == pytest.approx(want, rel=1e-12)
        # the exact match has g1 = 5/6, whose sum prints as 4.8696
        assert grid.beta(1, 20) == pytest.approx(4.8696, abs=5e-4)

    def test_constant_closed_form(self):
        grid = finite_moments(Constant(2.0), 4, 12)
        for r in range(1, 5):
            for n in range(1, 13):
                assert grid.beta(r, n) == pytest.approx((1.0 - 2.0 ** -n) ** r, rel=1e-12)

    def test_no_mean_log_condition_needed(self):
        grid = finite_moments(Lognormal(-0.1, 0.04), 3, 5)
        assert math.isfinite(grid.beta(3, 5))

    def test_gamma_infinite_rows_propagate(self):
        grid = finite_moments(Gamma(2.5, 1.0), 4, 3)
        assert math.isfinite(grid.beta(2, 3))
        for n in range(1, 4):
            assert grid.beta(3, n) == math.inf
            assert grid.beta(4, n) == math.inf

    def test_linear_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = finite_moments(Lognormal(0.1, 2.0), 60, 50)
            assert math.isfinite(grid.log_beta(60, 50))
            assert grid.beta(60, 50) == math.inf
            for r in range(1, 61):
                for n in range(1, 51):
                    if grid.log_beta(r, n) <= math.log(np.finfo(float).max):
                        assert grid.beta(r, n) == float(np.exp(grid.log_beta(r, n)))
                    else:
                        assert grid.beta(r, n) == math.inf

    def test_agrees_with_linear_recursion(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 8, 10)
            naive = naive_finite_betas(spec, 8, 10)
            for r in range(1, 9):
                for n in range(1, 11):
                    assert grid.beta(r, n) == pytest.approx(naive[r][n], rel=1e-10)


class TestStructuralProperties:
    def test_monotone_in_horizon_and_below_series_moment(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 6, 30)
            table = infinite_moments(spec, 6)
            for r in range(1, 7):
                col = [grid.beta(r, n) for n in range(1, 31)]
                assert all(a <= b * (1 + 1e-13) for a, b in zip(col, col[1:]))
                assert col[-1] <= table.beta(r)

    def test_partial_sums_converge_to_series_moments(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 5, 200)
            table = infinite_moments(spec, 5)
            for r in range(1, 6):
                assert grid.beta(r, 200) == pytest.approx(table.beta(r), rel=1e-6)

    def test_power_mean_ordering(self, matched_trio):
        # beta_r ** (1/r) nondecreasing in r, series and partial sums alike
        for spec in matched_trio.values():
            table = infinite_moments(spec, 6)
            root = [table.log_beta(r) / r for r in range(1, 7)
                    if math.isfinite(table.log_beta(r))]
            assert all(a <= b + 1e-12 for a, b in zip(root, root[1:]))
            grid = finite_moments(spec, 6, 20)
            for n in (1, 3, 10, 20):
                root = [grid.log_beta(r, n) / r for r in range(1, 7)]
                assert all(a <= b + 1e-12 for a, b in zip(root, root[1:]))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            infinite_moments(Constant(2.0), 0)
        with pytest.raises(ValueError):
            finite_moments(Constant(2.0), 2, 0)
        spec = Constant(2.0)
        for bad in (2.5, 3.0, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="rmax must be an integer"):
                infinite_moments(spec, bad)
            with pytest.raises(ValueError, match="rmax must be an integer"):
                finite_moments(spec, bad, 4)
            with pytest.raises(ValueError, match="nmax must be an integer"):
                finite_moments(spec, 3, bad)
            for horizons in ([], [3], [math.inf], [3, math.inf]):
                with pytest.raises(ValueError, match="rmax must be an integer"):
                    schedules(spec, 1.0, horizons, bad)
                with pytest.raises(ValueError, match="rmax must be an integer"):
                    boundary_table(spec, 1.0, horizons, bad)
        assert infinite_moments(spec, np.int64(3)).rmax == 3
        assert finite_moments(spec, np.int32(3), np.int64(4)).nmax == 4
