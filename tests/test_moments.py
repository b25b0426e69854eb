import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import PUBLISHED_SPECS
from oracles import (
    exact_series_betas,
    log_fraction,
    mp_finite_log_betas,
    mp_infinite_log_betas,
    naive_finite_betas,
    naive_infinite_betas,
    per_cell_finite_moments,
)
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
from ruinbounds import moments
from ruinbounds.moments import first_infinite_order
from ruinbounds.reference import LOGNORMAL_HEAVY, MATCHED_TRIO, PARETO_HEAVY

# every family: the six specs of the bound sweep benchmark and a gamma that
# is infinite from order 3 on
FAMILY_SPECS = {
    "constant": Constant(1.25),
    "lognormal_trio": MATCHED_TRIO["lognormal"],
    "lognormal_heavy": LOGNORMAL_HEAVY,
    "pareto_trio": MATCHED_TRIO["pareto"],
    "pareto_heavy": PARETO_HEAVY,
    "gamma_trio": MATCHED_TRIO["gamma"],
    "gamma_3_2": Gamma(3.0, 2.0),
}


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


# gamma_1 = theta/(alpha - 1) = 1 exactly for the gammas; the Paretos put
# gamma_1 = 1 in exact arithmetic, which the stored k = b/(b+1) rounds away
BOUNDARY_SPECS = ([Gamma(float(a), float(a - 1)) for a in range(3, 200)]
                  + [Pareto(float(b), b / (b + 1)) for b in range(1, 200)])


class TestExactFirstInfinite:
    def test_boundary_families_match_exact_oracle(self):
        exact_gap_used = 0
        for spec in BOUNDARY_SPECS:
            exact = exact_series_betas(spec, 3)
            want = next((r for r in range(1, 4) if exact[r] is None), None)
            assert first_infinite_order(spec, 3) == want, spec
            table = infinite_moments(spec, 3)
            assert table.first_infinite == want, spec
            for r in range(1, 4):
                if exact[r] is None:
                    assert table.beta(r) == math.inf, (spec, r)
                    continue
                assert math.isfinite(table.log_beta(r)), (spec, r)
                if spec.log_inverse_moment(r) >= 0.0:  # the rounded log says infinite
                    exact_gap_used += 1
                    assert table.log_beta(r) == pytest.approx(log_fraction(exact[r]),
                                                              rel=1e-12), (spec, r)
        assert exact_gap_used > 0

    def test_near_boundary_betas_match_exact_oracle(self):
        """Every finite beta_r of ``Pareto(b, b/(b+1))``, b = 1..199, within 2 ulp of log beta_r.

        That is a relative error in beta_r below 1.5e-14.  Measured: 96 finite
        moments, all of order 1, at most 1 ulp (7.1e-15 relative, b = 22).
        ``expm1`` of the rounded log gamma_r gave 34.66 for b = 102, against
        39.98: a factor of about 200.
        """
        finite = 0
        for b in range(1, 200):
            spec = Pareto(float(b), b / (b + 1))
            table = infinite_moments(spec, 3)
            for r, exact in enumerate(exact_series_betas(spec, 3)[1:], start=1):
                if exact is not None:
                    finite += 1
                    want = log_fraction(exact)
                    assert abs(table.log_beta(r) - want) <= 2 * math.ulp(want), (spec, r)
        assert finite == 96

    def test_published_specs_stay_clear_of_the_boundary(self):
        """No golden or benchmark spec has |log gamma_r| < 2**-10 below its first
        infinite order (orders up to 64), so the exact gap moves none of their outputs."""
        for spec in PUBLISHED_SPECS:
            for r in range(1, first_infinite_order(spec, 64) or 65):
                assert abs(spec.log_inverse_moment(r)) >= moments._NEAR_BOUNDARY, (spec, r)

    def test_gamma_moment_exactly_at_one_is_infinite(self):
        spec = Gamma(4.0, 3.0)
        assert spec.log_inverse_moment(1) != 0.0  # the rounded log misses the boundary
        table = infinite_moments(spec, 2)
        assert table.first_infinite == 1
        assert table.beta(1) == table.beta(2) == math.inf

    def test_pareto_below_one_in_stored_floats(self):
        spec = Pareto(4.0, 0.8)
        assert spec.log_inverse_moment(1) == 0.0
        assert first_infinite_order(spec, 5) == 2
        assert math.isfinite(infinite_moments(spec, 2).beta(1))

    def test_lognormal_decided_on_stored_floats(self):
        # 5 * 0.3 < 2 * 0.75 for the stored floats, though the rounded log is 0.0
        spec = Lognormal(0.75, 0.3)
        assert spec.log_inverse_moment(5) == 0.0
        assert first_infinite_order(spec, 10) == 6
        table = infinite_moments(spec, 6)
        x = 5 * (2 * Fraction(0.75) - 5 * Fraction(0.3)) / 2  # -log gamma_5, exactly
        lower = sum(math.comb(5, j) * table.beta(j) for j in range(5))
        assert table.log_beta(5) == pytest.approx(-math.log(x) + math.log(lower), rel=1e-12)
        assert table.beta(6) == math.inf

    @pytest.mark.parametrize("spec, want", [
        (Constant(1.0), 1),
        (Constant(0.5), 1),
        (Constant(1.0000000000000002), None),
        (Pareto(3.0, 1.0000001), None),  # k >= 1: every gamma_r < 1
        (Gamma(1000.5, 13.3), 1001),
        (Lognormal(-0.1, 0.2), 1),
    ])
    def test_first_infinite_at_cap_1024(self, spec, want):
        assert first_infinite_order(spec, 1024) == want

    def test_exact_gap_below_the_float_range(self):
        # sigma2/2 rounds up to mu, so the rounded log is 0.0; exactly,
        # -log gamma_1 = mu - sigma2/2 = 2**-1075, which no double holds
        spec = Lognormal(2 * 5e-324, 3 * 5e-324)
        assert spec.log_inverse_moment(1) == 0.0
        table = infinite_moments(spec, 2)
        assert table.first_infinite == 2
        assert table.log_beta(1) == pytest.approx(1075 * math.log(2), rel=1e-15)


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
            assert math.isfinite(grid.log_beta_grid[60, 50])
            assert grid.beta(60, 50) == math.inf
            for r in range(1, 61):
                for n in range(1, 51):
                    if grid.log_beta_grid[r, n] <= math.log(np.finfo(float).max):
                        assert grid.beta(r, n) == float(np.exp(grid.log_beta_grid[r, n]))
                    else:
                        assert grid.beta(r, n) == math.inf

    def test_agrees_with_linear_recursion(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 8, 10)
            naive = naive_finite_betas(spec, 8, 10)
            for r in range(1, 9):
                for n in range(1, 11):
                    assert grid.beta(r, n) == pytest.approx(naive[r][n], rel=1e-10)


class TestBatchedFiniteMoments:
    """``finite_moments`` steps all orders at once; every cell keeps the per-cell bits."""

    @pytest.mark.parametrize("name", FAMILY_SPECS)
    @pytest.mark.parametrize("rmax, nmax", [
        (1, 3), (1, 40), (2, 5), (6, 40), (7, 10), (8, 10), (9, 9), (15, 16), (16, 16),
        (17, 50), (60, 1), (60, 32),
        (130, 4),  # rows of 128 or more terms are summed by numpy itself
    ])
    def test_bit_equal_to_per_cell(self, name, rmax, nmax):
        spec = FAMILY_SPECS[name]
        got = finite_moments(spec, rmax, nmax).log_beta_grid
        assert np.array_equal(got, per_cell_finite_moments(spec, rmax, nmax))

    def test_long_horizon_above_infinite_rows(self):
        # rows above the first infinite gamma never enter a finite row's sum
        spec = FAMILY_SPECS["gamma_trio"]
        got = finite_moments(spec, 60, 200).log_beta_grid
        assert np.array_equal(got, per_cell_finite_moments(spec, 60, 200))
        assert np.isposinf(got[18:, 1:]).all() and np.isneginf(got[1:, 0]).all()  # alpha > 17

    @pytest.mark.parametrize("name", FAMILY_SPECS)
    @pytest.mark.parametrize("rmax, nmax", [(60, 50), (130, 4)])
    def test_no_warning(self, name, rmax, nmax):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite_moments(FAMILY_SPECS[name], rmax, nmax)

    # Largest error in ulp of the 50-digit value, rmax 60 and nmax 12, as
    # measured: constant 16, lognormal_trio 3, lognormal_heavy 3,
    # pareto_trio 9, pareto_heavy 31, gamma_trio 2, gamma_3_2 2.  At nmax 50
    # the worst is pareto_heavy, 35 ulp.
    @pytest.mark.parametrize("name", FAMILY_SPECS)
    def test_within_64_ulp_of_mpmath(self, name):
        grid = finite_moments(FAMILY_SPECS[name], 60, 12)
        got = grid.log_beta_grid
        want = mp_finite_log_betas(grid.log_gamma_values, 12)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        cells = np.argwhere(finite)
        ulps = np.abs(got[finite] - want[finite]) / np.array([math.ulp(w) for w in want[finite]])
        worst = tuple(cells[np.argmax(ulps)])
        assert ulps.max() <= 64, (worst, ulps.max(), got[worst], want[worst])


class TestSeriesRecursionAudit:
    # Largest error in ulp of the 50-digit series recursion fed with the
    # package's own float log gamma_r, rmax 60, as measured: constant 4,
    # lognormal_trio 1, lognormal_heavy 1, pareto_trio 1, pareto_heavy 42,
    # gamma_trio 1 (gamma_3_2 has no finite order).
    @pytest.mark.parametrize("name", FAMILY_SPECS)
    def test_within_64_ulp_of_mpmath(self, name):
        table = infinite_moments(FAMILY_SPECS[name], 60)
        got = table.log_beta_values
        want = mp_infinite_log_betas(table.log_gamma_values, table.first_infinite)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        ulps = np.abs(got[finite] - want[finite]) / np.array([math.ulp(w) for w in want[finite]])
        assert ulps.max() <= 64, (np.argmax(ulps), ulps.max())


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
                root = [grid.log_beta_grid[r, n] / r for r in range(1, 7)]
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
