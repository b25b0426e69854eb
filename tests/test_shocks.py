import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    mp_expected_log,
    mp_gamma_log_inverse_moment,
    mp_inverse_moments,
    mp_log_inverse_moment,
    quad_expected_log_gamma,
    quad_expected_log_pareto,
)
from conftest import PUBLISHED_SPECS
from ruinbounds import (
    ConfigError,
    Constant,
    FeasibilityError,
    Gamma,
    Lognormal,
    Pareto,
    match_inverse_moments,
    replicate_stream,
    spec_from_record,
)
from ruinbounds._special import digamma
from ruinbounds.bounds import switch_boundary
from ruinbounds.shocks import _LOG_FLOAT_MAX, _exp_or_inf

GAMMA1 = 5.0 / 6.0
GAMMA2 = 20.0 / 27.0


class TestInverseMoment:
    def test_lognormal_published_value(self):
        # order-3 value printed for the rounded display parameters
        assert Lognormal(3.17, 1.75).inverse_moment(3) == pytest.approx(0.1971, abs=5e-3)

    def test_pareto_closed_form(self):
        assert Pareto(0.1, 0.9).inverse_moment(2) == pytest.approx(0.1 / (0.81 * 2.1), rel=1e-12)

    def test_constant(self):
        assert Constant(2.0).inverse_moment(5) == pytest.approx(0.03125, rel=1e-12)

    def test_gamma_first_order(self):
        assert Gamma(17.0, 13.3333).inverse_moment(1) == pytest.approx(13.3333 / 16.0, rel=1e-12)

    def test_gamma_infinite_at_and_above_shape(self):
        spec = Gamma(3.0, 1.0)
        assert spec.inverse_moment(2) == pytest.approx(1.0 / 2.0, rel=1e-12)
        assert spec.inverse_moment(3) == math.inf
        assert spec.inverse_moment(4) == math.inf
        assert spec.log_inverse_moment(3) == math.inf

    def test_lognormal_terms_past_the_float_range(self):
        # -r*mu is -inf and r*r*sigma2/2 is +inf: the exact r*(r*sigma2/2 - mu), rounded once
        for mu, sigma2, r in [(9e307, 9e307, 2), (9e307, 9e307, 3), (1.7e308, 9e307, 2)]:
            exact = r * (r * Fraction(sigma2) / 2 - Fraction(mu))
            assert Lognormal(mu, sigma2).log_inverse_moment(r) == float(exact)
        assert Lognormal(9e307, 1.7e308).log_inverse_moment(3) == math.inf
        assert Lognormal(1.79e308, 5e307).log_inverse_moment(3) == -math.inf

    def test_gamma_shape_past_lgamma_range(self):
        # lgamma(alpha) overflows; gamma_r = theta**r / prod_{j<=r} (alpha - j)
        alpha = 2.5599833278516387e305
        assert Gamma(alpha, 1.0).log_inverse_moment(2) == pytest.approx(
            -2 * math.log(alpha), rel=1e-15)

    def test_log_form_is_exact(self):
        spec = Pareto(0.1, 0.9)
        for r in (1, 5, 30, 60):
            assert spec.log_inverse_moment(r) == pytest.approx(
                math.log(spec.inverse_moment(r)), rel=1e-13
            )

    def test_overflow_is_infinite(self):
        # log moment 1247 at order 200, past log(DBL_MAX); 693 at order 150 is not
        spec = Lognormal(0.2146, 0.0645)
        assert spec.log_inverse_moment(200) > math.log(np.finfo(float).max)
        assert spec.inverse_moment(200) == math.inf
        assert spec.inverse_moment(150) == math.exp(spec.log_inverse_moment(150))
        assert math.isfinite(spec.inverse_moment(150))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="moment order must be >= 1"):
            Lognormal(1.0, 1.0).inverse_moment(0)
        with pytest.raises(ValueError, match="moment order must be an integer"):
            Lognormal(1.0, 1.0).inverse_moment(True)

    @pytest.mark.parametrize("spec, orders", [
        (Lognormal(0.2146, 0.0645), range(1, 11)),
        (Pareto(3.0, 0.9), range(1, 11)),
        (Gamma(17.0, 40.0 / 3.0), range(1, 9)),
        (Constant(1.5), range(1, 11)),
    ])
    def test_log_convexity(self, spec, orders):
        # consequence of Cauchy-Schwarz on the reciprocal shock
        lg = [spec.log_inverse_moment(r) for r in orders]
        for i in range(1, len(lg) - 1):
            assert lg[i + 1] + lg[i - 1] >= 2 * lg[i] - 1e-12


class TestExpectedLog:
    def test_pareto_value_and_quadrature(self):
        spec = Pareto(0.1, 0.9)
        assert spec.expected_log() == pytest.approx(math.log(0.9) + 10.0, rel=1e-12)
        assert spec.expected_log() == pytest.approx(quad_expected_log_pareto(0.1, 0.9), rel=1e-9)

    def test_lognormal_is_mu(self):
        assert Lognormal(3.17, 1.75).expected_log() == 3.17

    def test_constant(self):
        assert Constant(1.0).expected_log() == 0.0

    def test_gamma_against_quadrature(self):
        spec = Gamma(17.0, 40.0 / 3.0)
        assert spec.expected_log() == pytest.approx(
            quad_expected_log_gamma(17.0, 40.0 / 3.0), rel=1e-9
        )

    def test_gamma_sign_not_tied_to_shape_vs_rate(self):
        # digamma(alpha) - log(theta) decides the regime, not alpha > theta
        assert Gamma(1.1, 1.0).expected_log() < 0 < Gamma(30.0, 3.0).expected_log()


class TestSupportBounds:
    def test_pareto(self):
        m, M = Pareto(0.1, 0.9).support_bounds()
        assert (m, M) == (0.9, math.inf)

    def test_lognormal(self):
        m, M = Lognormal(3.17, 1.75).support_bounds()
        assert (m, M) == (0.0, math.inf)

    def test_gamma(self):
        m, M = Gamma(17.0, 13.3333).support_bounds()
        assert (m, M) == (0.0, math.inf)

    def test_constant(self):
        m, M = Constant(2.0).support_bounds()
        assert (m, M) == (2.0, 2.0)


def _sample_inverse_oracle(spec, rng, size):
    """Each family's reciprocal-shock draw, written out with numpy's samplers."""
    if isinstance(spec, Lognormal):
        return np.exp(-rng.normal(spec.mu, math.sqrt(spec.sigma2), size))
    if isinstance(spec, Pareto):
        return (1 - rng.random(size)) ** (1 / spec.beta) / spec.k
    if isinstance(spec, Gamma):
        return 1 / rng.gamma(spec.alpha, 1 / spec.theta, size)
    return np.full(size, 1 / spec.a)


class TestSampling:
    # beta 2 and 0.5 take numpy's sqrt and square shortcuts for ** 0.5 and ** 2
    @pytest.mark.parametrize("spec", [
        Lognormal(0.2146, 0.0645), Lognormal(3.17, 1.75),
        Pareto(3.0, 0.9), Pareto(2.0, 0.9), Pareto(0.5, 1.3),
        Gamma(17.0, 40.0 / 3.0), Gamma(2.5, 0.7), Constant(1.5),
    ], ids=repr)
    @pytest.mark.parametrize("size", [1, 7, 128, 1000])
    def test_equals_oracle_bit_for_bit(self, spec, size):
        for seed in range(40 if size == 1 else 3):
            got = spec.sample_inverse(replicate_stream(seed, 2), size)
            want = _sample_inverse_oracle(spec, replicate_stream(seed, 2), size)
            assert got.shape == want.shape == (size,)
            assert got.tobytes() == want.tobytes(), seed

    def test_each_family_defines_sample_inverse(self):
        # per-class instrumentation wraps the method in each family's own dict
        for cls in (Lognormal, Pareto, Gamma, Constant):
            assert "sample_inverse" in cls.__dict__

    def test_reproducible(self):
        spec = Lognormal(0.2146, 0.0645)
        a = spec.sample_inverse(replicate_stream(42, 7), 5)
        b = spec.sample_inverse(replicate_stream(42, 7), 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        Lognormal(0.2146, 0.0645),
        Pareto(3.0, 0.9),
    ])
    def test_mean_matches_first_inverse_moment(self, spec):
        n = 1_000_000
        draws = spec.sample_inverse(replicate_stream(101, 0), n)
        se = math.sqrt((spec.inverse_moment(2) - spec.inverse_moment(1) ** 2) / n)
        assert abs(draws.mean() - spec.inverse_moment(1)) < 3 * se

    @pytest.mark.parametrize("spec, r_values", [
        (Lognormal(0.2146, 0.0645), range(1, 11)),
        (Pareto(3.0, 0.9), range(1, 11)),
        (Gamma(17.0, 40.0 / 3.0), range(1, 9)),  # needs the 2r-th moment finite
    ])
    def test_power_means_match_inverse_moments(self, spec, r_values):
        n = 1_000_000
        draws = spec.sample_inverse(replicate_stream(202, 0), n)
        for r in r_values:
            mean_r = float((draws ** r).mean())
            var = spec.inverse_moment(2 * r) - spec.inverse_moment(r) ** 2
            se = math.sqrt(var / n)
            assert abs(mean_r - spec.inverse_moment(r)) < 4 * se, f"r={r}"

    def test_gamma_draws_that_underflow(self):
        # a standard gamma draw of 0.0 or a subnormal one: reciprocal +inf, no warning
        draws = Gamma(1e-3, 1.0).sample_inverse(replicate_stream(0, 0), 128)
        assert np.isinf(draws).any() and not np.isnan(draws).any()

    def test_draws_past_the_float_range(self):
        # exp and the Pareto scale overflow to +inf, the right reciprocal shock
        assert np.isinf(Lognormal(0.0, 1e6).sample_inverse(replicate_stream(0, 0), 64)).any()
        assert np.isinf(Pareto(1.0, 1e-320).sample_inverse(replicate_stream(0, 0), 64)).any()

    def test_draws_stay_inside_reciprocal_support(self):
        rng = replicate_stream(3, 0)
        pareto = Pareto(3.0, 0.9).sample_inverse(rng, 10_000)
        assert np.all(pareto > 0.0) and np.all(pareto <= 1.0 / 0.9)
        gamma = Gamma(17.0, 13.3333).sample_inverse(rng, 10_000)
        assert np.all(gamma > 0.0)
        assert np.all(Constant(2.0).sample_inverse(rng, 100) == 0.5)


class TestLogInverseMomentAudit:
    """``log_inverse_moment`` against 50-digit mpmath on the stored parameters, orders 1..60.

    Errors are in ulp of the exact value, so they grow where the terms cancel
    near log gamma_r = 0, and for gamma shocks with the size of
    lgamma(alpha).  Measured maxima: lognormal 10 ulp (the trio, r = 7),
    Pareto 71 ulp (the trio, r = 18), gamma with alpha <= 64.5 2472 ulp
    (Gamma(64.5, 40), r = 44, 1.7e-14 absolute), Gamma(1000, 900) 123632
    ulp (r = 1, 1.7e-12 absolute).
    """

    @pytest.mark.parametrize("spec, bound", [
        (match_inverse_moments("lognormal", GAMMA1, GAMMA2), 16),
        (Lognormal(3.168168811077203, 1.7512681078733179), 16),
        (Lognormal(0.15, 0.09), 16),
        (Pareto(0.1, 0.9), 128),
        (Pareto(3.0, 0.9), 128),
        (match_inverse_moments("gamma", GAMMA1, GAMMA2), 4096),
        (Gamma(2.5, 1.0), 4096),
        (Gamma(40.0, 30.0), 4096),
        (Gamma(64.5, 40.0), 4096),
        (Gamma(1000.0, 900.0), 2 ** 17),
    ], ids=repr)
    def test_within_ulp_bound(self, spec, bound):
        for r in range(1, 61):
            got, want = spec.log_inverse_moment(r), mp_log_inverse_moment(spec, r)
            if math.isinf(want):
                assert got == want, r
            else:
                assert abs(got - want) <= bound * math.ulp(want), (r, got, want)

    # shapes from 2**10, where the product form takes over, to 1e300, with
    # rates across the float range and equal to the shape
    LARGE_SHAPES = [2.0 ** 10] + [10.0 ** e for e in (4, 5, 8, 10, 17, 30, 100, 200, 300)]
    RATES = [10.0 ** e for e in (-300, -100, -10, -3, -1, 0, 1, 3, 10, 100, 300)]

    def test_large_shape_within_ulp_of_the_larger_term(self):
        """``r log(theta/alpha) - sum_j log1p(-j/alpha)`` against the exact identity in mpmath.

        Errors are in ulp of the larger of the two terms, since they cancel
        where theta is near alpha.  Measured maximum 1.0 ulp (Gamma(1024,
        1e-300), r = 5), and 2.6e-16 relative.  The lgamma difference gave
        0.0 for Gamma(1e17, 1) and Gamma(1e300, 1e300).
        """
        specs = [Gamma(a, t) for a in self.LARGE_SHAPES for t in self.RATES + [a]]
        for spec in specs + [Gamma(1025.0, 3.0)]:
            for r in (1, 2, 3, 5, 8, 13, 21, 34, 55, 60):
                want, scale = mp_gamma_log_inverse_moment(spec, r)
                got = spec.log_inverse_moment(r)
                assert abs(got - want) <= 4 * math.ulp(scale), (spec, r, got, want)

    def test_large_shape_with_theta_near_alpha(self):
        """theta = alpha (1 +- 10**-k), k = 1..15: log(theta/alpha) must not inherit the
        rounding of theta/alpha, which gave 8.3e-8 relative error at Gamma(1e17,
        1e17 (1 + 1e-10)) and 4.0e-2 at Gamma(1e300, 1e300 (1 - 1e-15)).

        Errors are in ulp of the larger term, as above.  Measured maximum 2.0
        ulp (Gamma(1e8, 1e8 (1 + 1e-6)), r = 60), 1.7e-16 relative.
        """
        for alpha in (2.0 ** 10, 1e8, 1e17, 1e300):
            for k in range(1, 16):
                for theta in (alpha * (1 + 10.0 ** -k), alpha * (1 - 10.0 ** -k)):
                    spec = Gamma(alpha, theta)
                    for r in (1, 2, 3, 5, 8, 13, 21, 34, 55, 60):
                        want, scale = mp_gamma_log_inverse_moment(spec, r)
                        got = spec.log_inverse_moment(r)
                        assert abs(got - want) <= 4 * math.ulp(scale), (spec, r, got, want)


# decades across each parameter's range, and a few values in between
_GRID = [10.0 ** e for e in (-300, -100, -10, -3, -1, 0, 1, 3, 10, 100, 300)] + [0.5, 2.5, 17.0]
_CANCELLING = [0.01, 0.1, 0.5, 1.0, 3.0, 17.0, 100.0, 1e4, 1e10]


class TestExpectedLogAudit:
    """``expected_log`` against 50-digit mpmath on the stored parameters.

    Errors are in ulp of the larger of the formula's two terms, since they
    cancel where E[log shock] is near 0; a sum of two terms of one sign
    rounds to up to 1 ulp of the result, 2 of the larger term.  Measured
    maxima against the rounded oracle: lognormal 0 (mu is returned as is),
    constant 0, Pareto 2.0 (Pareto(0.001, 1e300)) and gamma 2.0 ulp
    (Gamma(2.5, 0.5)).
    """

    BOUNDS = {"lognormal": 0, "constant": 1, "pareto": 4, "gamma": 4}

    @pytest.mark.parametrize("family", ["lognormal", "pareto", "gamma", "constant"])
    def test_within_ulp_bound(self, family):
        specs = [s for s in PUBLISHED_SPECS if s.family == family]
        if family == "lognormal":
            specs += [Lognormal(sign * mu, 1.0) for mu in _GRID for sign in (1, -1)]
        elif family == "pareto":
            specs += [Pareto(b, k) for b in _GRID for k in _GRID]
            specs += [Pareto(b, math.exp(-1.0 / b)) for b in _CANCELLING]
        elif family == "gamma":
            specs += [Gamma(a, t) for a in _GRID for t in _GRID]
            specs += [Gamma(a, math.exp(digamma(a))) for a in _CANCELLING]
        else:
            specs += [Constant(a) for a in _GRID]
        bound = self.BOUNDS[family]
        for spec in specs:
            want, scale = mp_expected_log(spec)
            got = spec.expected_log()
            assert abs(got - want) <= bound * math.ulp(scale), (spec, got, want)


class TestMatching:
    def test_lognormal_published_parameters(self):
        spec = match_inverse_moments("lognormal", GAMMA1, GAMMA2)
        assert spec.mu == pytest.approx(0.2146, abs=5e-5)
        assert spec.sigma2 == pytest.approx(0.0645, abs=5e-5)

    def test_pareto_published_parameters(self):
        spec = match_inverse_moments("pareto", GAMMA1, GAMMA2)
        assert spec.beta == pytest.approx(3.0, rel=1e-10)
        assert spec.k == pytest.approx(0.9, rel=1e-10)

    def test_gamma_published_parameters(self):
        spec = match_inverse_moments("gamma", GAMMA1, GAMMA2)
        assert spec.alpha == pytest.approx(17.0, rel=1e-10)
        assert spec.theta == pytest.approx(40.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("family", ["lognormal", "pareto", "gamma"])
    @pytest.mark.parametrize("g1, g2", [
        (GAMMA1, GAMMA2),
        (0.101010101, 0.0587889477),
        (0.5, 0.3),
        (0.9, 0.85),
        (0.1, 0.0101),   # t = 1.01, close to a degenerate shock
        (0.7, 0.931),    # t = 1.9
    ])
    def test_round_trip(self, family, g1, g2):
        spec = match_inverse_moments(family, g1, g2)
        assert spec.inverse_moment(1) == pytest.approx(g1, rel=1e-10)
        assert spec.inverse_moment(2) == pytest.approx(g2, rel=1e-10)
        # the 50-digit moments of the matched parameters, within 8 ulp of the
        # targets; measured at most 3 (lognormal), 2 (Pareto) and 1 ulp (gamma)
        for got, want in zip(mp_inverse_moments(spec), (g1, g2)):
            assert abs(got - want) <= 8 * math.ulp(want), (got, want)

    def test_pareto_round_trip_at_a_large_ratio(self):
        # t = g2 / g1**2 = 1e15, where sqrt(t / (t - 1)) - 1 cancels to 0.89 of beta.  At
        # this point the lognormal misses by 4.7e-15 (exp at mu ~ 35.7), and the gamma by
        # 12.6%, since its shape 2 + 1e-15 rounds to 2.000000000000001.
        self.test_round_trip("pareto", 1e-8, 0.1)

    @pytest.mark.parametrize("family", ["lognormal", "pareto", "gamma"])
    def test_every_match_within_its_tolerance_of_the_50_digit_moment(self, family):
        # a gamma shape 2 + 1/(t - 1) keeps few digits of 1/(t - 1) once t is large: at
        # (1e-8, 0.1) it rounds to 2.000000000000001, whose log gamma2 misses by 0.119,
        # at (1e-6, 0.1) by 8.3e-8 and at (1e-4, 0.1) by 5.0e-10
        edges = [1e-200, 1e-20, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.5, 0.9, GAMMA1, GAMMA2]
        for g1 in edges:
            for g2 in edges:
                try:
                    spec = match_inverse_moments(family, g1, g2)
                except FeasibilityError:
                    continue
                miss = abs(mp_log_inverse_moment(spec, 2) - math.log(g2))
                assert miss <= 1e-9 + 1e-12, (g1, g2, spec, miss)

    @pytest.mark.parametrize("g1", [1e-8, 1e-6])
    def test_gamma_shape_rounded_past_its_tolerance_is_infeasible(self, g1):
        with pytest.raises(FeasibilityError, match="misses log gamma2 by"):
            match_inverse_moments("gamma", g1, 0.1)
        assert match_inverse_moments("gamma", 1e-4, 0.1).alpha > 2.0

    @pytest.mark.parametrize("number", [float, np.float64], ids=["python", "numpy"])
    def test_first_moment_squared_below_the_float_range(self, number):
        # gamma1**2 underflows to 0, yet sigma2 = log(gamma2 / gamma1**2) ~ 920.34 is a float
        spec = match_inverse_moments("lognormal", number(1e-200), number(0.5))
        assert type(spec.mu) is float and type(spec.sigma2) is float
        assert abs(spec.log_inverse_moment(1) - math.log(1e-200)) <= 1e-11
        assert abs(spec.log_inverse_moment(2) - math.log(0.5)) <= 1e-11
        # a Pareto tail index or gamma shape - 2 near gamma1**2 / gamma2 is below every float
        for family in ("pareto", "gamma"):
            with pytest.raises(FeasibilityError):
                match_inverse_moments(family, number(1e-200), number(0.5))

    @pytest.mark.parametrize("family", ["lognormal", "pareto", "gamma"])
    def test_extreme_moments_match_or_are_infeasible(self, family):
        """No ZeroDivisionError, OverflowError or numpy warning, from float or numpy moments."""
        edges = [5e-324, 1e-320, 1e-310, 2.0 ** -1022, 1e-200, 1.4e-154, 1.5e-154, 1e-100,
                 1e-20, 1e-8, 0.5, 0.9, 1.0 - 2.0 ** -53]
        for number in (float, np.float64):
            for g1 in edges:
                for g2 in edges:
                    try:
                        spec = match_inverse_moments(family, number(g1), number(g2))
                    except FeasibilityError:
                        continue
                    assert spec.family == family
                    assert all(type(v) is float for v in spec.to_record().values()
                               if v != family)

    def test_text_moments_are_rejected(self):
        with pytest.raises(TypeError):
            match_inverse_moments("lognormal", "0.5", 0.3)
        with pytest.raises(TypeError):
            match_inverse_moments("lognormal", 0.5, "0.3")

    def test_infeasible_below_cauchy_schwarz(self):
        with pytest.raises(FeasibilityError):
            match_inverse_moments("lognormal", 0.5, 0.25)
        with pytest.raises(FeasibilityError):
            match_inverse_moments("pareto", 0.5, 0.2)

    def test_rejects_out_of_range_moments(self):
        with pytest.raises(FeasibilityError):
            match_inverse_moments("gamma", 1.2, 0.9)

    def test_rejects_unknown_family(self):
        with pytest.raises(FeasibilityError):
            match_inverse_moments("constant", 0.5, 0.3)


@pytest.mark.filterwarnings("error")
class TestOverflowToInf:
    """``_exp_or_inf`` and its callers at log(DBL_MAX), where ``math.exp`` is still finite,
    and one ulp above, where it raises ``OverflowError``."""

    ABOVE = math.nextafter(_LOG_FLOAT_MAX, math.inf)
    EXP_EDGE = 1.7976931348622732e308  # math.exp(_LOG_FLOAT_MAX), 213 ulp below DBL_MAX

    def test_edge(self):
        assert math.exp(_LOG_FLOAT_MAX) == self.EXP_EDGE
        with pytest.raises(OverflowError):
            math.exp(self.ABOVE)
        assert _exp_or_inf(_LOG_FLOAT_MAX) == self.EXP_EDGE
        assert _exp_or_inf(self.ABOVE) == math.inf
        assert _exp_or_inf(-math.inf) == 0.0 and _exp_or_inf(math.inf) == math.inf

    def test_inverse_moment(self):
        # log E[shock^-1] = -mu + sigma2/2, and 5e-324 / 2 rounds to 0
        for log_value, want in [(_LOG_FLOAT_MAX, self.EXP_EDGE), (self.ABOVE, math.inf)]:
            spec = Lognormal(-log_value, 5e-324)
            assert spec.log_inverse_moment(1) == log_value
            assert spec.inverse_moment(1) == want

    def test_switch_boundary(self):
        for c in (0.5, 1.0):
            assert switch_boundary((0.0, 0.0, _LOG_FLOAT_MAX), 1, c) == c * (1.0 + self.EXP_EDGE)
            assert switch_boundary((0.0, 0.0, self.ABOVE), 1, c) == math.inf

    @staticmethod
    def _moments_at(log_t):
        """``(gamma1, gamma2)`` whose ratio t = gamma2 / gamma1**2 has the float log ``log_t``.

        gamma1**2 underflows, so ``match_inverse_moments`` takes t from the logs.
        """
        g1 = 1e-155
        g2 = math.exp(log_t + 2.0 * math.log(g1))
        for _ in range(64):
            got = math.log(g2) - 2.0 * math.log(g1)
            if got == log_t:
                return g1, g2
            g2 = math.nextafter(g2, 0.0 if got > log_t else 1.0)
        raise AssertionError(f"no gamma2 within 64 ulp gives log t = {log_t!r}")

    def test_match_inverse_moments(self):
        g1, g2 = self._moments_at(_LOG_FLOAT_MAX)  # t = EXP_EDGE
        assert match_inverse_moments("lognormal", g1, g2) == Lognormal(
            _LOG_FLOAT_MAX / 2.0 - math.log(g1), _LOG_FLOAT_MAX)
        # beta ~ 1/(2t) is subnormal but positive
        assert match_inverse_moments("pareto", g1, g2).beta == pytest.approx(
            0.5 / self.EXP_EDGE, rel=1e-6)
        with pytest.raises(FeasibilityError, match="finite shape"):  # 2t overflows
            match_inverse_moments("gamma", g1, g2)
        g1, g2 = self._moments_at(self.ABOVE)  # t = +inf
        assert match_inverse_moments("lognormal", g1, g2).sigma2 == self.ABOVE
        for family in ("pareto", "gamma"):
            with pytest.raises(FeasibilityError):
                match_inverse_moments(family, g1, g2)


class TestRecords:
    @pytest.mark.parametrize("spec", [
        Lognormal(3.17, 1.75),
        Pareto(0.1, 0.9),
        Gamma(17.0, 13.3333),
        Constant(2.0),
    ])
    def test_round_trip(self, spec):
        assert spec_from_record(spec.to_record()) == spec

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            spec_from_record({"family": "weibull", "k": 1.0})

    def test_missing_parameter(self):
        with pytest.raises(ConfigError):
            spec_from_record({"family": "pareto", "beta": 1.0})

    def test_extra_parameter(self):
        with pytest.raises(ConfigError):
            spec_from_record({"family": "constant", "a": 1.0, "b": 2.0})

    def test_invalid_parameter_value(self):
        with pytest.raises(ConfigError):
            spec_from_record({"family": "lognormal", "mu": 0.0, "sigma2": -1.0})

    @pytest.mark.parametrize("record", [
        {"family": "pareto", "beta": "inf", "k": 0.9},
        {"family": "gamma", "alpha": "inf", "theta": 1.0},
    ])
    def test_non_finite_parameter_value(self, record):
        with pytest.raises(ConfigError):
            spec_from_record(record)


# a bad parameter and the message naming it
BAD_PARAMETERS = [
    (lambda: Lognormal(0.0, 0.0),
     "lognormal sigma2 must be positive and finite, got sigma2=0.0"),
    (lambda: Pareto(0.0, 1.0), "pareto beta must be positive and finite, got beta=0.0"),
    (lambda: Pareto(1.0, -1.0), "pareto k must be positive and finite, got k=-1.0"),
    (lambda: Gamma(-1.0, 1.0), "gamma alpha must be positive and finite, got alpha=-1.0"),
    (lambda: Constant(0.0), "constant a must be positive and finite, got a=0.0"),
    (lambda: Lognormal(math.nan, 1.0), "lognormal mu must be finite, got mu=nan"),
    (lambda: Pareto(math.inf, 0.9), "pareto beta must be positive and finite, got beta=inf"),
    (lambda: Pareto(1.0, math.inf), "pareto k must be positive and finite, got k=inf"),
    (lambda: Gamma(math.inf, 1.0), "gamma alpha must be positive and finite, got alpha=inf"),
    (lambda: Gamma(17.0, math.inf), "gamma theta must be positive and finite, got theta=inf"),
    (lambda: Constant(math.inf), "constant a must be positive and finite, got a=inf"),
    (lambda: Constant(math.nan), "constant a must be positive and finite, got a=nan"),
    (lambda: Lognormal(1.0, math.inf),
     "lognormal sigma2 must be positive and finite, got sigma2=inf"),
    (lambda: Lognormal(math.inf, 1.0), "lognormal mu must be finite, got mu=inf"),
    (lambda: Gamma(1.0, math.nan), "gamma theta must be positive and finite, got theta=nan"),
]


class TestValidation:
    # ids stay <lambda>N, as for a list of the builders alone
    @pytest.mark.parametrize("build, message", BAD_PARAMETERS,
                             ids=[f"<lambda>{i}" for i in range(len(BAD_PARAMETERS))])
    def test_bad_parameters_raise(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
