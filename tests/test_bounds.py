import collections
import copy
import gc
import math
import operator
import pickle
import re
import struct
import sys
import warnings

import numpy as np
import pytest

import ruinbounds.bounds
from oracles import brute_force_best_order, mp_bound_log_path, mp_switch_boundary
from ruinbounds import (
    BoundResult,
    BoundSchedule,
    Constant,
    Gamma,
    Lognormal,
    Pareto,
    SimConfig,
    boundary_table,
    ecdf_survival,
    evaluate_bound,
    finite_moments,
    infinite_moments,
    ruin_upper_bound,
    sample_Z,
    schedule,
    schedules,
    survival_lower_bound,
)
from ruinbounds.reference import LOGNORMAL_HEAVY, MATCHED_TRIO, PARETO_HEAVY


class TestSchedule:
    def test_lognormal_published_boundaries(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        assert sched.max_order == 2
        assert sched.boundaries == pytest.approx([1.6808, 6.0288], abs=5e-4)

    def test_pareto_matched_first_boundary(self):
        sched = schedule(infinite_moments(Pareto(3.0, 0.9), 7), 1.0)
        assert sched.boundaries[0] == pytest.approx(7.2857, abs=5e-4)

    def test_constant_collapses_to_threshold(self):
        sched = schedule(infinite_moments(Constant(2.0), 6), 1.0)
        assert np.allclose(sched.boundaries, 2.0, rtol=1e-12)

    def test_boundaries_increase(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 6, 20)
            for n in (3, 5, 10, 20):
                sched = schedule(grid, 1.0, horizon=n)
                diffs = np.diff(sched.boundaries)
                assert np.all(diffs > 0)

    def test_consumption_scales_boundaries(self):
        table = infinite_moments(PARETO_HEAVY, 5)
        one = schedule(table, 1.0)
        five = schedule(table, 5.0)
        assert five.boundaries == pytest.approx([5.0 * b for b in one.boundaries], rel=1e-12)

    def test_degenerate_single_order(self):
        # second reciprocal moment above one: only order 1 usable
        spec = Lognormal(0.5, 0.6)
        table = infinite_moments(spec, 4)
        assert table.first_infinite == 2
        sched = schedule(table, 1.0)
        assert sched.degenerate
        assert sched.max_order == 1
        assert len(sched.boundaries) == 0
        with pytest.raises(ValueError, match="x must not be NaN"):
            sched.order_for(math.nan)
        res = evaluate_bound(sched, 10.0)
        assert res.order == 1
        assert 0.0 <= res.survival_lower < 1.0

    def test_finite_grid_requires_horizon(self):
        grid = finite_moments(Constant(2.0), 3, 5)
        with pytest.raises(ValueError):
            schedule(grid, 1.0)
        with pytest.raises(ValueError):
            schedule(grid, 1.0, horizon=6)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            schedule(grid, 1.0, horizon=2.5)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            schedule(grid, 1.0, horizon=True)

    def test_series_horizon_is_math_inf(self):
        table = infinite_moments(PARETO_HEAVY, 6)
        assert schedule(table, 1.0, horizon=math.inf) == schedule(table, 1.0)
        assert schedule(table, 1.0).horizon == math.inf
        for horizon in (3, None):
            with pytest.raises(ValueError, match="horizon"):
                schedule(table, 1.0, horizon=horizon)
        with pytest.raises(ValueError, match="nmax 5, got inf"):
            schedule(finite_moments(PARETO_HEAVY, 6, 5), 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_or_nan_consumption(self, c):
        with pytest.raises(ValueError, match="consumption must be positive"):
            schedule(infinite_moments(LOGNORMAL_HEAVY, 4), c)
        with pytest.raises(ValueError, match="consumption must be positive"):
            boundary_table(Constant(2.0), c, [3, math.inf], 4)

    def test_schedules_build_each_moment_kind_once(self, monkeypatch):
        calls = []
        for name in ("finite_moments", "infinite_moments"):
            def counted(*args, _name=name, _inner=getattr(ruinbounds.bounds, name)):
                calls.append((_name, args[1:]))
                return _inner(*args)
            monkeypatch.setattr(ruinbounds.bounds, name, counted)
        spec = MATCHED_TRIO["pareto"]
        got = schedules(spec, 1.0, [10, math.inf, 3], 6)
        assert calls == [("finite_moments", (6, 10)), ("infinite_moments", (6,))]
        assert [s.horizon for s in got] == [10, math.inf, 3]
        calls.clear()
        schedules(spec, 1.0, [5, 2], 6)
        assert calls == [("finite_moments", (6, 5))]
        calls.clear()
        schedules(spec, 1.0, [math.inf], 6)
        assert calls == [("infinite_moments", (6,))]

    def test_holds_tuples_of_python_floats(self):
        for sched in (schedule(infinite_moments(PARETO_HEAVY, 8), np.float64(2.0)),
                      schedule(finite_moments(Lognormal(5.992310449541053e307, 1.0), 4, 3), 1,
                               horizon=3),
                      schedule(infinite_moments(Lognormal(0.5, 0.6), 4), 1.0)):
            for values in (sched.boundaries, sched.log_beta_values):
                assert type(values) is tuple
                assert all(type(v) is float for v in values), values
            assert sched.degenerate == (sched.boundaries == ())

    def test_equal_and_hash_by_value(self):
        table = infinite_moments(PARETO_HEAVY, 8)
        one, again = schedule(table, 1.0), schedule(table, 1.0)
        assert one is not again
        assert one == again and hash(one) == hash(again)
        assert len({one, again}) == 1
        other = schedule(table, 2.0)
        assert other != one
        assert other.log_beta_values == one.log_beta_values
        grid = finite_moments(PARETO_HEAVY, 8, 4)
        assert schedule(grid, 1.0, horizon=4) == schedule(grid, 1.0, horizon=4)
        assert schedule(grid, 1.0, horizon=4) != schedule(grid, 1.0, horizon=3)

    def test_tie_goes_to_lower_order(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        b1 = float(sched.boundaries[0])
        assert sched.order_for(b1) == 1
        assert sched.order_for(np.nextafter(b1, math.inf)) == 2


class TestBoundValues:
    def test_published_survival_cells(self):
        sched_ln = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        sched_pa = schedule(infinite_moments(PARETO_HEAVY, 61), 1.0)
        cells = {  # x -> (lognormal bound, pareto bound)
            1.2: (0.4382, 0.4382),
            1.4: (0.7191, 0.7191),
            2.0: (0.9235, 0.9275),
            2.2: (0.9469, 0.9591),
        }
        for x, (want_ln, want_pa) in cells.items():
            assert survival_lower_bound(sched_ln, x) == pytest.approx(want_ln, abs=1e-3)
            assert survival_lower_bound(sched_pa, x) == pytest.approx(want_pa, abs=1e-3)

    def test_vacuous_near_consumption(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        res = evaluate_bound(sched, 1.1)
        assert res.survival_lower == 0.0
        assert res.vacuous
        assert res.ruin_raw == pytest.approx(0.1124 / 0.1, abs=2e-2)
        assert res.ruin_upper == 1.0

    def test_below_consumption_flag(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        res = evaluate_bound(sched, 0.9)
        assert res.below_consumption
        assert res.survival_lower == 0.0

    @pytest.mark.parametrize("evaluate", [evaluate_bound, survival_lower_bound,
                                          ruin_upper_bound, BoundSchedule.order_for])
    def test_nan_stock_raises(self, evaluate):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        with pytest.raises(ValueError, match="x must not be NaN"):
            evaluate(sched, math.nan)
        with pytest.raises(ValueError, match="x must not be NaN"):
            evaluate(sched, np.float64("nan"))

    @pytest.mark.parametrize("build", [
        lambda: schedule(infinite_moments(Lognormal(0.1, 1.0), 4), 1.0),
        lambda: schedule(finite_moments(Gamma(0.5, 1.0), 3, 5), 1.0, horizon=3),
        lambda: BoundSchedule(spec=Constant(2.0), c=1e-10, horizon=math.inf,
                              log_beta_values=(0.0, math.inf), boundaries=(), max_order=1),
    ], ids=["lognormal", "gamma_horizon_3", "x_over_c_overflows"])
    def test_infinite_moment_is_vacuous_at_every_stock(self, build):
        """Where the moment in use is infinite, x = +inf (and an x/c that overflows)
        gets what every finite x gets, not NaN."""
        sched = build()
        assert sched.log_beta_values[1] == math.inf
        for x in (1.5, 1e300, 1e308, math.inf, np.float64(math.inf)):
            res = evaluate_bound(sched, x)
            assert (res.order, res.log_raw) == (1, math.inf), x
            assert (res.survival_lower, res.ruin_raw, res.ruin_upper) == (0.0, math.inf, 1.0), x
            assert res.vacuous and not res.below_consumption, x

    def test_infinite_stock_on_a_finite_moment_survives(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        for x in (math.inf, np.float64(math.inf)):
            res = evaluate_bound(sched, x)
            assert (res.order, res.log_raw) == (sched.max_order, -math.inf)
            assert (res.survival_lower, res.ruin_raw, res.vacuous) == (1.0, 0.0, False)

    def test_ruin_raw_published_value(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        res = evaluate_bound(sched, 1.4)
        assert res.ruin_raw == pytest.approx(0.2809, abs=1e-3)
        assert res.ruin_upper == pytest.approx(1.0 - 0.7191, abs=1e-3)

    def test_constant_uses_top_order(self):
        sched = schedule(infinite_moments(Constant(2.0), 6), 1.0)
        res = evaluate_bound(sched, 3.0)
        assert res.order == sched.max_order == 5
        # brute force over available orders: 2^-r is minimized at the top
        assert res.ruin_upper == pytest.approx(2.0 ** -5, rel=1e-12)

    def test_ruin_bound_vanishes_at_infinity(self):
        sched = schedule(infinite_moments(PARETO_HEAVY, 10), 1.0)
        xs = [2.0, 5.0, 20.0, 100.0, 1e4, 1e8]
        vals = [ruin_upper_bound(sched, x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_log_domain_survives_order_sixty(self):
        sched = schedule(infinite_moments(PARETO_HEAVY, 61), 1.0)
        assert sched.max_order == 59
        beyond = float(sched.boundaries[-1]) * 1.5
        res = evaluate_bound(sched, beyond)
        assert res.order == 59
        assert 0.0 < res.ruin_upper < 1e-100


# The seven attributes of a BoundResult, stored or derived
_ATTRIBUTES = ("order", "log_raw", "survival_lower", "ruin_upper", "ruin_raw", "vacuous",
               "below_consumption")
_Expected = collections.namedtuple("_Expected", _ATTRIBUTES)
_attribute_values = operator.attrgetter(*_ATTRIBUTES)


def _reference_evaluate(sched, x):
    """Reference evaluation: ``np.searchsorted`` on the edge array and the
    same ``math`` arithmetic, giving all seven attributes."""
    c = sched.c
    if x <= c:
        return _Expected(0, math.inf, 0.0, 1.0, math.inf, True, True)
    i = int(np.searchsorted(sched.boundaries, x, side="left"))
    r = i + 1 if i < sched.max_order else sched.max_order
    log_beta = float(sched.log_beta_values[r])
    # an infinite moment gives +inf for every x, x = +inf included (inf - inf is NaN)
    log_raw = math.inf if log_beta == math.inf else log_beta - r * math.log(x / c - 1.0)
    if log_raw >= 0.0:
        raw = math.exp(log_raw) if log_raw < 700.0 else math.inf
        return _Expected(r, log_raw, 0.0, 1.0, raw, True, False)
    raw = math.exp(log_raw)
    return _Expected(r, log_raw, -math.expm1(log_raw), raw, raw, False, False)


def _float_bits(rows):
    """Bytes of the float attributes (log_raw, survival, ruin, raw) of every row."""
    values = [v for row in rows
              for v in (row.log_raw, row.survival_lower, row.ruin_upper, row.ruin_raw)]
    return struct.pack(f"<{len(values)}d", *values)


def _types(rows):
    """The type of each of the seven attributes of every row."""
    return [tuple(map(type, _attribute_values(row))) for row in rows]


def _assert_same_attributes(got, want, context):
    """All seven attributes of every row alike: floats bit for bit, and every type."""
    assert _float_bits(got) == _float_bits(want), context
    assert ([(r.order, r.vacuous, r.below_consumption) for r in got]
            == [(r.order, r.vacuous, r.below_consumption) for r in want]), context
    assert _types(got) == _types(want), context


class TestFastPath:
    """``evaluate_bound`` bisects the schedule's tuples; it must match the array lookup
    bit for bit."""

    SPECS = {**{f"trio_{k}": v for k, v in MATCHED_TRIO.items()},
             "heavy_pareto": PARETO_HEAVY, "heavy_lognormal": LOGNORMAL_HEAVY,
             "constant": Constant(1.25)}

    @staticmethod
    def _stocks(sched):
        """Each finite edge, one ulp either side and as np.float64, plus the extremes."""
        xs = [sched.c, 0.5 * sched.c, math.inf, 1e300]
        for edge in sched.boundaries:
            if edge != math.inf:
                xs += [edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf), np.float64(edge)]
        return xs

    @pytest.mark.parametrize("name", list(SPECS))
    def test_bit_identical_to_array_lookup(self, name):
        spec = self.SPECS[name]
        grid = finite_moments(spec, 60, 200)
        table = infinite_moments(spec, 61)
        infinite_edges = 0
        for c in (1.0, 2.5):
            schedules = [schedule(grid, c, horizon=n) for n in range(1, 201)]
            schedules.append(schedule(table, c))
            for sched in schedules:
                xs = self._stocks(sched)
                got = [evaluate_bound(sched, x) for x in xs]
                want = [_reference_evaluate(sched, x) for x in xs]
                _assert_same_attributes(got, want, (name, c, sched.horizon))
                assert all(type(r.order) is int and type(r.vacuous) is bool
                           and type(r.below_consumption) is bool for r in got)
                # evaluate_bound inlines order_for's rule; both must pick the same order
                assert [sched.order_for(x) for x in xs if x > c] == [
                    r.order for x, r in zip(xs, got) if x > c], (name, c, sched.horizon)
                infinite_edges += int(np.isinf(sched.boundaries).sum())
        if name in ("trio_lognormal", "trio_gamma"):
            assert infinite_edges > 0  # the grid reaches overflowing edges

    def test_no_searchsorted_per_call(self, monkeypatch):
        sched = schedule(infinite_moments(PARETO_HEAVY, 61), 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("np.searchsorted called")

        monkeypatch.setattr(np, "searchsorted", refuse)
        for x in (0.5, 1.1, 2.0, float(sched.boundaries[3]), 1e6, math.inf):
            evaluate_bound(sched, x)
        assert sched.order_for(1e6) == 59

    @pytest.mark.parametrize("name", list(SPECS))
    def test_seeded_sweep_matches_reference(self, name):
        """All seven attributes, bit for bit and by type, on seeded stocks as the
        benchmark draws them: c * (1 + 10**u), u uniform on (-2, 3)."""
        spec = self.SPECS[name]
        grid = finite_moments(spec, 60, 32)
        schedules = [schedule(grid, 1.0, horizon=n) for n in range(4, 33, 4)]
        schedules.append(schedule(infinite_moments(spec, 61), 1.0))
        u = np.random.default_rng(20261020).uniform(-2.0, 3.0, 500)
        xs = (1.0 + 10.0 ** u).tolist() + [0.5, 1.0]
        for sched in schedules:
            _assert_same_attributes([evaluate_bound(sched, x) for x in xs],
                                    [_reference_evaluate(sched, x) for x in xs],
                                    (name, sched.horizon))

    def test_result_is_an_immutable_tuple(self):
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        res = evaluate_bound(sched, 1.4)
        assert res == tuple(res)
        assert res._fields == ("order", "log_raw")
        # a third field would take the next allocation block; x and c are the caller's
        assert sys.getsizeof(res) == sys.getsizeof((0, 0.0))
        for name in ("order", "log_raw", "survival_lower", "ruin_raw", "ruin_upper", "vacuous",
                     "below_consumption"):
            with pytest.raises(AttributeError):
                setattr(res, name, 3)

    @pytest.mark.parametrize("name", list(SPECS))
    def test_kept_result_holds_at_most_one_new_float(self, name):
        """A kept result refers to its ``order`` and its ``log_raw`` only: the linear
        bounds are derived on read, and ``x`` and ``c`` are not kept."""
        spec = self.SPECS[name]
        scheds = [schedule(finite_moments(spec, 60, 8), 1.0, horizon=8),
                  schedule(infinite_moments(spec, 61), 1.0)]
        u = np.random.default_rng(29).uniform(-2.0, 3.0, 200)
        xs = (1.0 + 10.0 ** u).tolist() + [0.5, 1.0, math.inf]
        kept = [evaluate_bound(sched, x) for sched in scheds for x in xs]
        assert any(not res.vacuous for res in kept)
        for res in kept:
            referents = [o for o in gc.get_referents(res) if o is not BoundResult]
            assert sorted(map(id, referents)) == sorted(map(id, res)), res
            assert type(res.log_raw) is float, res

    def test_raw_bound_is_infinite_from_the_cutoff(self):
        """``ruin_raw`` is finite just below ``log_raw = 700`` and ``+inf`` from it on."""
        assert ruinbounds.bounds._LOG_RAW_CUTOFF == 700.0
        # order 1 everywhere, log beta_1 = 690: log_raw = 690 - log(x - 1)
        sched = BoundSchedule(spec=Constant(2.0), c=1.0, horizon=math.inf,
                              log_beta_values=(0.0, 690.0), boundaries=(), max_order=1)
        below, above = (evaluate_bound(sched, 1.0 + math.exp(-10.0) * (1.0 + d))
                        for d in (1e-9, -1e-9))
        for res, log_raw in ((below, 700.0 - 1e-9), (above, 700.0 + 1e-9)):
            assert res.log_raw == pytest.approx(log_raw, abs=1e-11)
            assert res.vacuous and res.order == 1 and not res.below_consumption
            assert res.survival_lower == 0.0 and res.ruin_upper == 1.0
        assert 1.0e304 < below.ruin_raw < 1.02e304
        assert above.ruin_raw == math.inf

    @pytest.mark.parametrize("x", [0.5, 1.01, 1.4, 50.0, math.inf],
                             ids=["below_c", "vacuous", "order_1", "order_2", "inf"])
    def test_result_behaves_as_a_bound_result(self, x):
        """Built by ``tuple.__new__``, the result still has every ``NamedTuple`` behaviour."""
        sched = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
        res = evaluate_bound(sched, x)
        assert type(res) is BoundResult
        assert res == BoundResult(*res)
        for other in (res._replace(), copy.copy(res), pickle.loads(pickle.dumps(res))):
            assert type(other) is BoundResult and other == res
        assert res._replace(order=9) == (9, *res[1:])
        assert res._asdict() == dict(zip(res._fields, res))

    # Largest error in ulp of the 50-digit value (survival_lower: in ulp of
    # the larger of it and ruin_raw, since 1 - ruin_raw loses relative
    # accuracy as ruin_raw nears 1), as measured:
    #   spec              edges  ruin_raw  survival_lower
    #   trio_lognormal       27       883             4
    #   trio_pareto           1      1090            12
    #   trio_gamma          388       753             5
    #   heavy_pareto          1       708             6.7
    #   heavy_lognormal     203      1017             6.7
    #   constant              1       788           117.5
    # An edge inherits the rounding of log beta_{r+1} - log beta_r, and
    # ruin_raw that of log_raw itself: near |log_raw| = 700 one ulp of it is
    # 512 ulp of ruin_raw.  The bounds asserted (1024, 4096 and 512 ulp) are
    # 2.6 to 4.4 times the worst measured.
    @pytest.mark.parametrize("name", list(SPECS))
    def test_log_path_within_stated_ulp_of_mpmath(self, name):
        spec = self.SPECS[name]
        grid = finite_moments(spec, 60, 200)
        table = infinite_moments(spec, 61)
        worst = {"edges": 0.0, "ruin_raw": 0.0, "survival_lower": 0.0}
        for c in (1.0, 2.5):
            schedules = [schedule(grid, c, horizon=n) for n in (1, 2, 4, 8, 16, 32, 64, 128, 200)]
            schedules.append(schedule(table, c))
            for sched in schedules:
                log_beta = sched.log_beta_values
                for r, edge in enumerate(sched.boundaries, start=1):
                    want = mp_switch_boundary(log_beta, r, c)
                    if want == math.inf:
                        assert edge == math.inf, (sched.horizon, r)
                        continue
                    worst["edges"] = max(worst["edges"], abs(edge - want) / math.ulp(want))
                xs = self._stocks(sched) + np.geomspace(1.001 * c, 1e3 * c, 64).tolist()
                for x in xs:
                    if not c < x < math.inf:
                        continue
                    res = evaluate_bound(sched, x)
                    raw, survival = mp_bound_log_path(log_beta[res.order], res.order, x, c)
                    if res.ruin_raw < math.inf:
                        worst["ruin_raw"] = max(worst["ruin_raw"],
                                                abs(res.ruin_raw - raw) / math.ulp(raw))
                    if not res.vacuous:
                        worst["survival_lower"] = max(
                            worst["survival_lower"],
                            abs(res.survival_lower - survival) / math.ulp(max(survival, raw)))
        assert worst["edges"] <= 1024, worst
        assert worst["ruin_raw"] <= 4096, worst
        assert worst["survival_lower"] <= 512, worst


class TestOptimalOrder:
    def test_selection_is_argmin(self, matched_trio):
        for spec in matched_trio.values():
            table = infinite_moments(spec, 6)
            sched = schedule(table, 1.0)
            betas = [table.beta(r) for r in range(0, sched.max_order + 1)]
            for x in np.linspace(1.05, 60.0, 90):
                res = evaluate_bound(sched, float(x))
                want_r, want_val = brute_force_best_order(betas, float(x), 1.0)
                assert res.order == want_r, (spec, x)
                if want_val < 1.0:
                    assert res.ruin_raw == pytest.approx(want_val, rel=1e-10)

    def test_selection_is_argmin_finite_horizon(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 8, 10)
            sched = schedule(grid, 1.0, horizon=10)
            betas = [grid.beta(r, 10) for r in range(0, sched.max_order + 1)]
            for x in np.linspace(1.1, 30.0, 60):
                res = evaluate_bound(sched, float(x))
                want_r, _ = brute_force_best_order(betas, float(x), 1.0)
                assert res.order == want_r


class TestMonotonicityAndOrdering:
    def test_survival_bound_nondecreasing_in_x(self, matched_trio):
        for spec in matched_trio.values():
            sched = schedule(infinite_moments(spec, 6), 1.0)
            xs = np.linspace(1.0001, 80.0, 400)
            vals = [survival_lower_bound(sched, float(x)) for x in xs]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_finite_horizon_bound_dominates_series_bound(self, matched_trio):
        for spec in matched_trio.values():
            grid = finite_moments(spec, 6, 20)
            series = schedule(infinite_moments(spec, 6), 1.0)
            for n in (3, 5, 10, 20):
                fin = schedule(grid, 1.0, horizon=n)
                for x in np.linspace(1.2, 40.0, 50):
                    assert (survival_lower_bound(fin, float(x))
                            >= survival_lower_bound(series, float(x)) - 1e-12)


class TestBoundaryTable:
    def test_published_extreme_entries(self, matched_trio):
        horizons = [3, 5, 10, 20, math.inf]
        bt_ln = np.asarray(boundary_table(matched_trio["lognormal"], 1.0, horizons, 6).values)
        assert bt_ln[4, 4] == pytest.approx(52.1729, rel=1e-3)
        bt_ga = np.asarray(boundary_table(matched_trio["gamma"], 1.0, horizons, 6).values)
        assert bt_ga[4, 4] == pytest.approx(256.6073, rel=1e-3)
        assert bt_ga[0, 0] == pytest.approx(3.3137, rel=1e-3)

    def test_matched_first_row_is_family_independent(self, matched_trio):
        rows = []
        for spec in matched_trio.values():
            bt = boundary_table(spec, 1.0, [3, 5, 10, 20, math.inf], 6)
            rows.append(bt.values[0])
        assert np.allclose(rows[0], rows[1], rtol=1e-9)
        assert np.allclose(rows[0], rows[2], rtol=1e-9)

    def test_constant_rows(self):
        values = np.asarray(boundary_table(Constant(2.0), 1.0, [3, 8], 4).values)
        for col, n in enumerate((3, 8)):
            want = 1.0 + (1.0 - 2.0 ** -n)
            assert values[:, col] == pytest.approx(want, rel=1e-12)

    def test_rows_of_python_floats_one_per_order(self):
        bt = boundary_table(LOGNORMAL_HEAVY, 1.0, [3, math.inf], 6)
        assert len(bt.values) == len(bt.orders) == 5
        assert all(type(v) is float and len(row) == 2 for row in bt.values for v in row)
        # with no horizon, one empty row per order still
        empty = boundary_table(LOGNORMAL_HEAVY, 1.0, [], 6)
        assert empty.values == ((),) * 5 and np.asarray(empty.values).shape == (5, 0)

    def test_unplaceable_rows_are_infinite(self):
        values = np.asarray(boundary_table(LOGNORMAL_HEAVY, 1.0, [math.inf], 6).values)
        assert values[0, 0] == pytest.approx(1.6808, abs=5e-4)
        assert values[1, 0] == pytest.approx(6.0288, abs=5e-4)
        assert math.isinf(values[2, 0])
        assert math.isinf(values[4, 0])

    @pytest.mark.parametrize("horizons", [[0], [-1], [2.5], [3, 0], [3, -1], [3, 2.5],
                                          [3, math.nan], ["3"], ["inf"], [True], [3, True]],
                             ids=lambda hs: ",".join(map(str, hs)))
    def test_rejects_non_integer_or_nonpositive_horizon(self, horizons):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            boundary_table(Constant(2.0), 1.0, horizons, 4)

    @pytest.mark.parametrize("bad", [2.5, True, math.nan, -math.inf, 0, "inf"], ids=repr)
    @pytest.mark.parametrize("build", [schedules, boundary_table])
    def test_names_the_horizon_rule_before_any_moment(self, monkeypatch, build, bad):
        def refuse(*args):
            raise AssertionError("moments computed before the horizons were checked")

        monkeypatch.setattr(ruinbounds.bounds, "finite_moments", refuse)
        monkeypatch.setattr(ruinbounds.bounds, "infinite_moments", refuse)
        rule = f"horizon must be an integer >= 1 or math.inf, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(rule)):
            build(Constant(2.0), 1.0, [3, math.inf, bad], 4)


class TestLogMomentsPastTheFloatRange:
    """Specs whose log moments leave the float range, below or above."""

    def test_moments_of_zero(self):
        # log beta_r is -inf from order 3 on: a ratio of two moments of 0 counts as 0,
        # as it does below a finite log_beta[r], so each edge is c
        sched = schedule(infinite_moments(Lognormal(5.992310449541053e307, 1.0), 4), 1.0)
        assert list(sched.log_beta_values[3:]) == [-math.inf, -math.inf]
        assert list(sched.boundaries) == [1.0, 1.0, 1.0]

    def test_ratio_past_the_float_range(self):
        # log beta_2 - log beta_1 = 799 is a float, but beta_2 / beta_1 is not
        switch_boundary = ruinbounds.bounds.switch_boundary
        assert switch_boundary((0.0, 1.0, 800.0), 1, 1.0) == math.inf
        assert switch_boundary((0.0, 1.0, 700.0), 1, 2.0) == 2.0 * (1.0 + math.exp(699.0))

    def test_infinite_moments_give_an_infinite_edge(self):
        # log_beta[r + 1] - log_beta[r] would be inf - inf, a NaN, without the infinite branch
        switch_boundary = ruinbounds.bounds.switch_boundary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (0.5, 1.0, 2.0):
                assert switch_boundary((0.0, math.inf, math.inf), 1, c) == math.inf

    def test_gap_past_the_float_range(self):
        # -log gamma_1 = mu - sigma2/2 is an exact rational above DBL_MAX: 1 - gamma_1 is 1
        table = infinite_moments(Lognormal(8.98846567431158e307, 1.1235584101968108e307), 4)
        assert not np.isnan(table.log_beta_values).any()


class TestLongHorizonOverflow:
    """Order-60 columns at long horizons, where beta_{r+1}/beta_r overflows a double."""

    HORIZONS = (200, 1000)

    @pytest.fixture(scope="class")
    def grids(self, matched_trio):
        return {name: finite_moments(matched_trio[name], 60, max(self.HORIZONS))
                for name in ("lognormal", "gamma")}

    def test_overflowing_edges_are_infinite(self, grids):
        for grid in grids.values():
            for n in self.HORIZONS:
                sched = schedule(grid, 1.0, horizon=n)
                edges = np.asarray(sched.boundaries)
                assert np.isinf(edges[-1])
                assert np.all(np.diff(edges[np.isfinite(edges)]) > 0)

    def test_order_is_log_domain_argmin(self, grids):
        for grid in grids.values():
            for n in self.HORIZONS:
                sched = schedule(grid, 1.0, horizon=n)
                orders = np.arange(1, sched.max_order + 1)
                log_beta = sched.log_beta_values[1:sched.max_order + 1]
                for x in 1.0 + 10.0 ** np.linspace(-3.0, 6.0, 400):
                    objective = log_beta - orders * math.log(x - 1.0)
                    assert sched.order_for(float(x)) == int(np.argmin(objective)) + 1

    def test_boundary_table_matches_schedules(self, matched_trio, grids):
        for name, grid in grids.items():
            bt = boundary_table(matched_trio[name], 1.0, list(self.HORIZONS), 60)
            values = np.asarray(bt.values)
            for col, n in enumerate(self.HORIZONS):
                sched = schedule(grid, 1.0, horizon=n)
                assert np.array_equal(values[:sched.max_order, col], sched.boundaries)
                assert np.all(np.isinf(values[sched.max_order:, col]))
            for n, got in zip(self.HORIZONS, schedules(matched_trio[name], 1.0,
                                                       list(self.HORIZONS), 60)):
                want = schedule(grid, 1.0, horizon=n)
                assert np.array_equal(got.boundaries, want.boundaries)
                assert got.max_order == want.max_order


class TestValidityAgainstSimulation:
    def test_bound_never_exceeds_ecdf_beyond_noise(self):
        spec = Pareto(3.0, 0.9)
        n = 10
        replicates = 1500
        est = sample_Z(spec, SimConfig(replicates=replicates, truncation=n, seed=5))
        sched = schedule(finite_moments(spec, 6, n), 1.0, horizon=n)
        slack = 3.0 * math.sqrt(0.25 / replicates)
        for x in np.linspace(1.1, 15.0, 40):
            assert (ecdf_survival(est, float(x))
                    >= survival_lower_bound(sched, float(x)) - slack)
