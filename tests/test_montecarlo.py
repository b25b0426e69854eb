import numpy as np
import pytest

from conftest import traced_peak
from oracles import numpy_ruin_period, series_adaptive
from ruinbounds import montecarlo as mc
from ruinbounds import (
    Constant,
    DomainError,
    Gamma,
    Lognormal,
    Pareto,
    SimConfig,
    crosscheck_equivalence,
    deterministic_horizon,
    ecdf_survival,
    replicate_stream,
    sample_Z,
    simulate_path,
)
from ruinbounds.montecarlo import ADAPTIVE_FLOOR, GENERATOR_NAME, derive_seed
from ruinbounds.reference import (
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    LOGNORMAL_HEAVY,
    MATCHED_TRIO,
    PARETO_HEAVY,
)
from ruinbounds.shocks import ShockSpec

# One spec per family, each with E[log shock] > 0 so adaptive mode applies.
FAMILIES = [
    Lognormal(0.2146, 0.0645),
    Pareto(3.0, 0.9),
    Gamma(17.0, 13.333333333333334),
    Constant(1.5),
]


def _loop_fixed(spec, seed, n, replicates):
    """Reference: one fresh stream per replicate, partial sum of n terms."""
    out = np.array([np.cumprod(spec.sample_inverse(replicate_stream(seed, i), n)).sum()
                    for i in range(replicates)])
    out.sort()
    return out


def _loop_adaptive(spec, seed, replicates, tol=1e-9):
    """Reference: one fresh stream per replicate, adaptive truncation."""
    out = np.array([series_adaptive(spec, replicate_stream(seed, i), tol)
                    for i in range(replicates)])
    out.sort()
    return out


class TestStreams:
    def test_replicate_streams_are_order_insensitive(self):
        direct = replicate_stream(9, 5).random(8)
        again = replicate_stream(9, 5).random(8)
        assert np.array_equal(direct, again)
        # drawing from other replicates first changes nothing
        replicate_stream(9, 0).random(100)
        assert np.array_equal(replicate_stream(9, 5).random(8), direct)

    def test_distinct_replicates_differ(self):
        a = replicate_stream(9, 0).random(8)
        b = replicate_stream(9, 1).random(8)
        assert not np.array_equal(a, b)


class TestPhiloxKeys:
    """Bulk key derivation against numpy's own SeedSequence."""

    @pytest.mark.parametrize("seed", [
        0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
        derive_seed(DEFAULT_SEED, 3), derive_seed(7, 0, 2),
        # 3, 4, 5 and 5 words: the seed's hash steps stop being 16 past 4 words
        2 ** 64, 2 ** 96 + 5, 2 ** 128 - 1, 2 ** 128,
    ])
    def test_equals_seed_sequence(self, seed):
        count = 300
        keys = mc._philox_keys(seed, count)
        assert keys.dtype == np.uint64 and keys.shape == (count, 2)
        for i in (0, 1, 255, count - 1):
            want = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[i], want), i

    def test_seed_longer_than_pool(self):
        # more than four 32-bit seed words: the extra words mix in like the index
        seed = 2 ** 130 + 12345
        keys = mc._philox_keys(seed, 3)
        for i in range(3):
            want = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[i], want)

    @pytest.mark.parametrize("start, count", [(1, 4), (1021, 7), (123_456_789, 3),
                                              (2 ** 32 - 5, 5)])
    def test_from_a_start_index(self, start, count):
        for seed in (0, 2 ** 64 - 1, 2 ** 130 + 12345):
            keys = mc._philox_keys(seed, count, start)
            assert keys.shape == (count, 2)
            for i, key in enumerate(keys):
                want = np.random.SeedSequence(seed, spawn_key=(start + i,)).generate_state(
                    2, np.uint64)
                assert np.array_equal(key, want), (seed, start + i)

    def test_no_overflow_signal(self):
        # the hash wraps on uint32 arrays; a scalar or float path would raise here
        with np.errstate(all="raise"):
            keys = mc._philox_keys(2 ** 64 - 1, 1000)
        want = np.random.SeedSequence(2 ** 64 - 1, spawn_key=(999,)).generate_state(2, np.uint64)
        assert np.array_equal(keys[-1], want)


class _Recorder(ShockSpec):
    """A fake family: ``_draw`` records each row's generator state, then draws from it.

    The draws of row i (odd counts and a 32-bit draw, which leave half-used
    buffers behind) are those of ``_recorded_draws(rng, i)``.
    """

    family = "recorder"

    def __init__(self):
        self.states, self.draws = [], []

    def _draw(self, rng, out):
        self.states.append(rng.bit_generator.state)
        self.draws.append(_recorded_draws(rng, len(self.draws)))
        return out

    def _transform(self, values):
        return values


def _recorded_draws(rng, i):
    return (rng.random(2 * i + 1),
            rng.integers(0, 2 ** 32, size=1, dtype=np.uint32),
            rng.standard_normal(i + 1))


class TestReusedGenerator:
    """``_row_blocks`` re-keys one generator per row; each row sees a fresh stream."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # keys three at a time and rows of width 2 two at a time, so key
        # blocks and row blocks cross
        monkeypatch.setattr(mc, "_KEY_BLOCK", 3)
        monkeypatch.setattr(mc, "_ROW_BLOCK_DOUBLES", 4)

    @staticmethod
    def run(seed, count):
        spec = _Recorder()
        for _ in mc._row_blocks(spec, seed, count, 2):
            pass
        assert len(spec.states) == len(spec.draws) == count
        return spec

    def test_state_equals_fresh_stream(self):
        for i, got in enumerate(self.run(11, 7).states):
            want = replicate_stream(11, i).bit_generator.state
            assert np.array_equal(got["state"]["key"], want["state"]["key"])
            assert np.array_equal(got["state"]["counter"], want["state"]["counter"])
            assert np.array_equal(got["buffer"], want["buffer"])
            assert (got["buffer_pos"], got["has_uint32"], got["uinteger"]) == (
                want["buffer_pos"], want["has_uint32"], want["uinteger"])

    def test_rekey_leaves_no_buffered_word(self):
        # every row after one that left a half-used buffer still starts clean
        for i, got in enumerate(self.run(5, 8).draws):
            want = _recorded_draws(replicate_stream(5, i), i)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), i


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig()
        assert config.replicates == DEFAULT_REPLICATES == 3000
        assert config.adaptive

    @pytest.mark.parametrize("kwargs", [
        {"replicates": 0},
        {"truncation": 0},
        {"truncation": "sometimes"},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": 2.0},
        {"seed": "7"},
        {"replicates": 2.5},
        {"truncation": 2.5},
        {"truncation": 3.0},
        {"replicates": True},
        {"truncation": True},
        {"seed": False},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        config = SimConfig(replicates=np.int64(8), truncation=np.int32(5),
                           seed=np.uint64(2 ** 64 - 1))
        est = sample_Z(Pareto(3.0, 0.9), config)
        assert est.samples.tobytes() == _loop_fixed(Pareto(3.0, 0.9), 2 ** 64 - 1, 5, 8).tobytes()


class TestSampleZ:
    def test_deterministic_given_seed(self):
        spec = Lognormal(0.2146, 0.0645)
        config = SimConfig(replicates=64, truncation=12, seed=3)
        a = sample_Z(spec, config)
        b = sample_Z(spec, config)
        assert np.array_equal(a.samples, b.samples)
        c = sample_Z(spec, SimConfig(replicates=64, truncation=12, seed=4))
        assert not np.array_equal(a.samples, c.samples)

    def test_constant_partial_sum_exact(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=16, truncation=10, seed=0))
        want = sum(2.0 ** -k for k in range(1, 11))
        assert np.all(est.samples == want)
        assert est.n == 10

    def test_samples_sorted(self):
        est = sample_Z(Pareto(3.0, 0.9), SimConfig(replicates=200, truncation=5, seed=1))
        assert np.all(np.diff(est.samples) >= 0)

    def test_adaptive_requires_growth(self):
        with pytest.raises(DomainError):
            sample_Z(Lognormal(-0.1, 0.04), SimConfig(replicates=4, seed=0))

    def test_adaptive_stops_at_floor_for_fast_decay(self):
        # with mean log 3.17 the tail is negligible past a handful of terms,
        # so adaptive truncation stops exactly at the floor
        spec = Lognormal(3.17, 1.75)
        adaptive = sample_Z(spec, SimConfig(replicates=32, truncation="adaptive", seed=6))
        fixed = sample_Z(spec, SimConfig(replicates=32, truncation=ADAPTIVE_FLOOR, seed=6))
        assert adaptive.n is None
        np.testing.assert_allclose(adaptive.samples, fixed.samples, rtol=1e-12)

    def test_adaptive_constant_series(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=4, seed=0))
        assert est.samples == pytest.approx(1.0, rel=1e-12)

    def test_adaptive_slow_constant_series(self):
        # about 2 500 terms, so the series runs through many 128-term blocks
        est = sample_Z(Constant(1.01), SimConfig(replicates=2, seed=0))
        assert est.samples == pytest.approx(100.0, abs=1e-4)

    def test_adaptive_term_cap(self):
        # the tail still exceeds tol times the sum after the last allowed term
        with pytest.raises(DomainError, match="did not converge"):
            sample_Z(Constant(1 + 1e-7), SimConfig(replicates=1, seed=0))

    def test_adaptive_term_cap_fails_after_one_row(self, monkeypatch):
        # all 64 rows of the first block run past their first 128 terms; the
        # first runs on alone and reaches the cap before any other row runs on
        monkeypatch.setattr(mc, "_MAX_TERMS", 4 * mc._BLOCK)
        stream = mc.replicate_stream
        continued = []

        def counting(seed, index):
            continued.append(index)
            return stream(seed, index)

        monkeypatch.setattr(mc, "replicate_stream", counting)
        with pytest.raises(DomainError, match="within 512 terms"):
            sample_Z(Constant(1 + 1e-7), SimConfig(replicates=64, seed=0))
        assert continued == [0]

    def test_adaptive_zero_sum_stops(self):
        # a reciprocal draw that underflows to 0.0 makes every later term 0:
        # 22 of these 50 replicates start with one, and their series is 0 exactly
        est = sample_Z(Pareto(0.001, 0.9), SimConfig(replicates=50, seed=1))
        assert np.count_nonzero(est.samples == 0.0) == 22
        assert np.all(est.samples[22:] > 0.0)

    def test_metadata_records_generator(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=4, truncation=7, seed=5))
        meta = est.metadata()
        assert meta["generator"] == GENERATOR_NAME
        assert meta["family"] == "constant"
        assert meta["truncation"] == "7"
        assert meta["seed"] == 5

    def test_truncation_consistency_adaptive_vs_deep_fixed(self):
        spec = Lognormal(3.17, 1.75)
        adaptive = sample_Z(spec, SimConfig(replicates=3000, truncation="adaptive", seed=21))
        fixed = sample_Z(spec, SimConfig(replicates=3000, truncation=500, seed=21))
        for x in (1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2):
            assert abs(ecdf_survival(adaptive, x) - ecdf_survival(fixed, x)) <= 0.01


class TestBitIdentity:
    """Bulk-keyed sampling equals the per-replicate reference loop byte for byte."""

    # 70 replicates: several row blocks at n = 127..400, a partial one below
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 400])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
    def test_fixed_truncation(self, spec, n):
        est = sample_Z(spec, SimConfig(replicates=70, truncation=n, seed=23))
        assert est.samples.tobytes() == _loop_fixed(spec, 23, n, 70).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_small_row_blocks(self, monkeypatch, n):
        # a 24-double block: many blocks, a ragged last one, and rows wider than it
        monkeypatch.setattr(mc, "_ROW_BLOCK_DOUBLES", 24)
        spec = Lognormal(0.2146, 0.0645)
        est = sample_Z(spec, SimConfig(replicates=29, truncation=n, seed=4))
        assert est.samples.tobytes() == _loop_fixed(spec, 4, n, 29).tobytes()

    def test_rows_wider_than_block(self):
        spec = Pareto(3.0, 0.9)
        n = mc._ROW_BLOCK_DOUBLES + 1
        est = sample_Z(spec, SimConfig(replicates=3, truncation=n, seed=8))
        assert est.samples.tobytes() == _loop_fixed(spec, 8, n, 3).tobytes()

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
    def test_adaptive(self, spec):
        est = sample_Z(spec, SimConfig(replicates=70, seed=23))
        assert est.samples.tobytes() == _loop_adaptive(spec, 23, 70).tobytes()

    def test_adaptive_past_first_block(self):
        # mean log 0.01: every replicate needs thousands of terms
        spec = Lognormal(0.01, 0.01)
        est = sample_Z(spec, SimConfig(replicates=20, seed=23))
        assert est.samples.tobytes() == _loop_adaptive(spec, 23, 20).tobytes()

    def test_adaptive_rows_past_first_block_in_ragged_blocks(self, monkeypatch):
        # three rows per block and 29 replicates: the last block is ragged, and
        # with mean log 0.15 some rows stop inside their first 128 terms while
        # others go on, each on its own stream
        monkeypatch.setattr(mc, "_ROW_BLOCK_DOUBLES", 3 * mc._BLOCK + 5)
        spec = Lognormal(0.15, 0.09)
        want = _loop_adaptive(spec, 5, 29)
        stream = mc.replicate_stream
        continued = []

        def counting(seed, index):
            continued.append(index)
            return stream(seed, index)

        monkeypatch.setattr(mc, "replicate_stream", counting)
        est = sample_Z(spec, SimConfig(replicates=29, seed=5))
        assert 0 < len(continued) < 29
        assert len(set(continued)) == len(continued)
        assert est.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [
        PARETO_HEAVY, LOGNORMAL_HEAVY, *MATCHED_TRIO.values(),
        Lognormal(0.01, 0.01), Constant(1.01),
    ], ids=lambda s: repr(s)[:24])
    def test_adaptive_equals_scalar_reference(self, spec):
        est = sample_Z(spec, SimConfig(replicates=200, seed=5))
        assert est.samples.tobytes() == _loop_adaptive(spec, 5, 200).tobytes()

    def test_row_accumulations_equal_one_dimensional_calls(self):
        # the adaptive rows accumulate along axis 1 of a block; each row must
        # carry the bits of the 1-D cumprod and cumsum that the reference makes
        rng = np.random.default_rng(3)
        block = np.exp(rng.normal(-0.2, 0.3, size=(37, 128)))
        products = np.cumprod(block, axis=1)
        sums = np.cumsum(products, axis=1)
        for row, product, total in zip(block, products, sums):
            assert np.cumprod(row).tobytes() == product.tobytes()
            assert np.cumsum(product).tobytes() == total.tobytes()
        # rows that run on carry their last term and sum as columns
        lead, carried = products[:, -1:], sums[:, -1:]
        on = np.cumprod(block, axis=1)
        on *= lead
        on_sums = np.cumsum(on, axis=1) + carried
        for row, head, total, product, running in zip(block, lead, carried, on, on_sums):
            one = float(head[0]) * np.cumprod(row)
            assert one.tobytes() == product.tobytes()
            assert (float(total[0]) + np.cumsum(one)).tobytes() == running.tobytes()

    def test_crosscheck_draws_equal_replicate_streams(self, monkeypatch):
        # crosscheck_equivalence draws through the row blocks sample_Z uses;
        # keep what each block drew and compare it row by row with the reference streams
        row_blocks = mc._row_blocks
        drawn = []

        def recording(*args):
            for start, rows in row_blocks(*args):
                drawn.append((start, rows.copy()))
                yield start, rows

        monkeypatch.setattr(mc, "_row_blocks", recording)
        # five rows a block: several blocks and a ragged last one; keys three at a time
        monkeypatch.setattr(mc, "_ROW_BLOCK_DOUBLES", 5 * 11 + 3)
        monkeypatch.setattr(mc, "_KEY_BLOCK", 3)
        spec = Lognormal(0.2146, 0.0645)
        paths, horizon = 37, 11
        report = crosscheck_equivalence(spec, 7.5, 1.0, horizon, paths, seed=19)
        assert report.paths == paths and report.passed
        assert [start for start, _ in drawn] == list(range(0, paths, 5))
        rows = np.concatenate([block for _, block in drawn])
        assert rows.shape == (paths, horizon)
        for i, got in enumerate(rows):
            want = spec.sample_inverse(replicate_stream(19, i), horizon)
            assert got.tobytes() == want.tobytes(), i

    def test_one_partial_sum_for_samples_and_crosscheck(self, monkeypatch):
        # doubling the shared row sum must move both callers; a private copy
        # of the sum in either would leave it unmoved
        spec = Lognormal(0.2146, 0.0645)
        config = SimConfig(replicates=50, truncation=10, seed=17)
        want = sample_Z(spec, config).samples
        assert crosscheck_equivalence(spec, 7.5, 1.0, 10, 2000, seed=17).passed
        row_partial_sums = mc._row_partial_sums

        def doubled(rows, out):
            row_partial_sums(rows, out)
            out *= 2.0

        monkeypatch.setattr(mc, "_row_partial_sums", doubled)
        assert sample_Z(spec, config).samples.tobytes() == (2.0 * want).tobytes()
        report = crosscheck_equivalence(spec, 7.5, 1.0, 10, 2000, seed=17)
        assert not report.passed
        # the reported draws are the raw draws, not the products summed in place
        for i, draws in zip(report.discrepancy_indices, report.discrepancy_draws):
            want = spec.sample_inverse(replicate_stream(17, i), 10)
            assert np.array(draws).tobytes() == want.tobytes()


class TestFastPath:
    """The sampling loops must not build a SeedSequence per replicate.

    They take the seed's pool from one ``SeedSequence(seed)``, without a
    spawn key, per block of ``_KEY_BLOCK`` keys.
    """

    @pytest.fixture
    def seed_sequences(self, monkeypatch):
        original = np.random.SeedSequence
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        replicate_stream(0, 0)
        assert calls == [{"entropy": 0, "spawn_key": (0,)}]  # the counter sees the reference
        calls.clear()
        return calls

    @staticmethod
    def assert_per_key_block(calls, count):
        assert all("spawn_key" not in kwargs for kwargs in calls)
        assert len(calls) <= -(-count // mc._KEY_BLOCK)
        calls.clear()

    def test_sample_z(self, seed_sequences):
        spec = Lognormal(3.17, 1.75)
        sample_Z(spec, SimConfig(replicates=5000, truncation=20, seed=1))
        self.assert_per_key_block(seed_sequences, 5000)
        sample_Z(spec, SimConfig(replicates=5000, seed=1))
        self.assert_per_key_block(seed_sequences, 5000)

    def test_crosscheck(self, seed_sequences):
        crosscheck_equivalence(Pareto(3.0, 0.9), 3.5, 1.0, 20, 1000, seed=2)
        self.assert_per_key_block(seed_sequences, 1000)


class TestEcdf:
    def test_below_consumption_is_zero(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=8, truncation=10, seed=0))
        assert ecdf_survival(est, 1.0, 1.0) == 0.0
        assert ecdf_survival(est, 0.5, 1.0) == 0.0

    def test_constant_all_below(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=8, truncation=10, seed=0))
        assert ecdf_survival(est, 2.01, 1.0) == 1.0

    def test_counting_is_strict(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=8, truncation=10, seed=0))
        threshold_x = 1.0 + float(est.samples[0])  # x/c - 1 equals every sample
        assert ecdf_survival(est, threshold_x, 1.0) == 0.0

    def test_consumption_rescaling(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=8, truncation=10, seed=0))
        assert ecdf_survival(est, 4.02, 2.0) == 1.0

    def test_published_survival_value(self):
        est = sample_Z(Lognormal(3.17, 1.75), SimConfig(replicates=3000, seed=13))
        assert ecdf_survival(est, 1.4, 1.0) == pytest.approx(0.9513, abs=0.03)
        assert ecdf_survival(est, 2.2, 1.0) == pytest.approx(0.9920, abs=0.03)

    def test_rejects_nonpositive_arguments(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=8, truncation=5, seed=0))
        with pytest.raises(ValueError):
            ecdf_survival(est, -1.0, 1.0)
        with pytest.raises(ValueError):
            ecdf_survival(est, 1.0, 0.0)

    def test_rejects_nan_stock(self):
        est = sample_Z(Constant(2.0), SimConfig(replicates=8, truncation=5, seed=0))
        with pytest.raises(ValueError, match="x must not be NaN"):
            ecdf_survival(est, float("nan"), 1.0)


class TestSimulatePath:
    def test_constant_growth_survives(self):
        assert simulate_path(Constant(2.0), 3.0, 1.0, 10_000, replicate_stream(0, 0)) is None

    def test_constant_matches_deterministic_ruin_index(self):
        want = deterministic_horizon(1.5, 2.9, 1.0)
        got = simulate_path(Constant(1.5), 2.9, 1.0, 10_000, replicate_stream(0, 0))
        assert got == want == 8

    def test_nan_wealth_is_domain_error(self):
        # gamma draw 0 times 1/theta = +inf: stream 4 starts with a NaN reciprocal shock
        with pytest.raises(DomainError, match="0 times \\+inf"):
            simulate_path(Gamma(1e-3, 5e-324), 3.0, 1.0, 5, replicate_stream(0, 4))

    def test_no_surplus_is_immediate_ruin(self):
        assert simulate_path(Constant(2.0), 1.0, 1.0, 10, replicate_stream(0, 0)) == 0

    def test_published_survival_fraction(self):
        # 20-period survival fraction at x = 3.5 for the matched lognormal
        spec = Lognormal(0.2146, 0.0645)
        paths = 3000
        survived = sum(
            simulate_path(spec, 3.5, 1.0, 20, replicate_stream(33, i)) is None
            for i in range(paths)
        )
        assert survived / paths == pytest.approx(0.0907, abs=0.03)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_path(Constant(2.0), 0.0, 1.0, 5, replicate_stream(0, 0))
        with pytest.raises(ValueError):
            simulate_path(Constant(2.0), 2.0, 1.0, 0, replicate_stream(0, 0))
        with pytest.raises(ValueError, match="horizon must be an integer"):
            simulate_path(Constant(2.0), 3.0, 1.0, 2.5, replicate_stream(0, 0))
        with pytest.raises(ValueError, match="horizon must be an integer"):
            simulate_path(Constant(2.0), 3.0, 1.0, True, replicate_stream(0, 0))

    @pytest.mark.parametrize("horizon", [3, 5, 10, 20])
    def test_ruin_periods_equal_the_numpy_loop(self, matched_trio, horizon):
        for spec in matched_trio.values():
            got = [simulate_path(spec, 3.5, 1.0, horizon, replicate_stream(41, i))
                   for i in range(250)]
            want = [numpy_ruin_period(spec, 3.5, 1.0, horizon, replicate_stream(41, i))
                    for i in range(250)]
            assert got == want
            assert None in got and set(got) - {None}  # survival and ruin both occur

    def test_zero_reciprocal_draw_survives(self):
        # the first draw underflows to 0.0: an infinite shock, wealth infinite for good
        spec = Pareto(0.001, 0.9)
        assert spec.sample_inverse(replicate_stream(0, 0), 1)[0] == 0.0
        assert simulate_path(spec, 3.0, 1.0, 5, replicate_stream(0, 0)) is None

    def test_rejects_nan_stock(self):
        # a shrinking shock would otherwise report the NaN stock as surviving
        with pytest.raises(ValueError, match="x must not be NaN"):
            simulate_path(Constant(0.5), float("nan"), 1.0, 10, replicate_stream(0, 0))


class TestCrosscheck:
    def test_small_blocks_give_the_same_report(self, monkeypatch):
        # doubled partial sums make discrepancies in every block; the report of
        # many small blocks must equal the default one, indices ascending
        row_partial_sums = mc._row_partial_sums

        def doubled(rows, out):
            row_partial_sums(rows, out)
            out *= 2.0

        monkeypatch.setattr(mc, "_row_partial_sums", doubled)
        spec = Lognormal(0.2146, 0.0645)
        want = crosscheck_equivalence(spec, 7.5, 1.0, 10, 200, seed=17)
        assert 20 < len(want.discrepancy_indices) < 180
        monkeypatch.setattr(mc, "_ROW_BLOCK_DOUBLES", 5 * 10 + 3)
        monkeypatch.setattr(mc, "_KEY_BLOCK", 3)
        got = crosscheck_equivalence(spec, 7.5, 1.0, 10, 200, seed=17)
        assert got == want
        assert list(got.discrepancy_indices) == sorted(set(got.discrepancy_indices))
        for i, draws in zip(got.discrepancy_indices, got.discrepancy_draws):
            assert np.array(draws).tobytes() == spec.sample_inverse(
                replicate_stream(17, i), 10).tobytes()

    def test_rounding_boundary_in_every_block(self, monkeypatch):
        # the stock on the rounding boundary of the 2-term sum of Constant(1.1):
        # the wealth map and the sum disagree on every path, in every block
        monkeypatch.setattr(mc, "_ROW_BLOCK_DOUBLES", 2 * 3)
        monkeypatch.setattr(mc, "_KEY_BLOCK", 3)
        report = crosscheck_equivalence(Constant(1.1), 2.7355371900826446, 1.0, 2, 7, seed=0)
        assert report.discrepancy_indices == tuple(range(7))
        assert report.discrepancy_draws == ((1 / 1.1, 1 / 1.1),) * 7

    def test_constant_trivial_agreement(self):
        report = crosscheck_equivalence(Constant(2.0), 2.5, 1.0, 50, 200, seed=0)
        assert report.passed
        assert report.agreements == 200

    @pytest.mark.parametrize("spec, x, n", [
        (Pareto(3.0, 0.9), 3.5, 20),
        (Lognormal(0.2146, 0.0645), 7.5, 10),
    ])
    def test_event_identity_on_shared_draws(self, spec, x, n):
        report = crosscheck_equivalence(spec, x, 1.0, n, 2000, seed=17)
        assert report.passed, report.discrepancy_indices

    @pytest.mark.parametrize("spec", [Constant(1e-300), Pareto(50, 1e-300)], ids=repr)
    def test_products_past_the_float_range(self, spec):
        # the row products overflow: +inf is the right value, and no warning is raised
        est = sample_Z(spec, SimConfig(replicates=3, truncation=5, seed=0))
        assert np.all(est.samples == np.inf)
        assert crosscheck_equivalence(spec, 3.0, 1.0, 5, 10, 0).passed

    def test_infinite_shock(self):
        # stream 0 draws 0.0 first (an infinite shock): +inf wealth, as in simulate_path
        report = crosscheck_equivalence(Pareto(0.001, 0.9), 3.0, 1.0, 5, 10, 0)
        assert report.passed

    def test_zero_times_infinite_shock_is_domain_error(self):
        # draws of exp(+-1000 z) leave the float range both ways: 0 * inf has no value
        spec = Lognormal(0.0, 1e6)
        with pytest.raises(DomainError, match="0 times \\+inf"):
            crosscheck_equivalence(spec, 3.0, 1.0, 5, 10, 0)
        with pytest.raises(DomainError, match="0 times \\+inf"):
            sample_Z(spec, SimConfig(replicates=3, truncation=5, seed=0))

    def test_requires_surplus(self):
        with pytest.raises(ValueError):
            crosscheck_equivalence(Constant(2.0), 1.0, 1.0, 5, 10, seed=0)

    def test_rejects_nan_stock(self):
        with pytest.raises(ValueError, match="x must not be NaN"):
            crosscheck_equivalence(Constant(0.5), float("nan"), 1.0, 5, 3, seed=0)

    @pytest.mark.parametrize("horizon, paths, message", [
        (0, 10, "horizon must be >= 1"),
        (2.5, 10, "horizon must be an integer"),
        (5, 0, "paths must be >= 1"),
        (5, -1, "paths must be >= 1"),
        (5, 10.0, "paths must be an integer"),
        (True, 3, "horizon must be an integer"),
        (5, True, "paths must be an integer"),
    ])
    def test_rejects_bad_horizon_and_paths(self, horizon, paths, message):
        with pytest.raises(ValueError, match=message):
            crosscheck_equivalence(Constant(2.0), 3.0, 1.0, horizon, paths, seed=0)


class TestBoundedMemory:
    """Working memory is one block, not one Python object per replicate or path.

    Traced peaks at 30 000 rows of 20 terms: ``sample_Z`` 0.25 MB above its
    0.24 MB output (5.1 MB above when every key was held as a list), the
    cross-check 0.38 MB (10.1 MB with the whole draw matrix).
    """

    SPEC = Pareto(3.0, 0.9)

    def test_sample_z(self):
        sample_Z(self.SPEC, SimConfig(10, 20, 1))  # imports and caches outside the trace
        est, peak, _ = traced_peak(lambda: sample_Z(self.SPEC, SimConfig(30_000, 20, 1)))
        assert est.samples.nbytes == 240_000
        assert peak <= est.samples.nbytes + 1_000_000, peak

    def test_crosscheck(self):
        crosscheck_equivalence(self.SPEC, 3.5, 1.0, 20, 10, seed=2)
        report, peak, _ = traced_peak(
            lambda: crosscheck_equivalence(self.SPEC, 3.5, 1.0, 20, 30_000, seed=2))
        assert report.passed and report.paths == 30_000
        assert peak <= 2_000_000, peak
