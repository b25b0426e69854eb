"""Seeded Monte Carlo for the wealth process and its discounted shock series.

Every replicate draws from its own stream, derived from the master seed and
the replicate index through ``SeedSequence(entropy=seed, spawn_key=(i,))``
feeding a Philox counter-based generator.  Streams are therefore
independent, order-insensitive, and identical no matter how replicates are
scheduled: the same (seed, config, spec) always yields bit-identical sample
sets.  The generator name is recorded in output metadata.  ``derive_seed``
takes the sub-seed of a branch of a master seed, such as a CLI spec or a
table column, from ``SeedSequence`` too.  No other module calls ``SeedSequence``.

A Philox stream is nothing but its 128-bit key, which is
``SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)``.
``_row_blocks`` derives keys one block of ``_KEY_BLOCK`` replicates at a
time (``_philox_keys``): the seed's pool comes from numpy's
``SeedSequence(seed)``, and the package runs only the index word and the
output hash, over the whole block at once.  It re-keys a generator of its
own right before each row's draw, so no re-keyed generator leaves it; the
draws equal those of ``replicate_stream``, the documented reference
derivation, bit for bit.  Adaptive rows that run on past their first
``_BLOCK`` terms take a ``replicate_stream`` each.

Replicates are drawn a bounded block of rows at a time (``_row_blocks``):
each row takes one raw uniform, normal or gamma draw from its replicate's
stream, and the family transform then runs once over the block, so every
row equals ``spec.sample_inverse`` on that stream.  Fixed truncation and
``crosscheck_equivalence`` share this row draw and its partial sum, and
the cross-check runs a block at a time.  So a run needs little memory
beyond its output, whatever the number of replicates or paths.

Two sampling modes produce survival-probability estimates:

* a fixed number of terms ``n`` samples the n-term partial sum, whose
  empirical CDF estimates the probability of surviving n periods;
* adaptive truncation approximates the full series: a replicate stops at
  the first term (never before ``ADAPTIVE_FLOOR`` = 100 terms) smaller than
  ``ADAPTIVE_TOL`` = 1e-9 times the running sum, or once that sum is 0 or
  +inf, which no later term changes.  Both are fixed constants, recorded in
  the ``truncation`` metadata.  This needs a positive mean log shock,
  otherwise the series diverges; one still running after ``_MAX_TERMS``
  terms is a ``DomainError``.  The first ``_BLOCK`` terms of all
  replicates are drawn in row blocks and their stops found at once; of the
  replicates of a block that run past them, the first goes on alone and
  the others together after it, each on its own stream.

Every argument passes its rule in ``errors``, and the code computes only on
what the rule returns: a stock or level ``c`` as a Python float, a seed,
count, index or truncation as an ``int``.  So a numpy scalar argument gives
the equal Python number's samples and answers, with no numpy overflow
warning, and ``SimConfig`` stores the values its rules admit.

A draw or product of 0 times +inf has no float value; the sampling
functions raise ``DomainError`` where one would enter a result.

The empirical CDF counts strictly, matching the survival event
``{series < x/c - 1}``; ``simulate_path`` iterates the wealth map itself,
on Python floats, and ``crosscheck_equivalence`` compares path by path, on
shared draws, the two formulations of the survival event; they round
differently, so a path whose stock lies within rounding of the survival
boundary can be reported.  Its vectorised wealth map is a second copy
because a shared one is slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _DEFAULT_REPLICATES
from .errors import (DomainError, _require_consumption, _require_growth, _require_integer,
                     _require_seed, _require_stock, _require_truncation)
from .shocks import ShockSpec

__all__ = [
    "CrosscheckReport",
    "EcdfEstimate",
    "SimConfig",
    "crosscheck_equivalence",
    "ecdf_survival",
    "replicate_stream",
    "sample_Z",
    "simulate_path",
]

GENERATOR_NAME = "philox4x64"
STREAM_DERIVATION = "SeedSequence(entropy=seed, spawn_key=(replicate,))"
ADAPTIVE_FLOOR = 100
ADAPTIVE_TOL = 1e-9
_BLOCK = 128
_MAX_TERMS = 1_000_000
# A draw or product of 0 times +inf (a shock below and one above the float
# range) is NaN: no float value of the series or the wealth exists there.
_NAN_MESSAGE = "0 times +inf in a product of reciprocal shocks of {!r}; it has no float value"
# Doubles drawn per block of replicate rows (at least one row).
_ROW_BLOCK_DOUBLES = 8192
# Replicate keys derived and held at a time.
_KEY_BLOCK = 1024

# numpy's SeedSequence hash: pool size and 32-bit constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def replicate_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate, order-insensitive in ``index``."""
    seq = np.random.SeedSequence(entropy=_require_seed(seed),
                                 spawn_key=(_require_integer("index", index, 0),))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a named branch of a master seed."""
    seq = np.random.SeedSequence(entropy=_require_seed(master),
                                 spawn_key=tuple(_require_integer("index", i, 0) for i in path))
    return int(seq.generate_state(1, np.uint64)[0])


def _hash_constants(start: int, mult: int) -> tuple:
    """The constants ``(xor, mult)`` of ``_POOL_SIZE`` hash steps from ``start``, as uint32 rows."""
    consts = [start]
    for _ in range(_POOL_SIZE):
        consts.append(consts[-1] * mult & _MASK32)
    return (np.array(consts[:-1], dtype=np.uint32)[:, None],
            np.array(consts[1:], dtype=np.uint32)[:, None])


# the output hash of generate_state, the same for every key
_OUTPUT_XOR, _OUTPUT_MULT = _hash_constants(_INIT_B, _MULT_B)


def _philox_keys(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Philox keys of replicates ``start..start+count-1`` as a ``(count, 2)`` uint64 array.

    Row ``i`` equals ``SeedSequence(seed, spawn_key=(start + i,))
    .generate_state(2, np.uint64)``, the key of ``replicate_stream(seed,
    start + i)``.  Indices stay below 2**32, one 32-bit word each.

    The entropy is the seed's 32-bit words, zero-padded to the pool size,
    then the index word.  ``SeedSequence(seed).pool`` is the pool after the
    seed's words, which took ``_POOL_SIZE`` hash steps per word and at least
    ``_POOL_SIZE**2``; the index word and the output hash run here, on
    uint32 arrays with one row per pool word, so they wrap without overflow
    warnings.
    """
    steps = _POOL_SIZE * max(_POOL_SIZE, -(-seed.bit_length() // 32))
    xor, mult = _hash_constants(_INIT_A * pow(_MULT_A, steps, _MASK32 + 1) & _MASK32, _MULT_A)
    value = np.arange(start, start + count, dtype=np.uint32) ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    value *= _MIX_MULT_R
    value = np.random.SeedSequence(seed).pool[:, None] * np.uint32(_MIX_MULT_L) - value
    value ^= value >> _XSHIFT
    value ^= _OUTPUT_XOR
    value *= _OUTPUT_MULT
    value ^= value >> _XSHIFT
    return value.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: replicate count, truncation mode, seed."""

    replicates: int = _DEFAULT_REPLICATES
    truncation: int | str = "adaptive"
    seed: int = 0

    def __post_init__(self) -> None:  # stores what each rule admits; the class is frozen
        object.__setattr__(self, "replicates", _require_integer("replicates", self.replicates, 1))
        object.__setattr__(self, "seed", _require_seed(self.seed))
        object.__setattr__(self, "truncation", _require_truncation(self.truncation))

    @property
    def adaptive(self) -> bool:
        return self.truncation == "adaptive"


@dataclass(frozen=True, eq=False)
class EcdfEstimate:
    """Sorted sample set of the (truncated) series with its provenance."""

    spec: ShockSpec
    samples: np.ndarray = field(repr=False)
    seed: int
    n: int | None            # fixed horizon, or None for adaptive truncation

    @property
    def replicates(self) -> int:
        return len(self.samples)

    @property
    def horizon_tag(self) -> str:
        if self.n is not None:
            return str(self.n)
        return f"adaptive(tol={ADAPTIVE_TOL:g},floor={ADAPTIVE_FLOOR})"

    def metadata(self) -> dict:
        meta = dict(self.spec.to_record())
        meta.update(
            seed=self.seed,
            replicates=self.replicates,
            truncation=self.horizon_tag,
            generator=GENERATOR_NAME,
            stream_derivation=STREAM_DERIVATION,
        )
        return meta


def _row_blocks(spec: ShockSpec, seed: int, count: int, width: int):
    """Yield ``(start, rows)``: replicates ``start, start+1, ...`` drawn ``width`` terms each.

    One Philox generator is re-keyed in place for every row: counter, key
    and output buffer are all reset, so the row takes one raw draw from what
    is exactly ``replicate_stream(seed, start + i)``.  The family transform
    then runs once over the block; row i equals
    ``spec.sample_inverse(replicate_stream(seed, start + i), width)`` bit for
    bit.  Keys are derived ``_KEY_BLOCK`` replicates at a time.  Blocks hold
    about ``_ROW_BLOCK_DOUBLES`` doubles (at least one row) and reuse one
    buffer, so finish with a block before taking the next.
    """
    per_block = max(1, _ROW_BLOCK_DOUBLES // width)
    buffer = np.empty((min(per_block, count), width))
    bit_generator = np.random.Philox(0)  # every row overwrites this key
    rng = np.random.Generator(bit_generator)
    inner = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = (key for s in range(0, count, _KEY_BLOCK)
            for key in _philox_keys(seed, min(_KEY_BLOCK, count - s), s).tolist())
    for start in range(0, count, per_block):
        rows = buffer[: min(per_block, count - start)]
        for row, key in zip(rows, keys):
            inner["key"] = key
            bit_generator.state = state
            spec._draw(rng, row)
        spec._transform(rows)
        yield start, rows


def _row_partial_sums(rows: np.ndarray, out: np.ndarray) -> None:
    """Sum each row's cumulative products, made in place, into ``out``; rows stay independent."""
    # a product or sum past the float range is +inf, the right value; a draw
    # of 0 times one of +inf is NaN, which sample_Z reports
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(rows, axis=1, out=rows)
        rows.sum(axis=1, out=out)


def _adaptive_sums(spec: ShockSpec, seed: int, out: np.ndarray) -> None:
    """Fill ``out`` with the adaptively truncated series of each replicate.

    The first ``_BLOCK`` terms of all replicates are drawn in row blocks and
    their stops found at once; the rows of a block that do not stop there
    run on.  The first of them runs on alone and the others together after
    it, so a series that never converges fails after one row's terms.
    """
    for start, terms in _row_blocks(spec, seed, len(out), _BLOCK):
        rows = np.arange(start, start + len(terms))
        go_on, lead, total = _stop_rows(terms, 1.0, 0.0, 0, rows, out)
        if go_on.size:
            rows = rows[go_on]
            for part in (slice(0, 1), slice(1, None)):
                _run_on(spec, seed, rows[part], lead[part], total[part], out)


def _stop_rows(terms, lead, total, count: int, rows: np.ndarray, out: np.ndarray):
    """Set ``out[rows]`` from the next ``_BLOCK`` reciprocal shocks of each row.

    Row i of ``terms`` holds the reciprocal shocks ``count+1, count+2, ...``
    of replicate ``rows[i]`` and becomes its series terms: ``lead`` (its last
    term so far) times their cumulative products, summed onto ``total`` (its
    running sum).  Returns the indices of the rows that have not stopped,
    with their last term and running sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as in _row_partial_sums
        np.cumprod(terms, axis=1, out=terms)
        terms *= lead
        sums = np.cumsum(terms, axis=1)
        sums += total
    # a row stops at a term below ADAPTIVE_TOL times its sum, or once its sum
    # is 0, +inf or NaN, which no later term changes; not before term
    # count+j+1 reaches the floor
    small = (terms < ADAPTIVE_TOL * sums) | ~((0.0 < sums) & (sums < np.inf))
    small[:, : max(ADAPTIVE_FLOOR - 1 - count, 0)] = False
    stop = small.argmax(axis=1)
    index = np.arange(len(rows))
    out[rows] = sums[index, stop]
    go_on = np.flatnonzero(~small[index, stop])
    return go_on, terms[go_on, -1:], sums[go_on, -1:]


def _run_on(spec: ShockSpec, seed: int, rows: np.ndarray, lead, total, out: np.ndarray) -> None:
    """Run ``rows`` on past their first ``_BLOCK`` terms, together, each on its own stream."""
    streams = [replicate_stream(seed, i) for i in rows]
    for rng in streams:
        spec._draw(rng, np.empty(_BLOCK))  # the row pass drew these
    for count in range(_BLOCK, _MAX_TERMS, _BLOCK):
        if not rows.size:
            return
        terms = np.empty((len(rows), _BLOCK))
        for row, rng in zip(terms, streams):
            spec._draw(rng, row)
        spec._transform(terms)
        go_on, lead, total = _stop_rows(terms, lead, total, count, rows, out)
        rows, streams = rows[go_on], [streams[i] for i in go_on]
    if rows.size:
        raise DomainError(f"series did not converge within {_MAX_TERMS} terms for {spec!r}")


def sample_Z(spec: ShockSpec, config: SimConfig) -> EcdfEstimate:
    """Sample the discounted shock series ``config.replicates`` times.

    Fixed truncation samples the n-term partial sum exactly; adaptive mode
    approximates the full series and requires ``E[log shock] > 0``.
    """
    out = np.empty(config.replicates)
    if config.adaptive:
        _require_growth(spec)
        _adaptive_sums(spec, config.seed, out)
    else:
        for start, rows in _row_blocks(spec, config.seed, len(out), config.truncation):
            _row_partial_sums(rows, out[start:start + len(rows)])
    if np.isnan(out).any():
        raise DomainError(_NAN_MESSAGE.format(spec))
    out.sort()
    out.setflags(write=False)
    return EcdfEstimate(
        spec=spec,
        samples=out,
        seed=config.seed,
        n=None if config.adaptive else config.truncation,
    )


def ecdf_survival(est: EcdfEstimate, x: float, c: float = 1.0) -> float:
    """Fraction of sampled series values strictly below ``x/c - 1``."""
    c = _require_consumption(c)
    x = _require_stock(x, positive=True)
    return int(np.searchsorted(est.samples, x / c - 1.0, side="left")) / est.replicates


def simulate_path(spec: ShockSpec, x: float, c: float, horizon: int,
                  stream: np.random.Generator) -> int | None:
    """Iterate the wealth map; return the ruin period, or None if it survives.

    The wealth map multiplies the invested surplus by one shock per period,
    absorbing at zero.  Ruin time is the first period with wealth <= c
    (0 when already x <= c); None means wealth stayed above c through
    ``horizon`` periods.
    """
    c = _require_consumption(c)
    wealth = _require_stock(x, positive=True)
    horizon = _require_integer("horizon", horizon, 1)
    if wealth <= c:
        return 0
    period = 0
    # growth can overflow float range, and a zero draw (an infinite shock)
    # gives inf wealth at once: inf wealth correctly keeps surviving
    try:
        while period < horizon:
            for v in spec.sample_inverse(stream, min(_BLOCK, horizon - period)).tolist():
                wealth = max(wealth - c, 0.0) / v
                period += 1
                if not wealth > c:
                    if wealth != wealth:
                        raise DomainError(_NAN_MESSAGE.format(spec))
                    return period
    except ZeroDivisionError:
        pass
    return None


@dataclass(frozen=True)
class CrosscheckReport:
    """Path-by-path comparison of the wealth-map and series survival events."""

    spec: ShockSpec
    x: float
    c: float
    horizon: int
    paths: int
    seed: int
    discrepancy_indices: tuple
    discrepancy_draws: tuple = field(repr=False, default=())  # per index, its draws as floats

    @property
    def agreements(self) -> int:
        return self.paths - len(self.discrepancy_indices)

    @property
    def passed(self) -> bool:
        return not self.discrepancy_indices


def crosscheck_equivalence(spec: ShockSpec, x: float, c: float, horizon: int,
                           paths: int, seed: int) -> CrosscheckReport:
    """Verify {wealth > c through n periods} == {partial sum < x/c - 1} per path.

    Both indicators are computed from the same draws, but the wealth map and
    the partial sum round differently, so a path whose stock lies within
    rounding of the survival boundary can disagree; any discrepancy is
    reported with the path's draws.
    """
    c = _require_consumption(c)
    x = _require_stock(x)
    if not x > c:
        raise ValueError(f"requires x > c, got x={x}, c={c}")
    horizon = _require_integer("horizon", horizon, 1)
    paths = _require_integer("paths", paths, 1)
    seed = _require_seed(seed)
    indices, draws = [], []
    for start, rows in _row_blocks(spec, seed, paths, horizon):
        periods = rows.T.copy()  # each period's draws, kept: the partial sum overwrites rows
        partial_sum = np.empty(len(rows))
        _row_partial_sums(rows, partial_sum)  # series side
        if np.isnan(partial_sum).any():
            raise DomainError(_NAN_MESSAGE.format(spec))
        series_alive = partial_sum < x / c - 1.0  # as in ecdf_survival
        # Wealth-map side, absorbing at zero: wealth at most c (or NaN) is 0
        # or NaN from the next period on, so the last period's wealth decides.
        wealth = np.full(len(rows), x)
        # a zero draw (an infinite shock) gives +inf wealth, as in simulate_path,
        # or NaN on a path already ruined, which stays ruined
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for draw in periods:
                wealth -= c
                np.maximum(wealth, 0.0, out=wealth)
                wealth /= draw
        for i in np.flatnonzero((wealth > c) != series_alive).tolist():
            indices.append(start + i)
            draws.append(tuple(periods[:, i].tolist()))
    return CrosscheckReport(
        spec=spec, x=x, c=c, horizon=horizon, paths=paths, seed=seed,
        discrepancy_indices=tuple(indices), discrepancy_draws=tuple(draws),
    )
