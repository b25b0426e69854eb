"""Published reference tables and the builders that regenerate them.

Nine reference tables accompany this model: moment/boundary tables for a
heavy-tailed Pareto shock and its lognormal two-moment match, a survival
table comparing Chebyshev lower bounds with Monte Carlo estimates, and
boundary/bound tables for a lognormal/Pareto/gamma trio matched on the
first two reciprocal-shock moments.  The published values are embedded
here as fixture data; ``build_table`` recomputes each table from scratch
and pairs it with the fixture so callers can report cell-by-cell deltas.

Analytic cells are deterministic.  Monte Carlo cells are statistical: the
seeds behind the published values are unknown, so agreement is expected
only within a few binomial standard errors at N = 3000.

Two fixture conventions worth knowing:

* The lognormal of tables 1 and 3 is the exact two-moment match of
  Pareto(0.1, 0.9); the published caption rounds its parameters to
  mu = 3.17, sigma2 = 1.75.  The exact parameterization reproduces every
  printed cell; the rounded one shifts the order-3 cells by a few 1e-3.
* Bound columns use moments up to the last order whose reciprocal-shock
  moment stays below 1, mirroring the published computation.  Two gamma
  cells (horizon 5, x = 9.5 and 12.5) were published with extra orders
  beyond that restriction and cannot be reproduced by any uniform order
  rule; their deltas (~6e-3 and ~3e-3) are visible in the delta report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import boundary_table, evaluate_bound, schedule, switch_boundary
from .moments import finite_moments, first_infinite_order, infinite_moments
from .montecarlo import GENERATOR_NAME, SimConfig, ecdf_survival, sample_Z
from .shocks import Pareto, ShockSpec, match_inverse_moments

__all__ = [
    "DEFAULT_REPLICATES",
    "DEFAULT_SEED",
    "MATCHED_TRIO",
    "TABLE_IDS",
    "ReferenceTable",
    "TableResult",
    "build_table",
    "derive_seed",
    "reference_table",
]

DEFAULT_SEED = 20250801
DEFAULT_REPLICATES = 3000

# Heavy-tailed pair of tables 1-3: Pareto(0.1, 0.9) and its lognormal match.
PARETO_HEAVY = Pareto(0.1, 0.9)
LOGNORMAL_HEAVY = match_inverse_moments(
    "lognormal", PARETO_HEAVY.inverse_moment(1), PARETO_HEAVY.inverse_moment(2)
)

# Matched trio of tables 4-9, sharing gamma1 = 5/6 and gamma2 = 20/27
# (the moments of Pareto(3, 0.9); captions round the other two families'
# parameters to N(0.2146, 0.0645) and shape 17, rate 13.3333).
_G1 = float(Fraction(5, 6))
_G2 = float(Fraction(20, 27))
MATCHED_TRIO: dict[str, ShockSpec] = {
    "lognormal": match_inverse_moments("lognormal", _G1, _G2),
    "pareto": Pareto(3.0, 0.9),
    "gamma": match_inverse_moments("gamma", _G1, _G2),
}

_TRIO_HORIZONS = (3, 5, 10, 20)
_TRIO_X = (3.5, 7.5, 9.5, 12.5)
_T3_X = (1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2)


def derive_seed(master: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a named branch of a master seed."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=tuple(path))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ReferenceTable:
    """One published table: layout plus the printed values (None = blank)."""

    table_id: int
    title: str
    columns: tuple
    kinds: tuple  # per column: "key" | "analytic" | "mc"
    rows: tuple


@dataclass(frozen=True)
class TableResult:
    """A recomputed table paired with its published reference."""

    table_id: int
    title: str
    columns: tuple
    kinds: tuple
    rows: tuple          # computed cells, blanks where the reference is blank
    reference_rows: tuple
    metadata: dict

    def deltas(self) -> list[dict]:
        out = []
        n = self.metadata.get("replicates")
        for row, ref_row in zip(self.rows, self.reference_rows):
            for col, kind, got, want in zip(self.columns, self.kinds, row, ref_row):
                if kind == "key" or got is None or want is None:
                    continue
                entry = {
                    "row": row[0],
                    "column": col,
                    "kind": kind,
                    "computed": got,
                    "reference": want,
                }
                if math.isinf(want) or math.isinf(got):
                    entry["delta"] = 0.0 if got == want else math.inf
                else:
                    entry["delta"] = got - want
                    if want != 0.0:
                        entry["rel_delta"] = (got - want) / want
                if kind == "mc" and n and not math.isinf(got):
                    entry["binomial_se"] = math.sqrt(max(got * (1.0 - got), 0.0) / n)
                out.append(entry)
        return out

    def max_abs_delta(self, kind: str) -> float:
        vals = [abs(d["delta"]) for d in self.deltas() if d["kind"] == kind]
        return max(vals, default=0.0)

    def max_rel_delta(self, kind: str) -> float:
        vals = [abs(d["rel_delta"]) for d in self.deltas()
                if d["kind"] == kind and "rel_delta" in d]
        return max(vals, default=0.0)

    def delta_report(self) -> dict:
        return {
            "table_id": self.table_id,
            "title": self.title,
            "metadata": self.metadata,
            "max_abs_delta_analytic": self.max_abs_delta("analytic"),
            "max_abs_delta_mc": self.max_abs_delta("mc"),
            "max_rel_delta_analytic": self.max_rel_delta("analytic"),
            "cells": self.deltas(),
        }


_REFERENCE_TABLES: dict[int, ReferenceTable] = {}


def _register(table: ReferenceTable) -> None:
    _REFERENCE_TABLES[table.table_id] = table


_register(ReferenceTable(
    table_id=1,
    title="reciprocal-shock moments, series moments, and bound boundaries (lognormal)",
    columns=("r", "gamma_r", "beta_r", "boundary"),
    kinds=("key", "analytic", "analytic", "analytic"),
    rows=(
        (1, 0.1010, 0.1124, 1.6808),
        (2, 0.0588, 0.0765, 6.0288),
        (3, 0.1971, 0.3847, math.inf),
    ),
))

_register(ReferenceTable(
    table_id=2,
    title="reciprocal-shock moments, series moments, and bound boundaries (Pareto)",
    columns=("r", "gamma_r", "beta_r", "boundary"),
    kinds=("key", "analytic", "analytic", "analytic"),
    rows=(
        (1, 0.1010, 0.1124, 1.6808),
        (2, 0.0588, 0.0765, 1.9481),
        (3, 0.0442, 0.0725, 2.1704),
        (4, 0.0372, 0.0849, 2.4067),
    ),
))

_register(ReferenceTable(
    table_id=3,
    title="survival probabilities vs Chebyshev lower bounds (lognormal, Pareto)",
    columns=("x", "survival_mc_lognormal", "lower_bound_lognormal",
             "survival_mc_pareto", "lower_bound_pareto"),
    kinds=("key", "mc", "analytic", "mc", "analytic"),
    rows=(
        (1.1, 0.7193, 0.0, 0.7723, 0.0),
        (1.2, 0.8633, 0.4382, 0.8267, 0.4382),
        (1.4, 0.9513, 0.7191, 0.8913, 0.7191),
        (1.6, 0.9777, 0.8127, 0.9283, 0.8127),
        (1.8, 0.9863, 0.8805, 0.9553, 0.8805),
        (2.0, 0.9897, 0.9235, 0.9827, 0.9275),
        (2.2, 0.9920, 0.9469, 0.9963, 0.9591),
    ),
))

_BOUNDARY_COLUMNS = ("r", "Z_3", "Z_5", "Z_10", "Z_20", "Z")
_BOUNDARY_KINDS = ("key",) + ("analytic",) * 5

_register(ReferenceTable(
    table_id=4,
    title="bound boundaries by horizon (lognormal)",
    columns=_BOUNDARY_COLUMNS,
    kinds=_BOUNDARY_KINDS,
    rows=(
        ("c", 1.0, 1.0, 1.0, 1.0, 1.0),
        (1, 3.3137, 4.3807, 5.9908, 7.0502, 7.2857),
        (2, 3.5460, 4.8419, 7.0433, 8.8004, 9.2795),
        (3, 3.8072, 5.3915, 8.4725, 11.6162, 12.7826),
        (4, 4.1018, 6.0525, 10.4814, 16.7021, 20.5384),
        (5, 4.4353, 6.8551, 13.4176, 27.5237, 52.1729),
    ),
))

_register(ReferenceTable(
    table_id=5,
    title="bound boundaries by horizon (Pareto)",
    columns=_BOUNDARY_COLUMNS,
    kinds=_BOUNDARY_KINDS,
    rows=(
        ("c", 1.0, 1.0, 1.0, 1.0, 1.0),
        (1, 3.3137, 4.3807, 5.9908, 7.0502, 7.2857),
        (2, 3.4698, 4.6962, 6.7183, 8.2603, 8.6618),
        (3, 3.5932, 4.9592, 7.3887, 9.5165, 10.1737),
        (4, 3.6938, 5.1826, 8.0083, 10.8238, 11.8661),
        (5, 3.7777, 5.3752, 8.5816, 12.1805, 13.7910),
    ),
))

_register(ReferenceTable(
    table_id=6,
    title="bound boundaries by horizon (gamma)",
    columns=_BOUNDARY_COLUMNS,
    kinds=_BOUNDARY_KINDS,
    rows=(
        ("c", 1.0, 1.0, 1.0, 1.0, 1.0),
        (1, 3.3137, 4.3807, 5.9908, 7.0502, 7.2857),
        (2, 3.5606, 4.8700, 7.1073, 8.9091, 9.4050),
        (3, 3.8589, 5.4978, 8.7526, 12.2010, 13.5460),
        (4, 4.2255, 6.3255, 11.3481, 19.2233, 25.1935),
        (5, 4.6846, 7.4534, 15.8266, 39.6022, 256.6073),
    ),
))

_FINITE_COLUMNS = ("x",
                   "lower_bound_3", "survival_mc_3",
                   "lower_bound_5", "survival_mc_5",
                   "lower_bound_10", "survival_mc_10",
                   "lower_bound_20", "survival_mc_20")
_FINITE_KINDS = ("key",) + ("analytic", "mc") * 4

_register(ReferenceTable(
    table_id=7,
    title="finite-horizon survival: Chebyshev lower bounds vs Monte Carlo (lognormal)",
    columns=_FINITE_COLUMNS,
    kinds=_FINITE_KINDS,
    rows=(
        (3.5, 0.2202, 0.7530, 0.0, 0.3633, 0.0, 0.1290, 0.0, 0.0907),
        (7.5, 0.9907, 0.9997, 0.9257, 0.9927, 0.5396, 0.8890, 0.3027, 0.8193),
        (9.5, None, None, 0.9806, 0.9997, 0.8190, 0.9700, 0.6258, 0.9280),
        (12.5, None, None, 0.9957, 1.0000, 0.9555, 0.9963, 0.8605, 0.9807),
    ),
))

_register(ReferenceTable(
    table_id=8,
    title="finite-horizon survival: Chebyshev lower bounds vs Monte Carlo (Pareto)",
    columns=_FINITE_COLUMNS,
    kinds=_FINITE_KINDS,
    rows=(
        (3.5, 0.2296, 0.7070, 0.0, 0.3557, 0.0, 0.1713, 0.0, 0.1393),
        (7.5, 1.0000, 1.0000, 0.9976, 1.0000, 0.5718, 0.8783, 0.3027, 0.7930),
        (9.5, None, None, None, None, 0.8972, 0.9770, 0.6517, 0.9323),
        (12.5, None, None, None, None, 0.9961, 0.9990, 0.9135, 0.9853),
    ),
))

_register(ReferenceTable(
    table_id=9,
    title="finite-horizon survival: Chebyshev lower bounds vs Monte Carlo (gamma)",
    columns=_FINITE_COLUMNS,
    kinds=_FINITE_KINDS,
    rows=(
        (3.5, 0.2202, 0.7860, 0.0, 0.3653, 0.0, 0.1293, 0.0, 0.0780),
        (7.5, 0.9901, 0.9997, 0.9192, 0.9887, 0.5347, 0.9133, 0.3027, 0.8267),
        (9.5, None, None, 0.9848, 0.9983, 0.8102, 0.9767, 0.6206, 0.9293),
        (12.5, None, None, 0.9983, 1.0000, 0.9490, 0.9957, 0.8508, 0.9777),
    ),
))

TABLE_IDS = tuple(sorted(_REFERENCE_TABLES))


def reference_table(table_id: int) -> ReferenceTable:
    if table_id not in _REFERENCE_TABLES:
        raise ValueError(f"table id must be in {TABLE_IDS}, got {table_id}")
    return _REFERENCE_TABLES[table_id]


def _restricted_rmax(spec: ShockSpec, cap: int = 64) -> int:
    """Largest order whose reciprocal-shock moment stays below 1."""
    fi = first_infinite_order(spec, cap)
    return cap if fi is None else fi - 1


def _build_moment_table(table_id: int, spec: ShockSpec, meta: dict) -> TableResult:
    """(r, gamma_r, beta_r, boundary) rows at c = 1; the boundary needs the next moment."""
    ref = reference_table(table_id)
    n_rows = len(ref.rows)
    table = infinite_moments(spec, n_rows + 1)
    rows = tuple((r, table.gamma(r), table.beta(r),
                  switch_boundary(table.log_beta_values, r, 1.0))
                 for r in range(1, n_rows + 1))
    return TableResult(table_id, ref.title, ref.columns, ref.kinds, rows, ref.rows,
                       {**meta, "c": 1.0})


def _build_table_3(seed: int, replicates: int) -> TableResult:
    ref = reference_table(3)
    sched_ln = schedule(infinite_moments(LOGNORMAL_HEAVY, 4), 1.0)
    sched_pa = schedule(infinite_moments(PARETO_HEAVY, 61), 1.0)
    ests = {}
    for i, (name, spec) in enumerate((("lognormal", LOGNORMAL_HEAVY),
                                      ("pareto", PARETO_HEAVY))):
        config = SimConfig(replicates=replicates, truncation="adaptive",
                           seed=derive_seed(seed, 3, i))
        ests[name] = sample_Z(spec, config)
    rows = []
    for x in _T3_X:
        rows.append((
            x,
            ecdf_survival(ests["lognormal"], x),
            evaluate_bound(sched_ln, x).survival_lower,
            ecdf_survival(ests["pareto"], x),
            evaluate_bound(sched_pa, x).survival_lower,
        ))
    meta = {
        "lognormal_mu": LOGNORMAL_HEAVY.mu,
        "lognormal_sigma2": LOGNORMAL_HEAVY.sigma2,
        "pareto_beta": 0.1,
        "pareto_k": 0.9,
        "c": 1.0,
        "seed": seed,
        "replicates": replicates,
        "truncation": "adaptive",
        "generator": GENERATOR_NAME,
    }
    return TableResult(3, ref.title, ref.columns, ref.kinds, tuple(rows), ref.rows, meta)


def _build_boundary_table(table_id: int, family: str) -> TableResult:
    ref = reference_table(table_id)
    spec = MATCHED_TRIO[family]
    bt = boundary_table(spec, 1.0, list(_TRIO_HORIZONS) + [math.inf], rmax=6)
    rows = [("c",) + (1.0,) * 5]
    for i, r in enumerate(bt.orders):
        rows.append((r,) + tuple(float(v) for v in bt.values[i]))
    meta = {"family": family, **spec.to_record(), "c": 1.0, "rmax": 6}
    return TableResult(table_id, ref.title, ref.columns, ref.kinds,
                       tuple(rows), ref.rows, meta)


def _build_finite_table(table_id: int, family: str, seed: int,
                        replicates: int) -> TableResult:
    ref = reference_table(table_id)
    spec = MATCHED_TRIO[family]
    rmax = _restricted_rmax(spec)
    grid = finite_moments(spec, rmax, max(_TRIO_HORIZONS))
    schedules = {n: schedule(grid, 1.0, horizon=n) for n in _TRIO_HORIZONS}
    ests = {}
    for j, n in enumerate(_TRIO_HORIZONS):
        config = SimConfig(replicates=replicates, truncation=n,
                           seed=derive_seed(seed, table_id, j))
        ests[n] = sample_Z(spec, config)
    rows = []
    for x, ref_row in zip(_TRIO_X, ref.rows):
        row = [x]
        for j, n in enumerate(_TRIO_HORIZONS):
            want_bound, want_mc = ref_row[1 + 2 * j], ref_row[2 + 2 * j]
            row.append(None if want_bound is None
                       else evaluate_bound(schedules[n], x).survival_lower)
            row.append(None if want_mc is None else ecdf_survival(ests[n], x))
        rows.append(tuple(row))
    meta = {
        "family": family, **spec.to_record(),
        "c": 1.0, "rmax": rmax, "seed": seed, "replicates": replicates,
        "generator": GENERATOR_NAME,
    }
    return TableResult(table_id, ref.title, ref.columns, ref.kinds,
                       tuple(rows), ref.rows, meta)


def build_table(table_id: int, seed: int = DEFAULT_SEED,
                replicates: int = DEFAULT_REPLICATES) -> TableResult:
    """Recompute one reference table; deterministic given (table_id, seed)."""
    reference_table(table_id)
    if table_id == 1:
        return _build_moment_table(1, LOGNORMAL_HEAVY, {
            "spec": "lognormal",
            "mu": LOGNORMAL_HEAVY.mu,
            "sigma2": LOGNORMAL_HEAVY.sigma2,
            "display_parameters": "mu=3.17, sigma2=1.75 (rounded)",
        })
    if table_id == 2:
        return _build_moment_table(2, PARETO_HEAVY, {"spec": "pareto", "beta": 0.1, "k": 0.9})
    if table_id == 3:
        return _build_table_3(seed, replicates)
    if table_id in (4, 5, 6):
        family = {4: "lognormal", 5: "pareto", 6: "gamma"}[table_id]
        return _build_boundary_table(table_id, family)
    family = {7: "lognormal", 8: "pareto", 9: "gamma"}[table_id]
    return _build_finite_table(table_id, family, seed, replicates)
