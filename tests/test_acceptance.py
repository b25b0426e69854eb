"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed lines immediately).  Analytic reproductions are deterministic;
Monte Carlo reproductions are statistical at N = 3000 because the seeds
behind the published values are unknown.

Criterion 5 note: two gamma cells of the horizon-5 bound column (x = 9.5
and x = 12.5) were published using extra Chebyshev orders beyond the
reciprocal-moment restriction that every other published cell respects.
No uniform order-selection rule reproduces all 42 cells; this suite
asserts the stated 1e-3 tolerance faithfully, so those two cells fail by
~5.9e-3 and ~3.0e-3.  See the decisions ledger and the reproduce command's
delta report for the full analysis.
"""

import math
import time

import numpy as np

from ruinbounds import (
    Constant,
    Lognormal,
    SimConfig,
    classify,
    crosscheck_equivalence,
    deterministic_min_stock,
    ecdf_survival,
    finite_moments,
    infinite_moments,
    sample_Z,
    schedule,
    survival_lower_bound,
)
from ruinbounds.montecarlo import ADAPTIVE_FLOOR, derive_seed
from ruinbounds.reference import (
    DEFAULT_SEED,
    MATCHED_TRIO,
    build_table,
    reference_table,
)

TRIO_HORIZONS = (3, 5, 10, 20)


def _report(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {num}: {len(failures)} check(s) failed: {failures}"


def test_criterion_01_pareto_moment_table():
    start = time.perf_counter()
    result = build_table(2)
    elapsed = time.perf_counter() - start
    failures = []
    dev = result.delta_report()["max_abs_delta_analytic"]
    if not dev < 5e-4:
        failures.append(f"max abs deviation {dev:.2e} >= 5e-4")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, f"table 2 analytic (max |delta| {dev:.1e}, {elapsed:.2f}s)", failures)


def test_criterion_02_lognormal_moment_table():
    failures = []
    # full table under the exact two-moment-matched parameters
    result = build_table(1)
    dev = result.delta_report()["max_abs_delta_analytic"]
    if not dev < 5e-3:
        failures.append(f"exact-parameter max abs deviation {dev:.2e} >= 5e-3")
    # the published reciprocal-moment column under the rounded display parameters
    rounded = infinite_moments(Lognormal(3.17, 1.75), 3)
    for row in reference_table(1).rows:
        r, want_gamma = row[0], row[1]
        got = rounded.gamma(r)
        if not abs(got - want_gamma) < 5e-3:
            failures.append(f"rounded-parameter gamma_{r}: {got:.5f} vs {want_gamma}")
    # exact parameters replicate the Pareto table's first two moments
    exact = result.metadata
    spec = Lognormal(exact["mu"], exact["sigma2"])
    for r, want in ((1, 0.1010), (2, 0.0588)):
        got = infinite_moments(spec, 2).gamma(r)
        if not abs(got - want) < 5e-4:
            failures.append(f"matched gamma_{r}: {got:.5f} vs table-2 {want}")
    _report(2, f"table 1 analytic (exact params, max |delta| {dev:.1e})", failures)


def test_criterion_03_survival_bound_rows():
    result = build_table(3, replicates=50)  # MC columns not under test here
    failures = []
    for d in result.deltas():
        if d["kind"] != "analytic":
            continue
        if not abs(d["delta"]) < 1e-3:
            failures.append(f"x={d['row']} {d['column']}: "
                            f"{d['computed']:.4f} vs {d['reference']}")
    spot = {(1.2, "lower_bound_lognormal"): 0.4382,
            (2.0, "lower_bound_lognormal"): 0.9235,
            (2.0, "lower_bound_pareto"): 0.9275,
            (2.2, "lower_bound_pareto"): 0.9591}
    got = {(row[0], col): value
           for row in result.rows
           for col, value in zip(result.reference.columns, row)}
    for key, want in spot.items():
        if not abs(got[key] - want) < 1e-3:
            failures.append(f"spot cell {key}: {got[key]:.4f} vs {want}")
    dev = result.delta_report()["max_abs_delta_analytic"]
    _report(3, f"table 3 bound rows (max |delta| {dev:.1e})", failures)


def test_criterion_04_boundary_matrices():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for table_id in (4, 5, 6):
        result = build_table(table_id)
        for d in result.deltas():
            rel = abs(d.get("rel_delta", 0.0))
            worst = max(worst, rel)
            if not rel < 1e-3:
                failures.append(f"table {table_id} r={d['row']} {d['column']}: "
                                f"rel delta {rel:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(4, f"tables 4-6 boundaries (max rel delta {worst:.1e}, {elapsed:.2f}s)",
            failures)


def test_criterion_05_finite_horizon_tables():
    start = time.perf_counter()
    failures = []
    worst_analytic, worst_mc = 0.0, 0.0
    for table_id in (7, 8, 9):
        result = build_table(table_id, seed=DEFAULT_SEED, replicates=3000)
        for d in result.deltas():
            dev = abs(d["delta"])
            if d["kind"] == "analytic":
                worst_analytic = max(worst_analytic, dev)
                if not dev < 1e-3:
                    failures.append(
                        f"table {table_id} x={d['row']} {d['column']}: "
                        f"{d['computed']:.4f} vs {d['reference']} (|delta| {dev:.1e})"
                    )
            else:
                worst_mc = max(worst_mc, dev)
                if not dev <= 0.03:
                    failures.append(
                        f"table {table_id} x={d['row']} {d['column']} (MC): "
                        f"{d['computed']:.4f} vs {d['reference']} (|delta| {dev:.3f})"
                    )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(5, f"tables 7-9 (max analytic {worst_analytic:.1e}, "
               f"max MC {worst_mc:.3f}, {elapsed:.1f}s)", failures)


def test_criterion_06_survival_table_montecarlo():
    assert ADAPTIVE_FLOOR == 100
    result = build_table(3, seed=DEFAULT_SEED, replicates=3000)
    failures = []
    worst = 0.0
    for d in result.deltas():
        if d["kind"] != "mc":
            continue
        dev = abs(d["delta"])
        worst = max(worst, dev)
        if not dev <= 0.03:
            failures.append(f"x={d['row']} {d['column']}: {d['computed']:.4f} "
                            f"vs {d['reference']} (|delta| {dev:.3f})")
    _report(6, f"table 3 Monte Carlo columns (max |delta| {worst:.3f})", failures)


def test_criterion_07_constant_shock_oracle():
    start = time.perf_counter()
    failures = []
    for a in (1.5, 2.0, 3.0):
        spec = Constant(a)
        table = infinite_moments(spec, 10)
        for r in range(1, 11):
            want = (a - 1.0) ** -r
            if not abs(table.beta(r) - want) <= 1e-12 * want:
                failures.append(f"a={a} r={r}: beta {table.beta(r)!r} vs {want!r}")
        sched = schedule(table, 1.0)
        threshold = a / (a - 1.0)
        if not np.allclose(sched.boundaries, threshold, rtol=1e-12):
            failures.append(f"a={a}: boundaries {sched.boundaries} != {threshold}")
        regime = classify(spec)
        if not math.isclose(regime.certain_survival_threshold,
                            deterministic_min_stock(a, 1.0), rel_tol=1e-12):
            failures.append(f"a={a}: classify vs deterministic threshold")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(7, f"constant-shock oracle suite ({elapsed:.2f}s)", failures)


def test_criterion_08_pathwise_equivalence():
    start = time.perf_counter()
    failures = []
    for name, spec in MATCHED_TRIO.items():
        for n in TRIO_HORIZONS:
            report = crosscheck_equivalence(spec, 3.5, 1.0, n, 10_000,
                                            seed=derive_seed(DEFAULT_SEED, 8, n))
            if not report.passed:
                failures.append(f"{name} n={n}: discrepancies at paths "
                                f"{report.discrepancy_indices[:5]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(8, f"pathwise equivalence, 1e4 paths x 3 specs x 4 horizons "
               f"({elapsed:.1f}s)", failures)


def test_criterion_09_bound_validity_sweep():
    start = time.perf_counter()
    failures = []
    replicates = 3000
    slack = 3.0 * math.sqrt(0.25 / replicates)
    grid_x = np.linspace(1.0 + 14.0 / 50.0, 15.0, 50)
    for name, spec in MATCHED_TRIO.items():
        first_inf = infinite_moments(spec, 64).first_infinite
        moments = finite_moments(spec, first_inf - 1, max(TRIO_HORIZONS))
        for j, n in enumerate(TRIO_HORIZONS):
            est = sample_Z(spec, SimConfig(replicates=replicates, truncation=n,
                                           seed=derive_seed(DEFAULT_SEED, 9, j)))
            sched = schedule(moments, 1.0, horizon=n)
            for x in grid_x:
                bound = survival_lower_bound(sched, float(x))
                estimate = ecdf_survival(est, float(x))
                if not estimate >= bound - slack:
                    failures.append(f"{name} n={n} x={x:.2f}: "
                                    f"ecdf {estimate:.4f} < bound {bound:.4f} - slack")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(9, f"bound validity on 50-point grids ({elapsed:.1f}s)", failures)


def test_criterion_10_moment_cross_validation():
    start = time.perf_counter()
    failures = []
    n, horizon = 100_000, 10
    for name, spec in MATCHED_TRIO.items():
        grid = finite_moments(spec, 6, horizon)
        seed = derive_seed(DEFAULT_SEED, 10, horizon)
        config = SimConfig(replicates=n, truncation=horizon, seed=seed)
        samples = sample_Z(spec, config).samples
        for r in (1, 2, 3):
            mean_r = float((samples ** r).mean())
            want = grid.beta(r, horizon)
            se = math.sqrt((grid.beta(2 * r, horizon) - want ** 2) / n)
            if not abs(mean_r - want) < 4.0 * se:
                failures.append(f"{name} r={r}: mean {mean_r:.5f} vs {want:.5f} "
                                f"({abs(mean_r - want) / se:.1f} SE)")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(10, f"Monte Carlo moments of the 10-term sum, r <= 3 "
                f"({elapsed:.1f}s)", failures)
