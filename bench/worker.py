"""One workload run in a fresh interpreter; started by ``bench/run.py``.

The worker imports the package, makes the first inputs, prints ``ready``
(the parent times set-up up to that line), then runs whole cycles of
operations until the next cycle would not fit in ``--seconds``.  Each
operation is timed alone; its output is checked after the timer stops.
The last stdout line is a JSON summary for the parent.

With ``--trace 1`` the worker runs one warm-up and one baseline cycle
untraced, then traced cycles, and reports per-operation self time and
counts per layer.  Per-layer figures are divided by the number of traced
operations, so they do not depend on how many cycles fit in the run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import ruinbounds  # noqa: E402
import workloads  # noqa: E402  (after the path fix-up above)
from tracer import Tracer, leftover_wrappers  # noqa: E402

# Traced cycles stop starting once this many spans are held in memory.
SPAN_CAP = 1_000_000
# A full-size run times at least this many ops, even past --seconds, so the
# 75th percentile always has ten samples beyond it (see TAIL_RUNGS in run.py).
MIN_OPS = {"full": 40, "small": 1}
# At least this many set-up probes per untraced run; the parent times one more
# set-up.  Each probe also launches --version this many times (reproduce_cli
# launches --version as ops of its own instead).
PROBES = 4
VERSIONS_PER_PROBE = 2


def run_cycle(wl, refs, in_process: bool, state: dict, tracer=None) -> list:
    latencies = []
    for op in wl.next_cycle():
        state["attempted"] += 1
        if tracer is not None:
            tracer.op_id = state["attempted"]
        t0 = time.perf_counter()
        try:
            out = wl.run(op, in_process)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, problems = None, [f"{op['key']}: raised {exc!r}"]
        latencies.append(time.perf_counter() - t0)
        if out is not None:
            if state["corrupt"]:
                wl.corrupt(out)
                state["corrupt"] = False
            try:
                problems = wl.check(op, out, refs[op["key"]])
            finally:
                wl.cleanup(out)
        if problems:
            state["failed"] += 1
            state["problems"].extend(problems)
        state["kinds"][op["label"]] = state["kinds"].get(op["label"], 0) + 1
        if op.get("kind") == "version":
            state["version_s"].append(latencies[-1])
    return latencies


def run_cycles(wl, refs, in_process, state, seconds, tracer=None, min_ops=1,
               between=None) -> list:
    """Op latencies of whole cycles, one list per cycle: at least ``min_ops``
    ops, and more cycles while the next is expected to end within ``seconds``.
    ``between`` runs after each cycle, outside the op timers."""
    cycles, cycle_times = [], []
    begin = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        cycles.append(run_cycle(wl, refs, in_process, state, tracer))
        if between is not None:
            between()
        cycle_times.append(time.perf_counter() - c0)
        mean_cycle = sum(cycle_times) / len(cycle_times)
        if sum(map(len, cycles)) >= min_ops and (
                time.perf_counter() - begin + mean_cycle > seconds
                or (tracer is not None and len(tracer) > SPAN_CAP)):
            return cycles


class Probes:
    """Set-up and CLI start-up samples, taken between cycles so that they
    span the same stretch of time as the ops rather than one moment of it."""

    def __init__(self, setup_cmd: list, versions: bool):
        self.setup_cmd = setup_cmd
        self.versions = versions
        self.setup_s: list = []
        self.version_s: list = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.setup_cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        self.setup_s.append(time.perf_counter() - t0)
        proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        for _ in range(VERSIONS_PER_PROBE if self.versions else 0):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-m", "ruinbounds.cli", "--version"],
                                 capture_output=True, text=True, timeout=60)
            self.version_s.append(time.perf_counter() - t0)
            if out.returncode != 0 or out.stdout != f"ruinbounds {ruinbounds.__version__}\n":
                raise RuntimeError(f"ruinbounds --version failed: {out.stderr.strip()}")

    def top_up(self, count: int) -> None:
        while len(self.setup_s) < count:
            self()


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    self_s = tracer.self_times()
    c = tracer.counts

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names) / ops

    def n(*names):
        return sum(c[k] for k in names) / ops

    shock = [f"shocks.{cls}" for cls in ("Lognormal", "Pareto", "Gamma", "Constant")]
    evaluate_calls = c["bounds.evaluate_bound.calls"]
    replicates = c["montecarlo.replicates"]
    return {
        "cli.main_s": (s("cli.main"), "s/op"),
        "reference.build_table_s": (s("reference.build_table"), "s/op"),
        "reference.build_table_calls": (n("reference.build_table.calls"), "count/op"),
        "tableio.write_s": (s("tableio.write_csv_table", "tableio.write_json"), "s/op"),
        "tableio.read_s": (s("tableio.read_csv_table", "tableio.read_json"), "s/op"),
        "tableio.bytes": (n("tableio.bytes"), "B/op"),
        "moments.infinite_s": (s("moments.infinite_moments"), "s/op"),
        "moments.infinite_calls": (n("moments.infinite_moments.calls"), "count/op"),
        "moments.finite_s": (s("moments.finite_moments"), "s/op"),
        "moments.finite_calls": (n("moments.finite_moments.calls"), "count/op"),
        "moments.finite_cells": (n("moments.finite_cells"), "count/op"),
        "bounds.schedule_s": (s("bounds.schedule"), "s/op"),
        "bounds.schedule_calls": (n("bounds.schedule.calls"), "count/op"),
        "bounds.evaluate_s": (s("bounds.evaluate_bound"), "s/op"),
        "bounds.evaluate_calls": (n("bounds.evaluate_bound.calls"), "count/op"),
        "bounds.boundary_table_s": (s("bounds.boundary_table"), "s/op"),
        "bounds.vacuous_ratio": (c["bounds.vacuous"] / evaluate_calls if evaluate_calls else 0.0,
                                 "ratio"),
        "montecarlo.stream_setup_s": (s("montecarlo.replicate_stream"), "s/op"),
        "montecarlo.streams": (n("montecarlo.replicate_stream.calls"), "count/op"),
        "montecarlo.sample_Z_s": (s("montecarlo.sample_Z"), "s/op"),
        "montecarlo.replicates": (n("montecarlo.replicates"), "count/op"),
        "montecarlo.crosscheck_s": (s("montecarlo.crosscheck_equivalence"), "s/op"),
        "montecarlo.paths": (n("montecarlo.paths"), "count/op"),
        "montecarlo.simulate_path_s": (s("montecarlo.simulate_path"), "s/op"),
        "montecarlo.ecdf_s": (s("montecarlo.ecdf_survival"), "s/op"),
        "shocks.sample_inverse_s": (s(*(f"{k}.sample_inverse" for k in shock)), "s/op"),
        "shocks.draws": (n("shocks.draws"), "count/op"),
        "shocks.draws_per_replicate": (
            c["shocks.draws_in_sample_Z"] / replicates if replicates else 0.0, "1/replicate"),
        "shocks.log_inverse_moment_calls": (
            n(*(f"{k}.log_inverse_moment.calls" for k in shock)), "count/op"),
        "regimes.classify_s": (s("regimes.classify"), "s/op"),
        "regimes.classify_calls": (n("regimes.classify.calls"), "count/op"),
    }


def layer_shares(metrics: dict, op_s: float) -> dict:
    """Each layer's self time as a share of the traced op time; start-up is not in it.

    ``other`` is op time outside every traced function: the benchmark's own
    loops around the calls, and the tracer's wrappers.
    """
    shares: dict = {}
    for name, (value, unit) in metrics.items():
        if unit == "s/op":
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + value / op_s
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the traced run's spans (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.size, args.seed, Path(args.workdir))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(BENCH / "reference" / f"{args.workload}-{args.size}.json") as fh:
        refs = json.load(fh)
    state = {"attempted": 0, "failed": 0, "problems": [], "corrupt": args.corrupt,
             "kinds": {}, "version_s": []}
    result = {"versions": workloads.versions(), "sizes": wl.params}
    if not args.trace:
        setup_cmd = [sys.executable, __file__, *(argv if argv is not None else sys.argv[1:]),
                     "--setup-only"]
        probes = Probes(setup_cmd, versions=args.workload != "reproduce_cli")
        cycles = run_cycles(wl, refs, False, state, args.seconds, min_ops=MIN_OPS[args.size],
                            between=probes)
        probes.top_up(PROBES)
        result.update(setup_s=probes.setup_s, version_s=state["version_s"] + probes.version_s)
    else:
        begin = time.perf_counter()
        run_cycle(wl, refs, True, state)  # warm-up, not measured
        baseline = run_cycle(wl, refs, True, state)
        tracer = Tracer()
        tracer.install()
        try:
            remaining = args.seconds - (time.perf_counter() - begin)
            cycles = run_cycles(wl, refs, True, state, remaining, tracer)
        finally:
            tracer.restore()
        latencies = [t for cycle in cycles for t in cycle]
        metrics = layer_metrics(tracer, len(latencies))
        traced_op_s = sum(latencies) / len(latencies)
        shares = layer_shares(metrics, traced_op_s)
        metrics["trace.op_s"] = (traced_op_s, "s/op")
        metrics["trace.overhead_s"] = (traced_op_s - sum(baseline) / len(baseline), "s/op")
        metrics["trace.spans"] = (len(tracer) / len(latencies), "count/op")
        result.update(layers=metrics, shares=shares, wrappers_left=leftover_wrappers())
        if args.spans:
            tracer.save(args.spans)
    result.update(cycles=cycles, attempted=state["attempted"], failed=state["failed"],
                  problems=state["problems"][:20], op_counts=state["kinds"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
