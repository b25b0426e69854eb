"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload reproduce_cli --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
that tree; nothing is installed.  With ``--trace 0`` the last stdout line
is a JSON object with every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric instead.  The line before it holds the run's
provenance.  ``bench/README.md`` describes the workloads and metrics.

This process uses only the standard library, so its own memory and start-up
stay out of the figures; the package runs in child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("reproduce_cli", "mc_validation", "bound_sweep")
IMPORTTIME_REPEATS = 3
# Tail latency is read at the highest of these percentiles that leaves at
# least ten samples above it.  Every run is whole cycles of the same mix, so
# a fixed rung reads the same part of the mix whatever the cycle count.
TAIL_RUNGS = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)]


def tail(latencies: list):
    values = sorted(latencies)
    for p in TAIL_RUNGS:
        if len(values) - math.ceil(p / 100.0 * len(values)) >= TAIL_BEYOND:
            return p, percentile(values, p)
    return 100.0, values[-1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_cmd(args, workdir: Path, extra=()) -> list:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size, "--workdir", str(workdir),
            *extra]


def start_worker(cmd: list, env: dict):
    """Start a worker; return it and its set-up time (start until it prints ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, setup


def import_times(env: dict) -> tuple:
    """``import ruinbounds`` and the scipy part of it, from ``-X importtime``, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ruinbounds"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import ruinbounds failed: {proc.stderr[-500:]}")
    entries = []  # (depth, name, cumulative us), innermost imports first
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    def inside_scipy(j):
        depth = entries[j][0]
        for d, name, _ in entries[j + 1:]:  # ancestors follow, each less deep
            if d < depth:
                if is_scipy(name):
                    return True
                depth = d
        return False

    total = sum(c for _, name, c in entries if name == "ruinbounds")
    scipy = sum(c for j, (_, name, c) in enumerate(entries)
                if is_scipy(name) and not inside_scipy(j))
    return total / 1e6, scipy / 1e6


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small runs the benchmark's own tests quickly")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage the first op's output, to test the checks")
    args = ap.parse_args(argv)

    reference = BENCH / "reference" / f"{args.workload}-{args.size}.json"
    if not (SRC / "ruinbounds" / "__init__.py").is_file() or not reference.is_file():
        print(f"no ruinbounds source tree at {SRC} or no {reference.name}; "
              "run from the repository root", file=sys.stderr)
        return 2

    env = child_env()
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    proc = None
    try:
        extra = ["--corrupt"] if args.corrupt else []
        if args.trace:
            extra += ["--spans", str(results_dir / f"{tag}-spans.npz")]
        proc, setup = start_worker(worker_cmd(args, workdir, extra), env)
        out, _ = proc.communicate(timeout=min(args.seconds * 3 + 60, 150))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        run = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            probes = [import_times(env) for _ in range(IMPORTTIME_REPEATS)]
        else:
            setups = [setup] + run["setup_s"]
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)

    cycles = run["cycles"]
    latencies = [t for cycle in cycles for t in cycle]
    cycle_rates = [len(cycle) / sum(cycle) for cycle in cycles]
    attempted, failed = run["attempted"], run["failed"]
    correct = failed == 0 and run.get("wrappers_left", 0) == 0
    tail_p, tail_s = tail(latencies)
    if args.trace:
        metrics = dict(run["layers"])
        metrics["startup.import_s"] = (statistics.median(p[0] for p in probes), "s")
        metrics["startup.scipy_import_s"] = (statistics.median(p[1] for p in probes), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_s": (percentile(sorted(latencies), 50.0), "s"),
            "op_ptail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "cli_start_s": (statistics.median(run["version_s"]), "s"),
        }
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": commit(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(), **run["versions"],
        "input_sizes": run["sizes"], "ops": len(latencies), "op_counts": run["op_counts"],
        "tail_percentile": tail_p, "tail_samples_beyond": len(latencies) - math.ceil(
            tail_p / 100.0 * len(latencies)),
        "cycle_ops_per_s": cycle_rates,
        "fail_ratio": failed / attempted, "problems": run["problems"],
    }
    if args.trace:
        # What start-up would be of an op run as its own process, as reproduce_cli does.
        import_s = metrics["startup.import_s"][0]
        op_s = metrics["trace.op_s"][0] - metrics["trace.overhead_s"][0]
        provenance.update(layer_shares=run["shares"], wrappers_left=run["wrappers_left"],
                          startup_share_of_process_op=import_s / (import_s + op_s))
    else:
        provenance.update(setup_samples_s=setups, cli_start_samples_s=run["version_s"])
    (results_dir / f"{tag}.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics}, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(latencies)} ops timed, "
          f"{attempted} attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} ratio")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
