"""The benchmark's three workloads: inputs made from a seed, the timed
operations, and the checks that decide whether an operation's output is right.

Every workload runs in cycles.  A cycle holds each operation kind of the
workload once, in an order shuffled by the workload seed, so every run
measures the same mix of operations.  Inputs that could change an output
(Monte Carlo seeds, ``reproduce --seed`` values) are drawn from a pool of
``POOL`` values whose outputs are recorded in ``bench/reference/`` by
``bench/record.py``; inputs checked against an oracle (the x grids of
``bound_sweep``) are drawn freely.

The program is reached only through module attributes looked up at call
time (``mc.sample_Z``, not a name bound at import), so the tracer's patched
bindings see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import ruinbounds
from ruinbounds import bounds as bd
from ruinbounds import cli
from ruinbounds import montecarlo as mc
from ruinbounds import moments as mo
from ruinbounds import reference as ref_mod
from ruinbounds import regimes as rg
from ruinbounds import shocks as sh
from ruinbounds import tableio as tio

POOL = 8
# Tolerance for analytic values: 1e-12 relative on the linear scale, which is
# 1e-12 absolute on the log scale the moments are kept in.
REL_TOL = 1e-12

SIZES = {
    "reproduce_cli": {
        "full": {"tables": list(range(1, 10)), "version_launches": 2},
        "small": {"tables": [1, 3, 4], "version_launches": 1},
    },
    "mc_validation": {
        "full": {"replicates": 5000, "horizons": [3, 5, 10, 20], "ecdf_points": 50,
                 "crosscheck_paths": 1000, "path_batch": 250},
        "small": {"replicates": 300, "horizons": [3, 20], "ecdf_points": 50,
                  "crosscheck_paths": 50, "path_batch": 20},
    },
    "bound_sweep": {
        "full": {"rmax": 60, "infinite_rmax": 61, "horizon": 32, "stride": 4,
                 "boundary_rmax": 6, "x_points": 5000},
        "small": {"rmax": 12, "infinite_rmax": 13, "horizon": 8, "stride": 2,
                  "boundary_rmax": 4, "x_points": 50},
    },
}


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def jsonable(value):
    """Normalise through JSON so tuples, lists and floats compare as recorded."""
    return json.loads(json.dumps(value))


def matched_trio() -> dict:
    """Lognormal, Pareto and gamma shocks sharing E[1/shock] = 5/6, E[1/shock^2] = 20/27."""
    g1, g2 = 5.0 / 6.0, 20.0 / 27.0
    return {
        "lognormal": sh.match_inverse_moments("lognormal", g1, g2),
        "pareto": sh.Pareto(3.0, 0.9),
        "gamma": sh.match_inverse_moments("gamma", g1, g2),
    }


def heavy_pair() -> dict:
    """Heavy-tailed Pareto(0.1, 0.9) and the lognormal with its first two inverse moments."""
    pareto = sh.Pareto(0.1, 0.9)
    return {
        "pareto_heavy": pareto,
        "lognormal_heavy": sh.match_inverse_moments(
            "lognormal", pareto.inverse_moment(1), pareto.inverse_moment(2)),
    }


class Workload:
    """One workload: a cycle of operation kinds, their inputs, runs and checks."""

    name = ""

    def __init__(self, size: str, seed: int, workdir: Path):
        self.params = SIZES[self.name][size]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.op_count = 0

    def kinds(self) -> list:
        raise NotImplementedError

    def make_op(self, kind, pool_index: int) -> dict:
        raise NotImplementedError

    def next_cycle(self) -> list:
        kinds = self.kinds()
        self.rng.shuffle(kinds)
        return [self.make_op(kind, self.rng.randrange(POOL)) for kind in kinds]

    def record_ops(self) -> list:
        """Every input whose outputs the reference file must hold, once per key."""
        ops: dict = {}
        for kind in self.kinds():
            for p in range(POOL):
                op = self.make_op(kind, p)
                ops.setdefault(op["key"], op)
        return list(ops.values())

    def op_dir(self) -> Path:
        self.op_count += 1
        path = self.workdir / f"op{self.op_count}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def run(self, op: dict, in_process: bool):
        raise NotImplementedError

    def summarize(self, op: dict, out) -> dict:
        """The recordable part of an output; ``record.py`` stores it by ``op['key']``."""
        raise NotImplementedError

    def check(self, op: dict, out, recorded) -> list:
        """Problems found in ``out``; empty when the output is right."""
        got = jsonable(self.summarize(op, out))
        return [] if got == recorded else [f"{op['key']}: output differs from the recorded one"]

    def corrupt(self, out) -> None:
        """Damage an output the way a wrong result would, for the benchmark's own tests."""
        raise NotImplementedError

    def cleanup(self, out) -> None:
        pass


# --------------------------------------------------------------- reproduce_cli

REPRODUCE_SEEDS = [20250801 + 7919 * p for p in range(POOL)]


class ReproduceCli(Workload):
    """``ruinbounds reproduce --table t`` as real processes, plus ``--version`` launches."""

    name = "reproduce_cli"

    def kinds(self) -> list:
        return ([("table", t) for t in self.params["tables"]]
                + [("version", i) for i in range(self.params["version_launches"])])

    def make_op(self, kind, pool_index: int) -> dict:
        if kind[0] == "version":
            return {"kind": "version", "key": "version", "label": "version"}
        table = kind[1]
        seeded = "mc" in ref_mod.reference_table(table).kinds
        seed = REPRODUCE_SEEDS[pool_index] if seeded else ref_mod.DEFAULT_SEED
        key = f"table{table}:{pool_index}" if seeded else f"table{table}"
        return {"kind": "table", "table": table, "seed": seed, "key": key,
                "label": f"table{table}"}

    def run(self, op: dict, in_process: bool):
        if op["kind"] == "version":
            argv, out_dir = ["--version"], None
        else:
            out_dir = self.op_dir()
            argv = ["reproduce", "--table", str(op["table"]), "--seed", str(op["seed"]),
                    "--out", str(out_dir)]
        if in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's --version action exits
                    code = exc.code
            stdout = buf.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "ruinbounds.cli", *argv],
                                  capture_output=True, text=True, timeout=120)
            code, stdout = proc.returncode, proc.stdout
        return {"returncode": code, "stdout": stdout, "dir": out_dir, "op": op}

    def summarize(self, op: dict, out) -> dict:
        if op["kind"] == "version":
            return {"returncode": out["returncode"], "stdout": out["stdout"]}
        path = out["dir"] / f"table_{op['table']}.csv"
        if out["returncode"] != 0 or not path.exists():
            return {"returncode": out["returncode"]}
        metadata, columns, rows = tio.read_csv_table(path)
        return {"returncode": out["returncode"], "metadata": metadata,
                "columns": columns, "rows": rows}

    def corrupt(self, out) -> None:
        op = out["op"]
        if op["kind"] == "version":
            out["stdout"] += "x"
        else:
            with open(out["dir"] / f"table_{op['table']}.csv", "a") as fh:
                fh.write("0,0\n")

    def cleanup(self, out) -> None:
        if out.get("dir") is not None:
            shutil.rmtree(out["dir"], ignore_errors=True)


# --------------------------------------------------------------- mc_validation

MC_SEEDS = [0x5EED0000 + 101 * p for p in range(POOL)]
MC_X = 7.5


class McValidation(Workload):
    """Seeded Monte Carlo: fixed horizons on the matched trio, adaptive runs on the heavy pair."""

    name = "mc_validation"

    def __init__(self, size: str, seed: int, workdir: Path):
        super().__init__(size, seed, workdir)
        self.specs = {**matched_trio(), **heavy_pair()}
        self.grid = [float(x) for x in 1.0 + np.logspace(-2, 2, self.params["ecdf_points"])]

    def kinds(self) -> list:
        return ([(family, h) for family in matched_trio() for h in self.params["horizons"]]
                + [(name, "adaptive") for name in heavy_pair()])

    def make_op(self, kind, pool_index: int) -> dict:
        family, horizon = kind
        return {"family": family, "horizon": horizon, "seed": MC_SEEDS[pool_index],
                "key": f"{family}:{horizon}:{pool_index}", "label": f"{family}:{horizon}"}

    def run(self, op: dict, in_process: bool = True):
        p = self.params
        spec, horizon, seed = self.specs[op["family"]], op["horizon"], op["seed"]
        est = mc.sample_Z(spec, mc.SimConfig(replicates=p["replicates"],
                                             truncation=horizon, seed=seed))
        out = {"samples": est.samples,
               "ecdf": [mc.ecdf_survival(est, x) for x in self.grid]}
        if horizon != "adaptive":
            report = mc.crosscheck_equivalence(spec, MC_X, 1.0, horizon,
                                               p["crosscheck_paths"], seed + 1)
            out["crosscheck"] = (report.paths, report.passed)
            out["ruin"] = [mc.simulate_path(spec, MC_X, 1.0, horizon,
                                            mc.replicate_stream(seed + 2, i))
                           for i in range(p["path_batch"])]
        path = self.op_dir() / "samples.csv"
        tio.write_csv_table(path, ("sample",), [(v,) for v in est.samples], est.metadata())
        out["readback"] = tio.read_csv_table(path)
        out["dir"] = path.parent
        return out

    def summarize(self, op: dict, out) -> dict:
        summary = {"samples": digest(out["samples"]), "ecdf": digest(out["ecdf"])}
        if "ruin" in out:
            summary["crosscheck"] = out["crosscheck"]
            summary["ruin"] = digest([-1 if r is None else r for r in out["ruin"]])
        return summary

    def check(self, op: dict, out, recorded) -> list:
        problems = super().check(op, out, recorded)
        # Only the samples must read back exactly.  The metadata is not compared:
        # a fixed-horizon tag such as "3" re-parses as the integer 3, a known
        # tableio defect that this benchmark leaves to the correctness work.
        _, columns, rows = out["readback"]
        back = np.array([row[0] for row in rows], dtype=np.float64)
        if columns != ("sample",) or digest(back) != digest(out["samples"]):
            problems.append(f"{op['key']}: samples CSV does not read back to the samples")
        return problems

    def corrupt(self, out) -> None:
        samples = np.array(out["samples"])
        samples[0] = np.nextafter(samples[0], np.inf)
        out["samples"] = samples

    def cleanup(self, out) -> None:
        shutil.rmtree(out["dir"], ignore_errors=True)


# ----------------------------------------------------------------- bound_sweep

CONSTANT_ORACLE = 1.25
BOUND_C = 1.0


class BoundSweep(Workload):
    """Analytic moments, schedules, boundary tables and bounds; no random numbers."""

    name = "bound_sweep"

    def __init__(self, size: str, seed: int, workdir: Path):
        super().__init__(size, seed, workdir)
        self.specs = {**matched_trio(), **heavy_pair(),
                      "constant": sh.Constant(CONSTANT_ORACLE)}
        p = self.params
        self.horizons = list(range(p["stride"], p["horizon"] + 1, p["stride"]))

    def kinds(self) -> list:
        return list(self.specs)

    def make_op(self, kind, pool_index: int) -> dict:
        # x grid: c * (1 + 10^u), u uniform on (-2, 3), seeded by the workload rng
        u = np.random.default_rng(self.rng.getrandbits(64)).uniform(
            -2.0, 3.0, self.params["x_points"])
        return {"family": kind, "key": kind, "label": kind,
                "x": [float(x) for x in BOUND_C * (1.0 + 10.0 ** u)]}

    def run(self, op: dict, in_process: bool = True):
        p = self.params
        spec = self.specs[op["family"]]
        regime = rg.classify(spec)
        table = mo.infinite_moments(spec, p["infinite_rmax"])
        grid = mo.finite_moments(spec, p["rmax"], p["horizon"])
        # Bounds use the orders whose reciprocal-shock moment stays below 1, the
        # rule the published tables use (reference._restricted_rmax).
        top = restricted_rmax(table.first_infinite, p["rmax"])
        rows = mo.FiniteMomentGrid(spec, grid.log_gamma_values[: top + 1],
                                   grid.log_beta_grid[: top + 1])
        schedules = [bd.schedule(rows, BOUND_C, horizon=h) for h in self.horizons]
        schedules.append(bd.schedule(table, BOUND_C))
        boundary = bd.boundary_table(spec, BOUND_C, self.horizons + [math.inf],
                                     p["boundary_rmax"])
        results = [[bd.evaluate_bound(s, x) for x in op["x"]] for s in schedules]
        return {"regime": regime, "table": table, "grid": grid,
                "schedules": schedules, "boundary": boundary, "results": results}

    def summarize(self, op: dict, out) -> dict:
        grid = out["grid"]
        return {
            "regime": out["regime"].to_record(),
            "first_infinite": out["table"].first_infinite,
            "infinite_log_beta": out["table"].log_beta_values.tolist(),
            "log_gamma": grid.log_gamma_values.tolist(),
            "finite_log_beta": {str(h): grid.log_beta_grid[:, h].tolist()
                                for h in self.horizons},
        }

    def check(self, op: dict, out, recorded) -> list:
        key = op["key"]
        got = self.summarize(op, out)
        problems = []
        if jsonable(got["regime"]) != recorded["regime"]:
            problems.append(f"{key}: regime differs")
        if got["first_infinite"] != recorded["first_infinite"]:
            problems.append(f"{key}: first infinite order differs")
        columns = [("infinite_log_beta", got["infinite_log_beta"], recorded["infinite_log_beta"]),
                   ("log_gamma", got["log_gamma"], recorded["log_gamma"])]
        columns += [(f"finite_log_beta[{h}]", got["finite_log_beta"][h],
                     recorded["finite_log_beta"][h]) for h in recorded["finite_log_beta"]]
        for name, a, b in columns:
            if not close(a, b, log_scale=True):
                problems.append(f"{key}: {name} differs by more than {REL_TOL:g} relative")
        top = restricted_rmax(recorded["first_infinite"], self.params["rmax"])
        recorded_cols = [np.array(recorded["finite_log_beta"][str(h)][: top + 1])
                         for h in self.horizons]
        recorded_cols.append(np.array(recorded["infinite_log_beta"]))
        for h, sched, col, results in zip(self.horizons + ["inf"], out["schedules"],
                                          recorded_cols, out["results"]):
            max_order, edges = schedule_oracle(col)
            if sched.max_order != max_order or not close(sched.boundaries, edges):
                problems.append(f"{key}: schedule at horizon {h} differs")
            survival, raw = bound_oracle(col, max_order, np.array(op["x"]))
            got_survival = np.array([r.survival_lower for r in results])
            got_raw = np.array([r.ruin_raw for r in results])
            if not (np.all(np.abs(got_survival - survival) <= REL_TOL)
                    and close(got_raw, raw)):
                problems.append(f"{key}: bounds at horizon {h} differ")
        expected = boundary_oracle(recorded, self.horizons, self.params["boundary_rmax"])
        if not close(out["boundary"].values, expected):
            problems.append(f"{key}: boundary table differs")
        return problems

    def corrupt(self, out) -> None:
        table = out["table"]
        log_beta = table.log_beta_values.copy()
        log_beta[1] *= 1.0 + 1e-9
        out["table"] = mo.MomentTable(table.spec, table.log_gamma_values, log_beta,
                                      table.first_infinite)


def restricted_rmax(first_infinite, rmax: int) -> int:
    return rmax if first_infinite is None else min(first_infinite - 1, rmax)


def close(a, b, log_scale: bool = False) -> bool:
    """Equal infinities, finite values within REL_TOL relative (absolute on a log scale)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isinf(a), np.isinf(b)):
        return False
    finite = np.isfinite(a)
    tol = REL_TOL if log_scale else REL_TOL * np.maximum(np.abs(a[finite]), np.abs(b[finite]))
    return bool(np.all(a[~finite] == b[~finite])
                and np.all(np.abs(a[finite] - b[finite]) <= tol))


def schedule_oracle(log_col: np.ndarray):
    """Highest usable order and switch boundaries c*(1 + beta_{r+1}/beta_r)."""
    finite = [r for r in range(1, len(log_col)) if log_col[r] < np.inf]
    last_finite = max(finite, default=0)
    max_order = max(last_finite - 1, 1)
    if last_finite < 2:
        return max_order, np.empty(0)
    r = np.arange(1, max_order + 1)
    return max_order, BOUND_C * (1.0 + np.exp(log_col[r + 1] - log_col[r]))


def bound_oracle(log_col: np.ndarray, max_order: int, x: np.ndarray):
    """Chebyshev bound at each x with the best order found by brute force."""
    orders = np.arange(1, max_order + 1)
    log_raw = (log_col[orders][None, :]
               - orders[None, :] * np.log(x / BOUND_C - 1.0)[:, None]).min(axis=1)
    with np.errstate(over="ignore"):
        raw = np.where(log_raw < 700.0, np.exp(np.minimum(log_raw, 700.0)), np.inf)
    survival = np.where(log_raw < 0.0, -np.expm1(np.minimum(log_raw, 0.0)), 0.0)
    return survival, raw


def boundary_oracle(recorded: dict, horizons: list, rmax: int) -> np.ndarray:
    columns = [np.array(recorded["finite_log_beta"][str(h)]) for h in horizons]
    columns.append(np.array(recorded["infinite_log_beta"]))
    values = np.empty((rmax - 1, len(columns)))
    for j, col in enumerate(columns):
        for i, r in enumerate(range(1, rmax)):
            if col[r + 1] == np.inf or col[r] == np.inf:
                values[i, j] = np.inf
            else:
                values[i, j] = BOUND_C * (1.0 + math.exp(col[r + 1] - col[r]))
    return values


WORKLOADS = {cls.name: cls for cls in (ReproduceCli, McValidation, BoundSweep)}


def versions() -> dict:
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "ruinbounds": ruinbounds.__version__}
