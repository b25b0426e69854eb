"""Spans around calls into the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``ruinbounds`` module that holds a binding to it (``reference`` and
``bounds`` each hold their own ``finite_moments``, for example), and each
shock class's ``sample_inverse`` and ``log_inverse_moment``.  Spans (name,
start, end, parent span, op id) are kept in flat arrays in memory;
``restore`` puts every original back.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

MARK = "__bench_trace__"

# (module, function) pairs traced, with the layer each belongs to.
FUNCTIONS = [
    ("ruinbounds.cli", "main"),
    ("ruinbounds.reference", "build_table"),
    ("ruinbounds.tableio", "write_csv_table"),
    ("ruinbounds.tableio", "write_json"),
    ("ruinbounds.tableio", "read_csv_table"),
    ("ruinbounds.tableio", "read_json"),
    ("ruinbounds.moments", "infinite_moments"),
    ("ruinbounds.moments", "finite_moments"),
    ("ruinbounds.bounds", "schedule"),
    ("ruinbounds.bounds", "evaluate_bound"),
    ("ruinbounds.bounds", "boundary_table"),
    ("ruinbounds.montecarlo", "replicate_stream"),
    ("ruinbounds.montecarlo", "sample_Z"),
    ("ruinbounds.montecarlo", "crosscheck_equivalence"),
    ("ruinbounds.montecarlo", "simulate_path"),
    ("ruinbounds.montecarlo", "ecdf_survival"),
    ("ruinbounds.regimes", "classify"),
]
SHOCK_CLASSES = ("Lognormal", "Pareto", "Gamma", "Constant")
SHOCK_METHODS = ("sample_inverse", "log_inverse_moment")


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _count(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Work counters taken at the same boundary as the span."""
    c = tracer.counts
    if name == "moments.finite_moments":
        rmax = kwargs.get("rmax", args[1] if len(args) > 1 else None)
        nmax = kwargs.get("nmax", args[2] if len(args) > 2 else None)
        c["moments.finite_cells"] += rmax * nmax
    elif name == "bounds.evaluate_bound":
        c["bounds.vacuous"] += bool(result.vacuous)
    elif name == "montecarlo.sample_Z":
        c["montecarlo.replicates"] += result.replicates
    elif name == "montecarlo.crosscheck_equivalence":
        c["montecarlo.paths"] += result.paths
    elif name == "montecarlo.simulate_path":
        c["montecarlo.paths"] += 1
    elif name.endswith(".sample_inverse"):
        draws = int(np.size(result))
        c["shocks.draws"] += draws
        if tracer.active["montecarlo.sample_Z"]:
            c["shocks.draws_in_sample_Z"] += draws
    elif name in ("tableio.write_csv_table", "tableio.write_json"):
        c["tableio.bytes"] += _file_bytes(result)
    elif name in ("tableio.read_csv_table", "tableio.read_json"):
        c["tableio.bytes"] += _file_bytes(kwargs.get("path", args[0] if args else None))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.stack: list[int] = []
        self.op_id = -1
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.active[name] -= 1
                self.start[idx] = t0
                self.end[idx] = t1
                self.counts[name + ".calls"] += 1
            _count(self, name, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ruinbounds" or n.startswith("ruinbounds."))]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        shocks = sys.modules["ruinbounds.shocks"]
        for cls_name in SHOCK_CLASSES:
            cls = getattr(shocks, cls_name)
            for method in SHOCK_METHODS:
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(f"shocks.{cls_name}.{method}", original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Total self time per traced name: span time minus time in its child spans."""
        parent = np.frombuffer(self.parent, dtype=np.int_) if len(self) else np.empty(0, int)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start) if len(self) else np.empty(0)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        by_name = np.bincount(np.frombuffer(self.name, dtype=np.int_),
                              weights=dur - child, minlength=len(self.names))
        return {name: float(by_name[i]) for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int_),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            op=np.frombuffer(self.op, dtype=np.int_))


def leftover_wrappers() -> int:
    """Traced wrappers still reachable from any ruinbounds module or shock class."""
    found = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ruinbounds" or name.startswith("ruinbounds.")):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            found += sum(1 for v in vars(owner).values() if getattr(v, MARK, False))
    return found
