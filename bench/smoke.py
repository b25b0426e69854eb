"""The benchmark's own tests, at small sizes (about two minutes on two cores).

    python3 bench/smoke.py

For every workload it checks that

* an untraced run prints every end-to-end metric of ``BENCHMARK.json`` with
  its unit, prints ``fail_ratio`` with a unit, and reports no failed op;
* a traced run prints every per-layer metric with its unit and leaves no
  tracing wrapper behind in any ``ruinbounds`` module or shock class;
* a run whose first output is deliberately damaged (``--corrupt``) counts
  that op as failed, so ``fail_ratio`` rises above 0 and the run is not
  correct;

and that the benchmark refuses to run, printing no result, in a directory
holding only ``BENCHMARK.json`` and ``bench/``.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, proc.stdout, lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "small"]
        for trace in (0, 1):
            code, stdout, lines = run(*base, "--trace", str(trace))
            result = json.loads(lines[-1])
            provenance = json.loads(lines[-2])["provenance"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: correct, no failed op")
            expect(got == wanted[trace],
                   f"{workload} trace={trace}: every metric with its unit")
            expect(any(line.split()[:1] == ["fail_ratio"] and len(line.split()) == 3
                       for line in lines), f"{workload} trace={trace}: fail_ratio with a unit")
            if trace:
                expect(provenance["wrappers_left"] == 0,
                       f"{workload}: no tracing wrapper left after the traced run")
        code, stdout, lines = run(*base, "--trace", "0", "--corrupt")
        result = json.loads(lines[-1])
        provenance = json.loads(lines[-2])["provenance"]
        expect(code != 0 and not result["correct"] and result["failed"] >= 1
               and provenance["fail_ratio"] > 0,
               f"{workload}: a corrupted output raises fail_ratio")

    (BENCH / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        code, stdout, _ = run("--workload", "bound_sweep", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        expect(code != 0 and '"correct"' not in stdout,
               "without the source tree: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
