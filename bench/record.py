"""Record the reference outputs the benchmark checks each operation against.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/record.py [WORKLOAD ...]

It writes ``bench/reference/<workload>-<size>.json``: for every input in a
workload's pool, the summary of the output that operation produced here.
Operations run in process; ``reproduce_cli`` runs ``cli.main`` exactly as
its traced run does, and its untraced runs must produce the same files.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main(names) -> int:
    out_dir = BENCH / "reference"
    out_dir.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        cls = workloads.WORKLOADS[name]
        for size in workloads.SIZES[name]:
            work = Path(tempfile.mkdtemp(dir=BENCH))
            try:
                wl = cls(size, 0, work)
                refs = {}
                for op in wl.record_ops():
                    out = wl.run(op, in_process=True)
                    refs[op["key"]] = workloads.jsonable(wl.summarize(op, out))
                    wl.cleanup(out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            path = out_dir / f"{name}-{size}.json"
            path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
            print(f"wrote {path} ({len(refs)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
