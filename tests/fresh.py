"""The modules a fresh interpreter loads, for the import tests."""

import os
import subprocess
import sys
from pathlib import Path

import ruinbounds

SRC = str(Path(ruinbounds.__file__).resolve().parents[1])


def loaded_modules(*args, returncode=0, cwd=None):
    """Names of every module ``python -X importtime *args`` imports, in import order.

    The process runs with the package's source tree first on PYTHONPATH and
    must exit with ``returncode``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return [line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")]


def is_numpy(name):
    return name == "numpy" or name.startswith("numpy.")
