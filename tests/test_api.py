"""The package's public surface: which names ``ruinbounds`` exports, where each
one lives, and which modules ``import ruinbounds`` loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import ruinbounds

PUBLIC = {
    "bounds": ["BoundResult", "BoundSchedule", "BoundaryTable", "boundary_table",
               "evaluate_bound", "ruin_upper_bound", "schedule", "schedules",
               "survival_lower_bound"],
    "errors": ["ConfigError", "DomainError", "FeasibilityError"],
    "moments": ["FiniteMomentGrid", "MomentTable", "finite_moments", "infinite_moments"],
    "montecarlo": ["CrosscheckReport", "EcdfEstimate", "SimConfig", "crosscheck_equivalence",
                   "ecdf_survival", "replicate_stream", "sample_Z", "simulate_path"],
    "regimes": ["Regime", "Trichotomy", "classify", "deterministic_horizon",
                "deterministic_min_stock", "trichotomy"],
    "shocks": ["Constant", "Gamma", "Lognormal", "Pareto", "ShockSpec", "SupportBounds",
               "match_inverse_moments", "spec_from_record"],
}

LOADED_BY_IMPORT = {"ruinbounds", "ruinbounds._special", "ruinbounds.bounds",
                    "ruinbounds.errors", "ruinbounds.moments", "ruinbounds.montecarlo",
                    "ruinbounds.regimes", "ruinbounds.shocks"}


def test_public_surface():
    names = ruinbounds.__all__
    assert len(names) == len(set(names)) == 38
    assert set(names) == {n for module_names in PUBLIC.values() for n in module_names}
    for module_name, module_names in PUBLIC.items():
        module = importlib.import_module(f"ruinbounds.{module_name}")
        assert sorted(module.__all__) == sorted(module_names)
        for name in module_names:
            assert getattr(ruinbounds, name) is getattr(module, name), name

    src = str(Path(ruinbounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ruinbounds; print(*sorted(m for m in sys.modules"
         " if m == 'ruinbounds' or m.startswith('ruinbounds.')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded == LOADED_BY_IMPORT
    assert not loaded & {"ruinbounds.cli", "ruinbounds.reference", "ruinbounds.tableio"}
