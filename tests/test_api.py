"""The package's public surface: which names ``ruinbounds`` exports, where each
one lives, and which modules ``import ruinbounds`` and its first use load."""

import importlib

import pytest

import ruinbounds
from fresh import is_numpy, loaded_modules

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

# The modules the first access to an exported name loads.
LOADED_ON_FIRST_USE = {"ruinbounds", "ruinbounds._defaults", "ruinbounds._special",
                       "ruinbounds.bounds", "ruinbounds.errors", "ruinbounds.moments", "ruinbounds.montecarlo",
                       "ruinbounds.regimes", "ruinbounds.shocks"}


def _package_modules(names):
    return {n for n in names if n == "ruinbounds" or n.startswith("ruinbounds.")}


def test_public_surface():
    names = ruinbounds.__all__
    assert len(names) == len(set(names)) == 38
    assert set(names) == {n for module_names in PUBLIC.values() for n in module_names}
    for module_name, module_names in PUBLIC.items():
        module = importlib.import_module(f"ruinbounds.{module_name}")
        assert getattr(ruinbounds, module_name) is module
        assert sorted(module.__all__) == sorted(module_names)
        for name in module_names:
            assert getattr(ruinbounds, name) is getattr(module, name), name
    assert set(names) <= set(dir(ruinbounds))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ruinbounds import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ruinbounds.__all__)
    for name, value in namespace.items():
        assert value is getattr(ruinbounds, name), name


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "_no_such_name", "__no_such_dunder__"):
        with pytest.raises(AttributeError, match=name):
            getattr(ruinbounds, name)


def test_import_loads_no_computing_module():
    names = loaded_modules("-c", "import ruinbounds")
    assert _package_modules(names) == {"ruinbounds"}
    assert [n for n in names if is_numpy(n)] == []


@pytest.mark.parametrize("access", ["ruinbounds.sample_Z", "ruinbounds.__all__",
                                    "ruinbounds.bounds", "dir(ruinbounds)",
                                    "exec('from ruinbounds import *', {})"])
def test_first_use_loads_the_computing_modules(access):
    names = loaded_modules("-c", f"import ruinbounds; {access}")
    assert _package_modules(names) == LOADED_ON_FIRST_USE
    assert "numpy" in names
    assert not set(names) & {"ruinbounds.cli", "ruinbounds.reference", "ruinbounds.tableio"}
