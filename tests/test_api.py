"""The package's public surface: which names ``ruinbounds`` exports, where each
one lives, which modules ``import ruinbounds`` and its first use load, and the
rules its types and entry points share."""

import dataclasses
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import ruinbounds
from fresh import is_numpy, loaded_modules
from ruinbounds import reference

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
    "shocks": ["Constant", "Gamma", "Lognormal", "Pareto", "ShockSpec",
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
    assert len(names) == len(set(names)) == 37
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


def _package_dataclasses():
    for info in pkgutil.iter_modules(ruinbounds.__path__):
        module = importlib.import_module(f"ruinbounds.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                yield value


def test_array_fields_mean_identity_equality():
    """A generated ``__eq__`` compares the fields as tuples, which raises on an array."""
    holding_arrays = set()
    for cls in _package_dataclasses():
        if any("ndarray" in str(f.type) for f in dataclasses.fields(cls)):
            holding_arrays.add(cls.__name__)
            assert not cls.__dataclass_params__.eq, f"{cls.__name__} needs eq=False"
    assert holding_arrays == {"BoundaryTable", "EcdfEstimate", "FiniteMomentGrid",
                              "MomentTable"}
    table = ruinbounds.infinite_moments(ruinbounds.Constant(2.0), 3)
    again = ruinbounds.infinite_moments(ruinbounds.Constant(2.0), 3)
    assert table == table and table != again
    assert hash(table) != hash(again)


def _entry_points():
    """Each public function that takes a consumption level, called with it."""
    rb = ruinbounds
    spec = rb.Constant(2.0)
    estimate = rb.sample_Z(spec, rb.SimConfig(replicates=4, truncation=3, seed=0))
    return {
        "schedule": lambda c: rb.schedule(rb.infinite_moments(spec, 4), c),
        "schedules": lambda c: rb.schedules(spec, c, [3, math.inf], 4),
        "boundary_table": lambda c: rb.boundary_table(spec, c, [3, math.inf], 4),
        "ecdf_survival": lambda c: rb.ecdf_survival(estimate, 3.0, c),
        "simulate_path": lambda c: rb.simulate_path(spec, 3.0, c, 5, rb.replicate_stream(0, 0)),
        "crosscheck_equivalence": lambda c: rb.crosscheck_equivalence(spec, 3.0, c, 5, 3, 0),
        "deterministic_min_stock": lambda c: rb.deterministic_min_stock(2.0, c),
        "deterministic_horizon": lambda c: rb.deterministic_horizon(2.0, 3.0, c),
        "trichotomy": lambda c: rb.trichotomy(rb.classify(spec), 3.0, c),
    }


@pytest.mark.parametrize("c", [math.inf, 0.0, -1.0, -math.inf, math.nan])
@pytest.mark.parametrize("entry", ["schedule", "schedules", "boundary_table", "ecdf_survival",
                                   "simulate_path", "crosscheck_equivalence",
                                   "deterministic_min_stock", "deterministic_horizon",
                                   "trichotomy"])
def test_consumption_must_be_positive_and_finite(entry, c):
    call = _entry_points()[entry]
    with pytest.raises(ValueError, match=f"consumption must be positive and finite, got c={c}"):
        call(c)
    call(1.5)


def _seeded_calls():
    """Each public function that takes a seed, called with it; equal results hold equal bits."""
    rb = ruinbounds
    spec = rb.Pareto(3.0, 0.9)
    return {
        "SimConfig": lambda seed: rb.sample_Z(
            spec, rb.SimConfig(replicates=4, truncation=3, seed=seed)).samples.tobytes(),
        "replicate_stream": lambda seed: rb.replicate_stream(seed, 0).random(4).tobytes(),
        "crosscheck_equivalence": lambda seed: rb.crosscheck_equivalence(spec, 3.0, 1.0, 5, 3,
                                                                         seed),
        "build_table": lambda seed: repr(reference.build_table(7, seed, replicates=20).rows),
        "derive_seed": lambda seed: reference.derive_seed(seed, 1),
    }


SEEDED = ["SimConfig", "replicate_stream", "crosscheck_equivalence", "build_table",
          "derive_seed"]


@pytest.mark.parametrize("seed", [True, -1, 2.5, 2 ** 64])
@pytest.mark.parametrize("entry", SEEDED)
def test_seed_must_be_an_unsigned_64_bit_integer(entry, seed):
    with pytest.raises(ValueError, match="^seed must be "):
        _seeded_calls()[entry](seed)


@pytest.mark.parametrize("entry", SEEDED)
def test_numpy_seed_gives_the_bits_of_the_equal_int(entry):
    call = _seeded_calls()[entry]
    assert call(np.uint64(2 ** 64 - 1)) == call(2 ** 64 - 1)


@pytest.mark.parametrize("rule", [r"horizon must be an integer >= 1 or math\.inf",
                                  r"must be positive and finite",
                                  r"2\s*\*\*\s*64"])
def test_each_input_rule_is_stated_once(rule):
    """The horizon, positive-and-finite and seed rules are written in ``errors`` alone."""
    package = Path(ruinbounds.__file__).parent
    stating = [path.name for path in sorted(package.glob("*.py"))
               if re.search(rule, path.read_text(encoding="utf-8"))]
    assert stating == ["errors.py"]
