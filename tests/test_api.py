"""The package's public surface: which names ``ruinbounds`` exports, where each
one lives, which modules ``import ruinbounds`` and its first use load, and the
rules its types and entry points share."""

import ast
import dataclasses
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import ruinbounds
from fresh import is_numpy, loaded_modules, run
from ruinbounds import reference
from ruinbounds.montecarlo import derive_seed

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
LOADED_ON_FIRST_USE = {"ruinbounds", "ruinbounds._special", "ruinbounds.bounds",
                       "ruinbounds.errors", "ruinbounds.moments", "ruinbounds.montecarlo",
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


def test_dir_on_a_fresh_import_lists_every_export():
    # dir() is the first access here, so it loads the names it lists
    names = run("-c", "import ruinbounds; print(*dir(ruinbounds))").stdout.split()
    assert "evaluate_bound" in names
    assert set(ruinbounds.__all__) <= set(names)


def test_readme_quick_start_runs_clean():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    lines = run("-W", "error", "-c", block.split("```", 1)[0]).stdout.splitlines()
    assert lines[1] == "0.9274702508902504"  # the Chebyshev bound at x = 2
    assert lines[2] == "0.9806666666666667"  # the seeded Monte Carlo estimate


def _package_dataclasses():
    for info in pkgutil.iter_modules(ruinbounds.__path__):
        module = importlib.import_module(f"ruinbounds.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                yield value


# The three types whose arrays are the data; every other result holds Python values.
IDENTITY_TYPES = {"EcdfEstimate", "FiniteMomentGrid", "MomentTable"}


def _builders():
    """One builder per package dataclass; each call builds a new instance from the same inputs."""
    rb = ruinbounds
    spec = rb.Constant(2.0)
    config = rb.SimConfig(replicates=4, truncation=3, seed=0)
    return {
        "BoundSchedule": lambda: rb.schedule(rb.infinite_moments(spec, 4), 1.0),
        "BoundaryTable": lambda: rb.boundary_table(spec, 1.0, [3, math.inf], 4),
        "MomentTable": lambda: rb.infinite_moments(spec, 3),
        "FiniteMomentGrid": lambda: rb.finite_moments(spec, 3, 4),
        "SimConfig": lambda: rb.SimConfig(replicates=4, truncation=3, seed=0),
        "EcdfEstimate": lambda: rb.sample_Z(spec, config),
        # the stock lies on the rounding boundary of the 2-term sum: path 0 disagrees
        "CrosscheckReport": lambda: rb.crosscheck_equivalence(
            rb.Constant(1.1), 2.7355371900826446, 1.0, 2, 1, seed=0),
        "ReferenceTable": lambda: dataclasses.replace(reference.reference_table(4)),
        "TableResult": lambda: reference.build_table(4),
        "Regime": lambda: rb.classify(rb.Pareto(3.0, 0.9)),
        "Lognormal": lambda: rb.Lognormal(0.2, 0.1),
        "Pareto": lambda: rb.Pareto(3.0, 0.9),
        "Gamma": lambda: rb.Gamma(17.0, 13.0),
        "Constant": lambda: rb.Constant(2.0),
    }


def _equal_with_equal_hash(x, again) -> bool:
    try:
        return x == again and hash(x) == hash(again)
    except (TypeError, ValueError):  # an array compared inside a tuple, or a dict hashed
        return False


def test_results_compare_by_value_unless_arrays_are_the_data():
    """Two instances built from the same inputs are equal and hash equal, except those of the
    three identity types, whose ``eq=False`` keeps the generated ``__eq__`` off their arrays."""
    builders = _builders()
    by_identity, failing = set(), []
    for cls in _package_dataclasses():
        name = cls.__name__
        assert name in builders, f"{name} has no builder in _builders()"
        x, again = builders[name](), builders[name]()
        assert type(x) is cls and type(again) is cls and x is not again, name
        if name in IDENTITY_TYPES:
            by_identity.add(name)
            assert not cls.__dataclass_params__.eq, f"{name} needs eq=False"
            assert x == x and x != again and hash(x) != hash(again), name
        elif not _equal_with_equal_hash(x, again):
            failing.append(name)
    assert failing == []
    assert by_identity == IDENTITY_TYPES
    assert not builders["CrosscheckReport"]().passed  # the report holds a discrepancy


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


def _stock_entry_points():
    """Each public function that takes a stock ``x``, called with it."""
    rb = ruinbounds
    spec = rb.Constant(2.0)
    sched = rb.schedule(rb.infinite_moments(spec, 4), 1.0)
    estimate = rb.sample_Z(spec, rb.SimConfig(replicates=4, truncation=3, seed=0))
    return {
        "evaluate_bound": lambda x: rb.evaluate_bound(sched, x),
        "survival_lower_bound": lambda x: rb.survival_lower_bound(sched, x),
        "ruin_upper_bound": lambda x: rb.ruin_upper_bound(sched, x),
        "order_for": lambda x: sched.order_for(x),
        "ecdf_survival": lambda x: rb.ecdf_survival(estimate, x, 1.0),
        "simulate_path": lambda x: rb.simulate_path(spec, x, 1.0, 5, rb.replicate_stream(0, 0)),
        "crosscheck_equivalence": lambda x: rb.crosscheck_equivalence(spec, x, 1.0, 5, 3, 0),
        "trichotomy": lambda x: rb.trichotomy(rb.classify(spec), x, 1.0),
        "deterministic_horizon": lambda x: rb.deterministic_horizon(2.0, x, 1.0),
    }


@pytest.mark.parametrize("entry", ["evaluate_bound", "survival_lower_bound", "ruin_upper_bound",
                                   "order_for", "ecdf_survival", "simulate_path",
                                   "crosscheck_equivalence", "trichotomy",
                                   "deterministic_horizon"])
def test_stock_must_not_be_nan(entry):
    call = _stock_entry_points()[entry]
    with pytest.raises(ValueError, match=r"^x must not be NaN, got x=nan$"):
        call(math.nan)
    call(3.0)


def _degenerate_stock_entry_points():
    """The bound entry points on a schedule with no edge, where no comparison meets ``x``."""
    rb = ruinbounds
    sched = rb.schedule(rb.infinite_moments(rb.Pareto(0.1, 0.9), 1), 1.0)
    assert sched.degenerate
    return {
        "evaluate_bound": lambda x: rb.evaluate_bound(sched, x),
        "survival_lower_bound": lambda x: rb.survival_lower_bound(sched, x),
        "ruin_upper_bound": lambda x: rb.ruin_upper_bound(sched, x),
        "order_for": lambda x: sched.order_for(x),
    }


@pytest.mark.parametrize("x", ["0.5", "3.0"])
@pytest.mark.parametrize("entry", ["evaluate_bound", "survival_lower_bound", "ruin_upper_bound",
                                   "order_for", "ecdf_survival", "simulate_path",
                                   "crosscheck_equivalence", "trichotomy",
                                   "deterministic_horizon", "degenerate_evaluate_bound",
                                   "degenerate_survival_lower_bound",
                                   "degenerate_ruin_upper_bound", "degenerate_order_for"])
def test_stock_must_be_a_number_not_text(entry, x):
    """``float`` would parse the text; the stock rule takes numbers only."""
    calls = {**_stock_entry_points(),
             **{f"degenerate_{name}": call
                for name, call in _degenerate_stock_entry_points().items()}}
    with pytest.raises(TypeError):
        calls[entry](x)


@pytest.mark.parametrize("x", [0.0, -1.0, -math.inf])
@pytest.mark.parametrize("entry", ["ecdf_survival", "simulate_path"])
def test_stock_must_be_positive_where_it_is_simulated(entry, x):
    with pytest.raises(ValueError, match=f"^x must be positive, got x={x}$"):
        _stock_entry_points()[entry](x)


@pytest.mark.parametrize("x, c", [(np.float64(1e300), 1e-10), (1e300, np.float64(1e-10))],
                         ids=["numpy_x", "numpy_c"])
@pytest.mark.parametrize("entry", ["evaluate_bound", "ecdf_survival", "trichotomy",
                                   "crosscheck_equivalence", "simulate_path"])
def test_numpy_scalar_divides_as_a_python_float(entry, x, c):
    """Where x/c (or the wealth) overflows, a numpy scalar stock or level gives the Python
    floats' answer, with no numpy overflow warning (an error under this suite's settings)."""
    rb = ruinbounds
    spec = rb.Constant(2.0)
    estimate = rb.sample_Z(spec, rb.SimConfig(replicates=4, truncation=3, seed=0))
    call = {
        "evaluate_bound": lambda x, c: rb.evaluate_bound(
            rb.schedule(rb.infinite_moments(reference.LOGNORMAL_HEAVY, 4), c), x),
        "ecdf_survival": lambda x, c: rb.ecdf_survival(estimate, x, c),
        "trichotomy": lambda x, c: rb.trichotomy(rb.classify(spec), x, c),
        "crosscheck_equivalence": lambda x, c: rb.crosscheck_equivalence(spec, x, c, 5, 3, 0),
        # the wealth doubles each period and passes the float range in period 28
        "simulate_path": lambda x, c: rb.simulate_path(spec, x, c, 30, rb.replicate_stream(0, 0)),
    }[entry]
    assert call(x, c) == call(float(x), float(c))


def _numpy_scalar_calls():
    """Calls whose numpy-scalar arithmetic would overflow, each with numpy and Python arguments."""
    rb = ruinbounds
    calls = {
        "lognormal_mu": lambda f, i: rb.Lognormal(f(1e308), 1.0).log_inverse_moment(2),
        "lognormal_order": lambda f, i: rb.Lognormal(1.0, 1e308).log_inverse_moment(i(2)),
        "pareto_expected_log": lambda f, i: rb.Pareto(f(1e-320), 2.0).expected_log(),
        "deterministic_min_stock": lambda f, i: rb.deterministic_min_stock(f(1 + 2 ** -52),
                                                                           f(1e300)),
    }
    for spec in (rb.Lognormal(0.2, 0.1), rb.Pareto(3.0, 0.9), rb.Gamma(17.0, 13.0),
                 rb.Constant(2.0)):
        calls[f"{spec.family}_log_inverse_moment"] = (
            lambda f, i, spec=spec: spec.log_inverse_moment(i(3)))
    return calls


@pytest.mark.parametrize("entry", sorted(_numpy_scalar_calls()))
def test_numpy_scalar_computes_as_a_python_number(entry):
    """Each rule admits a numpy scalar as the equal Python number, so no numpy overflow warning
    (an error under this suite's settings) is raised, and the result is a Python float."""
    call = _numpy_scalar_calls()[entry]
    got = call(np.float64, np.int64)
    assert type(got) is float
    assert got == call(float, int)


def _python_fields(entry: str, numpy: bool) -> tuple:
    """The numeric fields of one result, built from numpy or from Python arguments."""
    rb = ruinbounds
    f, i = (np.float64, np.int64) if numpy else (float, int)
    if entry == "Regime":
        return dataclasses.astuple(rb.classify(rb.Constant(f(1 + 2 ** -52))))
    if entry == "match_inverse_moments":
        spec = rb.match_inverse_moments("gamma", f(5 / 6), f(20 / 27))
        return spec.alpha, spec.theta
    config = rb.SimConfig(replicates=i(8), truncation=np.int32(5) if numpy else 5,
                          seed=np.uint64(2 ** 64 - 1) if numpy else 2 ** 64 - 1)
    if entry == "SimConfig":
        return config.replicates, config.truncation, config.seed
    if entry == "EcdfEstimate":
        est = rb.sample_Z(rb.Pareto(3.0, 0.9), config)
        return (est.seed, est.n, est.replicates, *est.samples.tolist())
    spec = rb.Constant(2.0)
    if entry == "BoundSchedule":
        return (rb.schedule(rb.finite_moments(spec, 4, 4), 1.0, i(4)).horizon,)
    if entry == "BoundaryTable":
        return rb.boundary_table(spec, f(1.0), [i(3), math.inf], 4).horizons
    report = rb.crosscheck_equivalence(spec, f(3.0), f(1.5), i(5), i(3), i(0))
    return report.x, report.c, report.horizon, report.paths, report.seed


@pytest.mark.parametrize("entry", ["Regime", "match_inverse_moments", "SimConfig",
                                   "EcdfEstimate", "BoundSchedule", "BoundaryTable",
                                   "CrosscheckReport"])
def test_results_hold_python_numbers_from_numpy_arguments(entry):
    got = _python_fields(entry, numpy=True)
    assert [type(v) for v in got if type(v) not in (int, float)] == []
    assert got == _python_fields(entry, numpy=False)


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
        "derive_seed": lambda seed: derive_seed(seed, 1),
    }


SEEDED = ["SimConfig", "replicate_stream", "crosscheck_equivalence", "build_table",
          "derive_seed"]


@pytest.mark.parametrize("seed", [True, -1, 2.5, 2 ** 64])
@pytest.mark.parametrize("entry", SEEDED)
def test_seed_must_be_an_unsigned_64_bit_integer(entry, seed):
    with pytest.raises(ValueError, match="^seed must be "):
        _seeded_calls()[entry](seed)


@pytest.mark.parametrize("index", [True, -1, 2.5, "1", None])
@pytest.mark.parametrize("call", [lambda i: ruinbounds.replicate_stream(0, i),
                                  lambda i: derive_seed(1, i),
                                  lambda i: derive_seed(1, 3, i)],
                         ids=["replicate_stream", "derive_seed", "derive_seed_second"])
def test_index_must_be_a_non_negative_integer(call, index):
    with pytest.raises(ValueError, match="^index must be "):
        call(index)


@pytest.mark.parametrize("entry", SEEDED)
def test_numpy_seed_gives_the_bits_of_the_equal_int(entry):
    call = _seeded_calls()[entry]
    assert call(np.uint64(2 ** 64 - 1)) == call(2 ** 64 - 1)


@pytest.mark.parametrize("rule", [r"horizon must be an integer >= 1 or math\.inf",
                                  r"must be positive and finite",
                                  r"2\s*\*\*\s*64",
                                  r"truncation\s*!=\s*\"adaptive\"",
                                  r"x must not be NaN",
                                  r"x must be positive",
                                  r"needs? E\[log shock\] > 0",
                                  r"must be finite",
                                  r"math\.ldexp",
                                  r"operator\.index"])
def test_each_input_rule_is_stated_once(rule):
    """The horizon, positive-and-finite, seed, truncation, NaN-stock, positive-stock,
    growth and finite rules, and the two conversions they admit with, are in ``errors``
    alone."""
    package = Path(ruinbounds.__file__).parent
    stating = [path.name for path in sorted(package.glob("*.py"))
               if re.search(rule, path.read_text(encoding="utf-8"))]
    assert stating == ["errors.py"]


def test_no_module_converts_an_argument_itself():
    """The conversions the rules replaced are gone from every module."""
    package = Path(ruinbounds.__file__).parent
    converting = [(path.name, m.group()) for path in sorted(package.glob("*.py"))
                  for m in re.finditer(r"\bfloat\((x|c)\)|\bint\((config\.|h\))",
                                       path.read_text(encoding="utf-8"))]
    assert converting == []


# The calls of a rule whose value no code computes on: a rule that returns
# nothing, and order_for's NaN check, after which it computes nothing on x.
UNBOUND_RULE_CALLS = {("bounds.py", "order_for", "_require_stock"),
                      ("moments.py", "infinite_moments", "_require_growth"),
                      ("montecarlo.py", "sample_Z", "_require_growth"),
                      ("shocks.py", "__post_init__", "_require_shock_parameters")}


def test_callers_compute_on_what_each_rule_admits():
    """Outside ``errors``, every other call of a rule is bound or passed on, never dropped."""
    package = Path(ruinbounds.__file__).parent
    dropped = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id.startswith("_require_")):
                    dropped.add((path.name, func.name, node.value.func.id))
    assert dropped == UNBOUND_RULE_CALLS


def test_shock_families_keep_no_parameter_check_of_their_own():
    """``ShockSpec.__post_init__`` checks each family's parameters with the rule in ``errors``."""
    for cls in (ruinbounds.Lognormal, ruinbounds.Pareto, ruinbounds.Gamma, ruinbounds.Constant):
        assert "__post_init__" not in vars(cls), cls.__name__


def test_numpy_and_seed_derivation_stay_in_their_modules():
    """Only the computing kernels import numpy, and only ``montecarlo`` derives seeds."""
    package = Path(ruinbounds.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    importing = [name for name, text in sources.items()
                 if re.search(r"^\s*(import|from)\s+numpy\b", text, re.MULTILINE)]
    assert importing == ["_special", "moments", "montecarlo", "shocks"]
    assert [name for name, text in sources.items() if "SeedSequence" in text] == ["montecarlo"]


def test_philox_is_built_in_the_reference_and_the_row_loop_alone():
    """``replicate_stream`` builds the reference stream; ``_row_blocks`` re-keys its own."""
    text = (Path(ruinbounds.__file__).parent / "montecarlo.py").read_text(encoding="utf-8")
    assert text.count("np.random.Philox(") == 2
    building = [node.name for node in ast.parse(text).body
                if isinstance(node, ast.FunctionDef)
                and "np.random.Philox(" in ast.get_source_segment(text, node)]
    assert building == ["replicate_stream", "_row_blocks"]
