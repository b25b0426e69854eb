"""Survival and ruin probabilities for consumption under multiplicative shocks.

A wealth process consumes a fixed amount each period and multiplies the
remaining surplus by an i.i.d. positive shock.  This package classifies
the survival regime of a shock distribution, computes moments of the
associated discounted shock series by exact recursion, turns them into
piecewise Chebyshev lower bounds on survival probability, and validates
everything against seeded Monte Carlo simulation.  A command-line front
end reproduces the reference numerical tables end to end.

``import ruinbounds`` loads neither numpy nor any computing module.  The
first access to a public name not yet bound (an exported name or
``__all__``) imports the six modules below once and binds their names
here.  So the CLI answers ``--version`` and ``--help`` without numpy.  The
submodules ``cli``, ``reference`` and ``tableio`` are left to the import
system, so ``from ruinbounds import tableio`` loads what
``import ruinbounds.tableio`` loads, and no more.
"""

import sys

__version__ = "0.1.0"
# the reference tables' run defaults, here for the CLI; reference exports them
_DEFAULT_SEED = 20250801
_DEFAULT_REPLICATES = 3000

# Each module's __all__ is the one list of its public names.
_MODULES = ("bounds", "errors", "moments", "montecarlo", "regimes", "shocks")
# Submodules that export nothing here; ``from ruinbounds import cli`` imports cli alone.
_OWN_MODULES = ("cli", "reference", "tableio")


def _load() -> None:
    names = []
    for module_name in _MODULES:
        # __import__ rather than importlib.import_module: -X importtime reports it
        __import__(f"{__name__}.{module_name}")
        module = sys.modules[f"{__name__}.{module_name}"]
        for name in module.__all__:
            globals()[name] = getattr(module, name)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    # a private name is never exported, so probing one loads nothing
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")
                                       and name not in _OWN_MODULES):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
