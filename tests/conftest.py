import tracemalloc

import pytest

from ruinbounds import Constant, Gamma, Lognormal
from ruinbounds.reference import LOGNORMAL_HEAVY, MATCHED_TRIO, PARETO_HEAVY

# the specs behind the golden outputs, the reference tables and the benchmark
PUBLISHED_SPECS = [
    PARETO_HEAVY, LOGNORMAL_HEAVY, *MATCHED_TRIO.values(),
    Lognormal(0.21459085740810752, 0.06453852113757118),
    Gamma(17.0, 13.333333333333334), Constant(1.5), Constant(1.25),
]


def traced_peak(call):
    """``(result, peak, kept)``: ``call()``, its peak traced bytes, and the bytes it kept.

    tracemalloc counts numpy buffers as well as Python objects, and only what
    the call itself allocates, so the numbers repeat from run to run.
    """
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


@pytest.fixture(scope="session")
def matched_trio():
    """Lognormal/Pareto/gamma specs sharing the first two reciprocal moments."""
    return dict(MATCHED_TRIO)


@pytest.fixture(scope="session")
def heavy_pair():
    """Pareto(0.1, 0.9) and its exact lognormal two-moment match."""
    return {"pareto": PARETO_HEAVY, "lognormal": LOGNORMAL_HEAVY}
