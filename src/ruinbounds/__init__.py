"""Survival and ruin probabilities for consumption under multiplicative shocks.

A wealth process consumes a fixed amount each period and multiplies the
remaining surplus by an i.i.d. positive shock.  This package classifies
the survival regime of a shock distribution, computes moments of the
associated discounted shock series by exact recursion, turns them into
piecewise Chebyshev lower bounds on survival probability, and validates
everything against seeded Monte Carlo simulation.  A command-line front
end reproduces the reference numerical tables end to end.
"""

from . import bounds, errors, moments, montecarlo, regimes, shocks
from .bounds import *
from .errors import *
from .moments import *
from .montecarlo import *
from .regimes import *
from .shocks import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = []
__all__ += bounds.__all__
__all__ += errors.__all__
__all__ += moments.__all__
__all__ += montecarlo.__all__
__all__ += regimes.__all__
__all__ += shocks.__all__
