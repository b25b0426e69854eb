"""Recursive moments of the discounted shock series.

Let ``Z`` be the sum over n >= 1 of the reciprocal products of the first n
shocks, and ``Z_n`` its n-term partial sum.  Writing ``gamma_r`` for the
r-th inverse moment of the shock, the moments ``beta_r = E[Z^r]`` obey

    beta_r = gamma_r / (1 - gamma_r) * sum_{j<r} C(r, j) * beta_j

valid while ``gamma_r < 1`` (with ``beta_0 = 1``); once ``gamma_r >= 1``
the moment of that and every higher order is infinite.  The partial sums
satisfy the horizon recursion

    beta_r(n) = gamma_r * sum_{j<=r} C(r, j) * beta_j(n-1)

with ``beta_0(n) = 1`` and ``beta_r(0) = 0``, which needs no condition on
the mean log shock.

Both recursions have strictly positive summands, so they are evaluated
entirely in log space with log-sum-exp and log-binomial coefficients.
Orders around 60 (where binomials reach ~1e17 and the moments span many
decades) stay exact to float precision; the linear values are recovered
only on demand.  ``first_infinite`` is not read off the sign of the rounded
``log gamma_r``: each family decides ``gamma_r >= 1`` in integer arithmetic
on its stored float parameters (``ShockSpec._exact_gaps``), so a
moment exactly at the boundary is infinite.  Where that exact test finds
``gamma_r < 1`` and the rounded log is within 2**-10 of 0, ``1 - gamma_r``
comes from the same exact integers.

The log-binomial coefficients and the log-sum-exp come from the package's
own kernels in ``_special`` (``lgamma_int``, ``logsumexp``,
``logsumexp_rows``), so importing the package does not load scipy.  They
return the same bits as ``scipy.special.gammaln`` and
``scipy.special.logsumexp``: reproduced tables, recorded benchmark outputs
and every value derived from a moment are compared exactly, so a kernel
that rounds differently in the last place would change published output.

The horizon recursion steps every finite order at once: each step is one
call of a ``logsumexp_rows`` kernel over the rows
``log C(r, j) + log beta_j(n-1)``, padded with -inf.  numpy adds each row
itself, laid out in its 1-d order, so each row has the bits of a scalar
``logsumexp``; a test pins this, cell by cell, against the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._special import lgamma_int, logsumexp, logsumexp_rows
from .errors import _require_growth, _require_integer
from .shocks import _LOG_FLOAT_MAX, ShockSpec

__all__ = ["MomentTable", "FiniteMomentGrid", "infinite_moments", "finite_moments"]


# Within this of 0, log gamma_r holds few digits of 1 - gamma_r, so a finite
# beta_r takes log(1 - gamma_r) from the spec's exact gap
_NEAR_BOUNDARY = 2.0 ** -10


def _log_binomial_rows(rmax: int) -> np.ndarray:
    """Matrix L with L[r, j] = log C(r, j) for j <= r, -inf above the diagonal."""
    log_fact = np.array([lgamma_int(k + 1) for k in range(rmax + 1)])
    r = np.arange(rmax + 1)[:, None]
    j = r.T
    out = log_fact[r] - log_fact[j] - log_fact[np.abs(r - j)]  # abs: in range above the diagonal
    return np.where(j <= r, out, -np.inf)


def _log_gammas(spec: ShockSpec, rmax: int) -> np.ndarray:
    out = np.empty(rmax + 1)
    out[0] = 0.0
    for r in range(1, rmax + 1):
        out[r] = spec.log_inverse_moment(r)
    return out


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Inverse moments and series moments up to a cap, kept in log form.

    ``first_infinite`` is the smallest order whose inverse moment reaches 1
    (so that order and everything above is infinite), or None if that does
    not happen within ``rmax``.  Arrays are 0-indexed by order with the
    order-0 convention value in slot 0; treat them as read-only.
    """

    spec: ShockSpec
    log_gamma_values: np.ndarray
    log_beta_values: np.ndarray
    first_infinite: int | None

    @property
    def rmax(self) -> int:
        return len(self.log_gamma_values) - 1

    def log_beta(self, r: int) -> float:
        return float(self.log_beta_values[r])

    def gamma(self, r: int) -> float:
        return _exp(self.log_gamma_values[r])

    def beta(self, r: int) -> float:
        return _exp(self.log_beta_values[r])


@dataclass(frozen=True, eq=False)
class FiniteMomentGrid:
    """Moments of the partial sums over orders 1..rmax and horizons 1..nmax."""

    spec: ShockSpec
    log_gamma_values: np.ndarray
    log_beta_grid: np.ndarray = field(repr=False)  # shape (rmax+1, nmax+1)

    @property
    def rmax(self) -> int:
        return self.log_beta_grid.shape[0] - 1

    @property
    def nmax(self) -> int:
        return self.log_beta_grid.shape[1] - 1

    def beta(self, r: int, n: int) -> float:
        return _exp(self.log_beta_grid[r, n])


def _exp(log_value: float) -> float:
    # np.exp, not shocks._exp_or_inf's math.exp: the golden digests pin np.exp's last bits
    if log_value > _LOG_FLOAT_MAX:
        return math.inf
    return float(np.exp(log_value))


def first_infinite_order(spec: ShockSpec, cap: int) -> int | None:
    """Smallest order ``r <= cap`` whose inverse moment reaches 1, else None.

    Decided exactly on the spec's stored parameters.
    """
    for r, (num, _) in zip(range(1, cap + 1), spec._exact_gaps()):
        if num <= 0:
            return r
    return None


def infinite_moments(spec: ShockSpec, rmax: int) -> MomentTable:
    """Moments of the full series up to order ``rmax``.

    Requires a positive mean log shock; otherwise the series diverges
    almost surely and no finite moment exists.
    """
    rmax = _require_integer("rmax", rmax, 1)
    _require_growth(spec)
    log_gamma = _log_gammas(spec, rmax)
    log_binom = _log_binomial_rows(rmax)
    first_infinite = first_infinite_order(spec, rmax)
    log_beta = np.full(rmax + 1, np.inf)
    log_beta[0] = 0.0
    for r, (num, den) in zip(range(1, first_infinite or rmax + 1), spec._exact_gaps()):
        lg = log_gamma[r]
        # log(1 - gamma_r); expm1 keeps 1 - gamma_r accurate away from the boundary
        log_gap = math.log(-math.expm1(lg)) if lg <= -_NEAR_BOUNDARY else spec._log_gap(num, den)
        prefactor = lg - log_gap  # log(gamma_r / (1 - gamma_r))
        log_beta[r] = prefactor + logsumexp(log_binom[r, :r] + log_beta[:r])
    log_gamma.setflags(write=False)
    log_beta.setflags(write=False)
    return MomentTable(
        spec=spec,
        log_gamma_values=log_gamma,
        log_beta_values=log_beta,
        first_infinite=first_infinite,
    )


def finite_moments(spec: ShockSpec, rmax: int, nmax: int) -> FiniteMomentGrid:
    """Moments of the n-term partial sums for orders <= rmax, horizons <= nmax.

    Valid for any shock; a row whose inverse moment is itself infinite
    (gamma shocks with shape <= rmax) is marked +inf, and so is every row
    above it.  Each horizon step computes all finite orders at once: row r
    of the batch holds the r + 1 terms ``log C(r, j) + log beta_j(n-1)``.
    """
    rmax = _require_integer("rmax", rmax, 1)
    nmax = _require_integer("nmax", nmax, 1)
    log_gamma = _log_gammas(spec, rmax)
    log_binom = _log_binomial_rows(rmax)
    grid = np.full((rmax + 1, nmax + 1), -np.inf)
    grid[0, :] = 0.0
    # A finite r-th inverse moment makes every lower one finite, so the
    # infinite orders are those from the first infinite gamma_r on.
    infinite = np.flatnonzero(log_gamma == np.inf)
    k = int(infinite[0]) if infinite.size else rmax + 1
    grid[k:, 1:] = np.inf
    if k > 1:
        terms = log_binom[1:k, :k]  # -inf above the diagonal pads the short rows
        logsumexp_each_row = logsumexp_rows(np.arange(2, k + 1), k)
        # a log moment past the float range is +inf, and the -inf padding
        # plus +inf is NaN only where logsumexp_each_row ignores it
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, nmax + 1):
                grid[1:k, n] = log_gamma[1:k] + logsumexp_each_row(terms + grid[:k, n - 1])
    log_gamma.setflags(write=False)
    grid.setflags(write=False)
    return FiniteMomentGrid(spec=spec, log_gamma_values=log_gamma, log_beta_grid=grid)
