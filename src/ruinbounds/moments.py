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
only on demand.  ``first_infinite`` is decided by the exact sign test
``log gamma_r >= 0`` so there is no rounding at the boundary.

The log-binomial coefficients and the log-sum-exp come from the package's
own kernels in ``_special`` (``lgamma_int``, ``logsumexp``), so importing
the package does not load scipy.  They return the same bits as
``scipy.special.gammaln`` and ``scipy.special.logsumexp``: reproduced
tables, recorded benchmark outputs and every value derived from a moment
are compared exactly, so a kernel that rounds differently in the last
place would change published output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._special import lgamma_int, logsumexp
from .errors import DomainError
from .shocks import ShockSpec

__all__ = ["MomentTable", "FiniteMomentGrid", "infinite_moments", "finite_moments"]


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def log_beta(self, r: int, n: int) -> float:
        return float(self.log_beta_grid[r, n])

    def beta(self, r: int, n: int) -> float:
        return _exp(self.log_beta_grid[r, n])


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # np.exp stays finite up to here


def _exp(log_value: float) -> float:
    if log_value > _LOG_FLOAT_MAX:
        return math.inf
    return float(np.exp(log_value))


def first_infinite_order(spec: ShockSpec, cap: int) -> int | None:
    """Smallest order ``r <= cap`` whose inverse moment reaches 1, else None."""
    for r in range(1, cap + 1):
        if spec.log_inverse_moment(r) >= 0.0:
            return r
    return None


def infinite_moments(spec: ShockSpec, rmax: int) -> MomentTable:
    """Moments of the full series up to order ``rmax``.

    Requires a positive mean log shock; otherwise the series diverges
    almost surely and no finite moment exists.
    """
    if rmax < 1:
        raise ValueError(f"rmax must be >= 1, got {rmax}")
    if not spec.expected_log() > 0.0:
        raise DomainError(
            "series moments need E[log shock] > 0; the series diverges almost "
            f"surely for {spec!r}"
        )
    log_gamma = _log_gammas(spec, rmax)
    log_binom = _log_binomial_rows(rmax)
    first_infinite = first_infinite_order(spec, rmax)
    log_beta = np.empty(rmax + 1)
    log_beta[0] = 0.0
    for r in range(1, rmax + 1):
        if first_infinite is not None and r >= first_infinite:
            log_beta[r] = np.inf
            continue
        lg = log_gamma[r]
        # log(gamma_r / (1 - gamma_r)); expm1 keeps 1 - gamma_r exact near 1
        prefactor = lg - math.log(-math.expm1(lg))
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
    (gamma shocks with shape <= rmax) is marked +inf, and the infinity
    propagates upward through the recursion.
    """
    if rmax < 1 or nmax < 1:
        raise ValueError(f"rmax and nmax must be >= 1, got rmax={rmax}, nmax={nmax}")
    log_gamma = _log_gammas(spec, rmax)
    log_binom = _log_binomial_rows(rmax)
    grid = np.full((rmax + 1, nmax + 1), -np.inf)
    grid[0, :] = 0.0
    for n in range(1, nmax + 1):
        prev = grid[:, n - 1]
        for r in range(1, rmax + 1):
            if log_gamma[r] == np.inf:
                grid[r, n] = np.inf
                continue
            grid[r, n] = log_gamma[r] + logsumexp(log_binom[r, : r + 1] + prev[: r + 1])
    log_gamma.setflags(write=False)
    grid.setflags(write=False)
    return FiniteMomentGrid(spec=spec, log_gamma_values=log_gamma, log_beta_grid=grid)
