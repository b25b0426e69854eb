"""Independent oracles used by the tests.

Everything here deliberately avoids the package's log-domain code paths:
moments are recomputed with plain floats and math.comb, order selection by
brute-force minimization, deterministic ruin by iterating the wealth map
or by summing its series in exact rationals, and log-moments of densities
by quadrature.
"""

import math
from fractions import Fraction

from scipy.integrate import quad


def naive_infinite_betas(spec, rmax):
    """Series moments by the linear-domain recursion; beta[r], beta[0] = 1."""
    betas = [1.0]
    infinite = False
    for r in range(1, rmax + 1):
        g = spec.inverse_moment(r)
        if infinite or not g < 1.0:
            infinite = True
            betas.append(math.inf)
            continue
        acc = sum(math.comb(r, j) * betas[j] for j in range(r))
        betas.append(g / (1.0 - g) * acc)
    return betas


def naive_finite_betas(spec, rmax, nmax):
    """Partial-sum moments by the linear-domain recursion; grid[r][n]."""
    grid = [[1.0 if r == 0 else 0.0 for _ in range(nmax + 1)] for r in range(rmax + 1)]
    for r in range(1, rmax + 1):
        grid[r][0] = 0.0
    for n in range(1, nmax + 1):
        for r in range(1, rmax + 1):
            g = spec.inverse_moment(r)
            acc = sum(math.comb(r, j) * grid[j][n - 1] for j in range(r + 1))
            grid[r][n] = g * acc
    return grid


def brute_force_best_order(betas, x, c):
    """Order minimizing beta_r / (x/c - 1)**r over the finite orders in ``betas``.

    ``betas`` is 1-based content: betas[r] for r >= 1 (betas[0] ignored).
    """
    w = x / c - 1.0
    best_r, best_val = None, math.inf
    for r in range(1, len(betas)):
        if math.isinf(betas[r]):
            continue
        val = betas[r] / w ** r
        if val < best_val:
            best_r, best_val = r, val
    return best_r, best_val


def iterate_deterministic_ruin(r, x, c, cap=100_000):
    """First period with wealth <= c under the deterministic map, or None."""
    wealth = x
    for n in range(cap + 1):
        if wealth <= c:
            return n
        wealth = r * (wealth - c)
    return None


def exact_ruin_horizon(r, x, c, cap=20_000):
    """Largest N with sum(1/r**j, j < N) < x/c, summed in exact rationals; None past cap."""
    w = Fraction(x) / Fraction(c)
    total, term, inverse = Fraction(0), Fraction(1), 1 / Fraction(r)
    for n in range(cap + 1):
        if not total + term < w:
            return n
        total += term
        term *= inverse
    return None


def quad_expected_log_pareto(beta, k):
    val, _ = quad(lambda x: math.log(x) * beta * k ** beta / x ** (beta + 1.0),
                  k, math.inf)
    return val


def quad_expected_log_gamma(alpha, theta):
    norm = alpha * math.log(theta) - math.lgamma(alpha)
    val, _ = quad(
        lambda x: math.log(x) * math.exp(norm + (alpha - 1.0) * math.log(x) - theta * x),
        0.0, math.inf,
    )
    return val
