"""Independent oracles used by the tests.

Everything here but one deliberately avoids the package's log-domain code
paths: moments are recomputed with plain floats and math.comb or in
50-digit mpmath, order selection by brute-force minimization,
deterministic ruin by iterating the wealth map or by summing its series in
exact rationals, random ruin by the wealth map on numpy floats, the adaptively truncated
shock series one replicate and one block at a time, series
moments of Pareto and gamma shocks in exact rationals of their stored
parameters, log-moments of densities by quadrature, survival to horizon 1
from the reciprocal shock's closed-form CDF, and survival and moments at
horizon 2 by quadrature over its quantile.  CSV tables are rendered and
read back one cell at a time, through ``format_cell``/``parse_cell`` and
the csv module.  The exception
is ``per_cell_finite_moments``: the partial-sum recursion with one scalar
``logsumexp`` per cell, which pins the bits of the batched recursion.
"""

import csv
import io
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc, gammaincinv, ndtr


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


def per_cell_finite_moments(spec, rmax, nmax):
    """``finite_moments``' log grid by the per-cell recursion, one ``logsumexp`` per cell.

    The reference for the batched recursion, which must match it bit for bit.
    """
    from ruinbounds._special import logsumexp
    from ruinbounds.moments import _log_binomial_rows

    log_gamma = [0.0] + [spec.log_inverse_moment(r) for r in range(1, rmax + 1)]
    log_binom = _log_binomial_rows(rmax)
    grid = np.full((rmax + 1, nmax + 1), -np.inf)
    grid[0, :] = 0.0
    for n in range(1, nmax + 1):
        prev = grid[:, n - 1]
        for r in range(1, rmax + 1):
            if log_gamma[r] == math.inf:
                grid[r, n] = math.inf
                continue
            grid[r, n] = log_gamma[r] + logsumexp(log_binom[r, : r + 1] + prev[: r + 1])
    return grid


def mp_finite_log_betas(log_gamma, nmax, dps=50):
    """log beta_r(n) by the partial-sum recursion in ``dps``-digit mpmath, rounded to floats.

    ``log_gamma`` holds the float log gamma_r for r = 0..rmax.  A row whose
    gamma_r is infinite, and every row above it, is +inf for n >= 1.
    """
    rmax = len(log_gamma) - 1
    k = next((r for r in range(1, rmax + 1) if log_gamma[r] == math.inf), rmax + 1)
    grid = np.full((rmax + 1, nmax + 1), -np.inf)
    grid[0, :] = 0.0
    grid[k:, 1:] = math.inf
    with mpmath.workdps(dps):
        gamma = [mpmath.exp(mpmath.mpf(float(lg))) for lg in log_gamma[:k]]
        prev = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (k - 1)
        for n in range(1, nmax + 1):
            prev = [prev[0]] + [
                gamma[r] * mpmath.fsum(math.comb(r, j) * prev[j] for j in range(r + 1))
                for r in range(1, k)
            ]
            grid[1:k, n] = [float(mpmath.log(b)) for b in prev[1:]]
    return grid


def mp_infinite_log_betas(log_gamma, first_infinite, dps=50):
    """log beta_r by the series recursion in ``dps``-digit mpmath, rounded to floats.

    ``log_gamma`` holds the float log gamma_r for r = 0..rmax; orders from
    ``first_infinite`` on (None: none) are +inf, as the package decides them.
    """
    rmax = len(log_gamma) - 1
    k = rmax + 1 if first_infinite is None else first_infinite
    out = np.full(rmax + 1, math.inf)
    out[0] = 0.0
    with mpmath.workdps(dps):
        betas = [mpmath.mpf(1)]
        for r in range(1, k):
            gamma = mpmath.exp(mpmath.mpf(float(log_gamma[r])))
            betas.append(gamma / (1 - gamma)
                         * mpmath.fsum(math.comb(r, j) * betas[j] for j in range(r)))
            out[r] = float(mpmath.log(betas[r]))
    return out


def _mp_log_inverse_moment(spec, r):
    """log E[shock^-r] at mpmath's working precision, from the stored float parameters."""
    if spec.family == "lognormal":
        return -r * mpmath.mpf(spec.mu) + r * r * mpmath.mpf(spec.sigma2) / 2
    if spec.family == "gamma":
        return mpmath.inf if r >= spec.alpha else mpmath.fsum(_mp_gamma_terms(spec, r))
    if spec.family == "pareto":
        beta = mpmath.mpf(spec.beta)
        return mpmath.log(beta) - r * mpmath.log(spec.k) - mpmath.log(beta + r)
    raise ValueError(f"no mpmath moment for {spec.family}")


def _mp_gamma_terms(spec, r):
    """``r log(theta/alpha)`` and ``-sum_{j<=r} log(1 - j/alpha)``, whose sum is a gamma
    spec's log E[shock^-r] for r < alpha.

    The identity Gamma(alpha)/Gamma(alpha - r) = prod_{j<=r} (alpha - j) is exact;
    ``loggamma(alpha - r) - loggamma(alpha)`` would cancel at 50 digits for a large shape.
    """
    alpha = mpmath.mpf(spec.alpha)
    return (r * (mpmath.log(spec.theta) - mpmath.log(alpha)),
            -mpmath.fsum(mpmath.log1p(-j / alpha) for j in range(1, r + 1)))


def mp_gamma_log_inverse_moment(spec, r, dps=50):
    """``(log E[shock^-r], scale)`` of a gamma spec, r < alpha, in ``dps``-digit mpmath, rounded.

    ``scale`` is the larger magnitude of the two terms of ``_mp_gamma_terms``,
    the size of their rounding errors where the sum cancels.
    """
    with mpmath.workdps(dps):
        terms = _mp_gamma_terms(spec, r)
        return float(mpmath.fsum(terms)), max(abs(float(t)) for t in terms)


def mp_log_inverse_moment(spec, r, dps=50):
    """log E[shock^-r] of a lognormal, Pareto or gamma spec in ``dps``-digit mpmath, rounded."""
    with mpmath.workdps(dps):
        return float(_mp_log_inverse_moment(spec, r))


def mp_expected_log(spec, dps=50):
    """``(E[log shock], scale)`` in ``dps``-digit mpmath from the stored parameters, rounded.

    E[log shock] is log k + 1/beta for a Pareto and digamma(alpha) - log theta
    for a gamma spec; ``scale`` is the larger magnitude of the two terms, the
    size of their rounding errors where the sum cancels.  A lognormal's is
    mu and a constant's log a, a single term.
    """
    with mpmath.workdps(dps):
        if spec.family == "lognormal":
            terms = (mpmath.mpf(spec.mu),)
        elif spec.family == "pareto":
            terms = (mpmath.log(spec.k), 1 / mpmath.mpf(spec.beta))
        elif spec.family == "gamma":
            terms = (mpmath.digamma(spec.alpha), -mpmath.log(spec.theta))
        else:
            terms = (mpmath.log(spec.a),)
        return float(mpmath.fsum(terms)), max(abs(float(t)) for t in terms)


def mp_inverse_moments(spec, dps=50):
    """``(gamma_1, gamma_2)`` of a lognormal, Pareto or gamma spec in ``dps``-digit mpmath, rounded."""
    with mpmath.workdps(dps):
        return tuple(float(mpmath.exp(_mp_log_inverse_moment(spec, r))) for r in (1, 2))


def mp_switch_boundary(log_beta, r, c, dps=50):
    """``c*(1 + beta_{r+1}/beta_r)`` in ``dps``-digit mpmath from the float log moments, rounded.

    ``+inf`` when either moment is infinite or the edge exceeds the float range.
    """
    if math.inf in (log_beta[r], log_beta[r + 1]):
        return math.inf
    with mpmath.workdps(dps):
        ratio = mpmath.exp(mpmath.mpf(float(log_beta[r + 1])) - mpmath.mpf(float(log_beta[r])))
        return float(mpmath.mpf(c) * (1 + ratio))


def mp_bound_log_path(log_beta_r, r, x, c, dps=50):
    """``(ruin_raw, survival_lower)`` of order r at stock ``x > c``, in ``dps``-digit mpmath.

    ``ruin_raw = beta_r / (x/c - 1)**r`` from the float ``log beta_r`` and the
    exact x and c, and ``survival_lower = 1 - ruin_raw``, both rounded to
    floats.  No clamping: the caller compares only where the package's
    value is not clamped.
    """
    with mpmath.workdps(dps):
        excess = mpmath.mpf(x) / mpmath.mpf(c) - 1
        raw = mpmath.exp(mpmath.mpf(float(log_beta_r)) - r * mpmath.log(excess))
        return float(raw), float(1 - raw)


def exact_survival_horizon_1(spec, t):
    """P(Z_1 < t) = P(Y < t), with Y the reciprocal shock, from its closed-form CDF.

    Read from the spec's parameters alone: a lognormal shock exp(N), N normal
    (mu, sigma2), gives Phi((log t + mu) / sigma); a Pareto shock on [k, inf)
    with index beta gives min(1, (k t)**beta); a gamma shock of shape alpha
    and rate theta gives Q(alpha, theta / t); a constant a gives 1 if 1/a < t.
    """
    if spec.family == "lognormal":
        return float(ndtr((math.log(t) + spec.mu) / math.sqrt(spec.sigma2)))
    if spec.family == "pareto":
        return min(1.0, (spec.k * t) ** spec.beta)
    if spec.family == "gamma":
        return float(gammaincc(spec.alpha, spec.theta / t))
    if spec.family == "constant":
        return 1.0 if 1.0 / spec.a < t else 0.0
    raise ValueError(f"no closed form for {spec!r}")


def _reciprocal_quantile(spec, z):
    """F^-1(Phi(z)), the quantile of the reciprocal shock Y at the normal probability of z.

    Written in z rather than in u = Phi(z), so that the far tail of Y keeps
    its digits: a heavy lognormal's sixth moment has its weight where 1 - u
    is about 1e-15.
    """
    if spec.family == "lognormal":
        return math.exp(math.sqrt(spec.sigma2) * z - spec.mu)
    if spec.family == "pareto":
        return float(ndtr(z)) ** (1.0 / spec.beta) / spec.k
    if spec.family == "gamma":
        # Q(alpha, theta / y) = Phi(z) is P(alpha, theta / y) = Phi(-z), exact where Phi(z) nears 1
        return spec.theta / float(gammaincinv(spec.alpha, ndtr(-z)))
    if spec.family == "constant":
        return 1.0 / spec.a
    raise ValueError(f"no closed form for {spec!r}")


def reciprocal_expectation(spec, g):
    """E[g(Y)] = int_0^1 g(F^-1(u)) du, by ``quad`` in z = Phi^-1(u) to a relative 1e-10.

    The normal density is below 1e-195 beyond |z| = 30, and a breakpoint
    every 2 keeps ``quad`` from stepping over a peak far out in the tail.
    """
    def integrand(z):
        return g(_reciprocal_quantile(spec, z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    value, _ = quad(integrand, -30.0, 30.0, points=range(-28, 30, 2), limit=200,
                    epsabs=0.0, epsrel=1e-10)
    return value


def exact_survival_horizon_2(spec, t):
    """P(Z_2 < t) = int_0^1 F(t / (1 + F^-1(u))) du, with F the CDF of Y.

    Z_2 = Y_1 (1 + Y_2) for independent reciprocal shocks, so conditioning
    on Y_2 leaves horizon 1's closed form at t / (1 + Y_2).
    """
    return reciprocal_expectation(spec, lambda y: exact_survival_horizon_1(spec, t / (1.0 + y)))


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


def numpy_ruin_period(spec, x, c, horizon, stream, block=128):
    """``montecarlo.simulate_path`` as it iterated numpy floats, one block of draws at a time."""
    if x <= c:
        return 0
    wealth = x
    period = 0
    with np.errstate(over="ignore"):
        while period < horizon:
            for v in spec.sample_inverse(stream, min(block, horizon - period)):
                wealth = max(wealth - c, 0.0) / v
                period += 1
                if wealth <= c:
                    return period
    return None


def series_adaptive(spec, rng, tol, block=128, floor=100, max_terms=1_000_000):
    """Adaptive truncation of one replicate's series, ``block`` terms at a time.

    The scalar reference of ``montecarlo.sample_Z`` in adaptive mode: the
    first term past the floor below ``tol`` times the running sum stops it.
    """
    total = 0.0
    lead = 1.0
    count = 0
    while count < max_terms:
        terms = lead * np.cumprod(spec.sample_inverse(rng, block))
        sums = total + np.cumsum(terms)
        small = terms < tol * sums
        # term index count+i+1 must reach the floor before stopping
        small[: max(floor - count - 1, 0)] = False
        hits = np.nonzero(small)[0]
        if hits.size:
            return float(sums[hits[0]])
        total = float(sums[-1])
        lead = float(terms[-1])
        count += block
    raise RuntimeError(
        f"series did not converge within {max_terms} terms for {spec!r}"
    )


def exact_ruin_horizon(r, x, c, cap=20_000):
    """Largest N with sum(1/r**j, j < N) < x/c, summed in exact rationals; None past cap.

    With r = p/q, the partial sums are kept over the common denominator p**n
    as integers, so no step reduces a fraction.
    """
    w = Fraction(x) / Fraction(c)
    p, q = Fraction(r).numerator, Fraction(r).denominator
    total, p_pow, q_pow = 0, 1, 1  # total = p**n * sum(1/r**j, j < n)
    for n in range(cap + 1):
        total = p * total + p * q_pow
        p_pow *= p
        q_pow *= q
        if total * w.denominator >= w.numerator * p_pow:  # n + 1 terms reach x/c
            return n
    return None


def exact_inverse_moment(spec, r):
    """E[shock^-r] of a Pareto or gamma spec as a Fraction of its stored floats; None if infinite."""
    if spec.family == "pareto":
        beta, k = Fraction(spec.beta), Fraction(spec.k)
        return beta / (k ** r * (beta + r))
    alpha, theta = Fraction(spec.alpha), Fraction(spec.theta)
    if r >= alpha:
        return None
    product = Fraction(1)
    for j in range(1, r + 1):
        product *= alpha - j
    return theta ** r / product


def exact_series_betas(spec, rmax):
    """beta_r = E[Z^r] by the series recursion in Fractions; None from the first gamma_r >= 1."""
    betas = [Fraction(1)]
    for r in range(1, rmax + 1):
        g = exact_inverse_moment(spec, r)
        if g is None or g >= 1 or betas[-1] is None:
            betas.append(None)
            continue
        betas.append(g / (1 - g) * sum(math.comb(r, j) * betas[j] for j in range(r)))
    return betas


def log_fraction(value, dps=50):
    """log of a positive Fraction in ``dps``-digit mpmath, rounded."""
    with mpmath.workdps(dps):
        return float(mpmath.log(mpmath.mpf(value.numerator) / value.denominator))


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


# every character at which str.splitlines ends a line
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def per_cell_render_csv(columns, rows, metadata=None):
    """``tableio.render_csv`` one cell at a time through ``format_cell`` and ``csv.writer``."""
    from ruinbounds.tableio import format_cell

    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        text = f"{key} = {format_cell(value)}"
        if any(ch in text for ch in LINE_BREAKS):
            raise ValueError(f"metadata {key!r} holds a line break")
        buf.write(f"# {text}\n")
    writer = csv.writer(buf, lineterminator="\n")

    def write(cells):
        if any(isinstance(cell, str) and "\r" in cell for cell in cells):
            # csv.writer leaves a lone '\r' unquoted; quote as it would quote '\n'
            buf.write(",".join('"' + cell.replace('"', '""') + '"'
                               if any(ch in cell for ch in ',"\r\n') else cell
                               for cell in cells) + "\n")
        else:
            writer.writerow(cells)

    header = buf.tell()
    write(columns)
    if buf.getvalue()[header:].startswith("#"):  # it would read back as a metadata line
        raise ValueError(f"column {columns[0]!r} starts with '#'")
    for row in rows:
        write([format_cell(v) for v in row])
    return buf.getvalue()


def per_cell_read_csv(text):
    """``tableio.read_csv_table`` without types, one ``parse_cell`` per cell, from the text."""
    from ruinbounds.tableio import parse_cell

    metadata = {}
    body = text
    while body.startswith("#"):
        line, _, body = body.partition("\n")
        key, _, value = line[1:].partition("=")
        metadata[key.strip()] = parse_cell(value)
    reader = csv.reader(io.StringIO(body, newline=""))  # the body unsplit, as csv expects
    try:
        columns = tuple(next(reader))
    except StopIteration:
        return metadata, (), []
    rows = [tuple(parse_cell(cell) for cell in row) for row in reader if row]
    return metadata, columns, rows


def identical(a, b):
    """``a == b`` with equal types all the way down; NaN matches NaN, -0.0 only -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b
