"""Log-gamma at integers, log-sum-exp and digamma without scipy.

These are ports of the algorithms behind ``scipy.special.gammaln``
(cephes ``lgam``), ``scipy.special.logsumexp`` (the max-separated ``log1p``
form of Blanchard, Higham & Higham, "Accurately computing the log-sum-exp
and softmax functions", IMA J. Numer. Anal. 41(4), 2021) and
``scipy.special.digamma`` (cephes ``psi``) for the arguments this package
uses.  They keep every operation and its order, so they return the same
bits as scipy 1.17; scipy stays the oracle in the tests.  The libm calls
of the cephes code are ``math`` calls here, and the numpy calls of scipy's
log-sum-exp stay numpy calls, because numpy's vectorised ``exp``/``log``
may round differently from libm.  ``logsumexp_rows`` builds a kernel for
the log-sum-exp of many ragged rows at once, with the bits of
``logsumexp`` on each row, which numpy's ``sum`` adds in its 1-d order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lgamma_int", "logsumexp", "logsumexp_rows", "digamma"]

# cephes lgam: log(sqrt(2*pi)) and the Stirling correction for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)

# cephes psi: Euler's constant, the asymptotic series, and the rational
# approximation on [1, 2] (from Boost) around the positive root of psi
_EULER = 0.577215664901532860606512090082402431
_PSI_A = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)
_PSI_Y = 0.99558162689208984
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_PSI_P = (
    -0.0020713321167745952,
    -0.045251321448739056,
    -0.28919126444774784,
    -0.65031853770896507,
    -0.32555031186804491,
    0.25479851061131551,
)
_PSI_Q = (
    -0.55789841321675513e-6,
    0.0021284987017821144,
    0.054151797245674225,
    0.43593529692665969,
    1.4606242909763515,
    2.0767117023730469,
    1.0,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation with the highest-degree coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def lgamma_int(n: int) -> float:
    """log Gamma(n) for an integer 1 <= n <= 1e8, equal to ``gammaln(n)``."""
    if n < 13:
        return math.log(math.factorial(n - 1))  # exact below 2**53
    x = float(n)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-d array, equal to scipy's ``logsumexp``.

    The entries equal to the maximum are taken out of the sum (they add
    exactly ``m * exp(0)``) so that the rest enters through ``log1p``.
    """
    a_max = a.max()
    if not np.isfinite(a_max):  # any +inf, all -inf, or NaN
        return float(a_max)
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def logsumexp_rows(lengths: np.ndarray, width: int):
    """Row-wise log-sum-exp of the ragged rows ``a[i, :lengths[i]]`` of a
    ``(len(lengths), width)`` array ``a``.

    Returns a function of ``a`` whose ``out[i]`` has the bits of
    ``logsumexp(a[i, :lengths[i]])`` for every row; entries past a row's
    length are ignored, and every length is at least 1.  The steps are
    those of ``logsumexp`` done on all rows at once, and numpy adds each
    row's exponentials itself, in its 1-d order (``_pairwise_row_sums``), so
    no row rounds differently.  The masks that depend only on the lengths
    are built here once, for a recursion that sums the same rows each step.
    """
    valid = np.arange(width) < lengths[:, None]
    row_sums = _pairwise_row_sums(lengths, width)

    def logsumexp_each_row(a: np.ndarray) -> np.ndarray:
        a = np.where(valid, a, -np.inf)
        a_max = a.max(axis=1)
        finite = np.isfinite(a_max)
        top = a == a_max[:, None]
        # a row whose maximum is not finite sums nothing, so it returns its maximum
        drop = top | ~finite[:, None]
        shift = np.where(finite, a_max, 0.0)
        m = np.maximum(np.count_nonzero(top, axis=1), 1)  # a NaN row has no maximum to count
        s = row_sums(np.exp(np.where(drop, -np.inf, a) - shift[:, None])) / m
        return np.log1p(s) + np.log(m) + a_max

    return logsumexp_each_row


def _pairwise_row_sums(lengths: np.ndarray, width: int):
    """A function of ``e`` returning row sums with the bits of ``e[i, :lengths[i]].sum()``.

    ``e`` is a ``(len(lengths), width)`` array that is 0.0 past each length.
    numpy sums n <= 128 doubles with 8 strided accumulators over the first
    n - n % 8 terms, then adds the rest in order.  So a row of L < 128 terms
    is laid out in 8m + 7 slots, 8m the largest such L - L % 8: its first
    L - L % 8 terms, 0.0 up to slot 8m, then its last L % 8 terms.  Adding
    0.0 changes no partial sum, so numpy adds each laid-out row in its 1-d
    order, as the summed array is C-contiguous and reduced along its last
    axis.  Above 128 terms numpy splits the sum in halves, so rows of 128
    or more terms are summed by numpy, one at a time.
    """
    short = lengths < 128
    body = lengths - lengths % 8
    head = int(body[short].max(initial=0))
    slot = np.arange(head + 7)
    column = np.where(slot < head, slot, body[:, None] + slot - head)
    used = short[:, None] & np.where(slot < head, slot < body[:, None], column < lengths[:, None])
    column = np.minimum(column, width - 1)
    long_rows = np.flatnonzero(~short)

    def row_sums(e: np.ndarray) -> np.ndarray:
        total = np.where(used, np.take_along_axis(e, column, axis=1), 0.0).sum(axis=1)
        for i in long_rows:
            total[i] = e[i, : lengths[i]].sum()
        return total

    return row_sums


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x) for a Python float x > 0, equal to ``scipy.special.digamma``."""
    if not x > 0.0:
        raise ValueError(f"digamma is implemented for x > 0, got {x!r}")
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if x <= 2.0:
        g = x - _PSI_ROOT1
        g -= _PSI_ROOT2
        g -= _PSI_ROOT3
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    if x < 1.0e17:
        z = 1.0 / (x * x)
        tail = z * _polevl(z, _PSI_A)
    else:
        tail = 0.0
    return y + (math.log(x) - 0.5 / x - tail)
