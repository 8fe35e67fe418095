"""Euler-product constants: GL2 local factors, the average constant, C_r and 2*C2.

Every infinite product over primes lives here.  The average constant and
the C_r base are complete products, evaluated in log space: the primes
below 50 (HEAD_PRIMES) enter one by one, and past them the sum of
log f(ell) over the primes ell > 50 is a stored float, _FRAK_C_TAIL or
_C_R_BASE_TAIL.  Each tail was summed from the power series of log f(ell)
in 1/ell and the prime sums sum_{ell > 50} ell^-k (H. Cohen, "High
precision computation of Hardy-Littlewood constants", 1998); the tests hold
both tails and both products to a 40-digit mpmath evaluation.  The
twin-prime constant 2*C2 is one literal, TWIN_CONSTANT: the plain product
over the primes up to DEFAULT_TRUNCATION, which the stored bdh references
were computed with.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError
from .primes import MAX_FACTOR, factorize

# The truncation limit L of 2*C2, the one product still truncated.
DEFAULT_TRUNCATION = 10**6

# 2*C2 truncated at L: 2 prod_{3 <= ell <= L} ell(ell-2)/(ell-1)^2,
# exp of the sum of its log1p terms, 0x1.5200bc4299898p+0.  It lies 6.8e-8
# relative above the complete product, 2 mpmath.twinprime; it stays
# truncated so that S(r) and every bdh statistic keep their values, and
# tests/oracles.py recomputes it bit for bit.
TWIN_CONSTANT = 1.3203237211796814

MAX_GL2_PRIME = 50


# ---------------------------------------------------------------------------
# GL2 counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalFactorLedger:
    omega_prime_count: int
    gl2_order: int
    factor: Fraction


def gl2_count(ell: int) -> LocalFactorLedger:
    """Count invertible 2x2 matrices g mod ell with det(g)+1-tr(g) = 0.

    Exhaustive enumeration over all ell^4 matrices; the exact rational
    identity (1 - |Omega'|/|GL2|)/(1 - 1/ell) = 1 - (l^2-l-1)/((l-1)^3(l+1))
    is verified before returning.
    """
    if ell > MAX_GL2_PRIME:
        raise CapacityError(f"ell={ell} exceeds enumeration budget {MAX_GL2_PRIME}")
    if ell not in HEAD_PRIMES[1:]:
        raise DomainError(f"{ell} must be an odd prime")
    v = np.arange(ell, dtype=np.int64)
    a, b, c, d = np.meshgrid(v, v, v, v, indexing="ij", sparse=True)
    det = (a * d - b * c) % ell
    tr = (a + d) % ell
    invertible = det != 0
    gl2 = int(invertible.sum())
    omega = int((invertible & ((det + 1 - tr) % ell == 0)).sum())
    if gl2 != (ell * ell - 1) * (ell * ell - ell):
        raise AssertionError(f"|GL2(F_{ell})| counted as {gl2}")
    lhs = (1 - Fraction(omega, gl2)) / (1 - Fraction(1, ell))
    factor = 1 - Fraction(ell * ell - ell - 1, (ell - 1) ** 3 * (ell + 1))
    if lhs != factor:
        raise AssertionError(f"GL2 local factor identity fails at ell={ell}")
    return LocalFactorLedger(omega_prime_count=omega, gl2_order=gl2, factor=factor)


# ---------------------------------------------------------------------------
# products over every prime, from the primes <= 50 and a stored tail
# ---------------------------------------------------------------------------

# The primes below 50, which enter each product one by one.
HEAD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Each tail is the sum over the primes ell > 50 of log f(1/ell), for the
# local factor f the product takes past the head:
# f(x) = (1 - 2x - x^2 + 3x^3) / ((1 - x)^3 (1 + x)), the frak_C factor
_FRAK_C_TAIL = -0.003919309997745811
# f(x) = (1 - 2x - 2x^2) / ((1 - x)^3 (1 + x)), the C_r base factor
_C_R_BASE_TAIL = -0.008008836715595515


@functools.cache
def average_constant_forms() -> tuple[float, float]:
    """The two displayed product forms of the average constant.

    form1 = (2/3) prod_{odd l} (l^4-2l^3-l^2+3l)/((l-1)^3 (l+1)) and
    form2 = prod_l (1 - (l^2-l-1)/((l-1)^3 (l+1))) take their factors at
    l <= 50 each in its own arithmetic and share the tail past 50, where
    both factors are (1 - 2x - x^2 + 3x^3)/((1 - x)^3 (1 + x)) at x = 1/l.
    """
    ell = np.array(HEAD_PRIMES, dtype=np.float64)
    odd = ell[1:]
    form1 = math.log(2.0 / 3.0) + np.sum(
        np.log(odd**4 - 2 * odd**3 - odd**2 + 3 * odd) - np.log((odd - 1) ** 3 * (odd + 1))
    )
    form2 = np.sum(np.log1p(-((ell * ell - ell - 1) / ((ell - 1) ** 3 * (ell + 1)))))
    return math.exp(form1 + _FRAK_C_TAIL), math.exp(form2 + _FRAK_C_TAIL)


def average_constant() -> float:
    """The average density constant frak_C, product form 2."""
    return average_constant_forms()[1]


# ---------------------------------------------------------------------------
# the per-r constants C_r and their Gallagher-style average
# ---------------------------------------------------------------------------


@functools.cache
def _c_r_base() -> float:
    """(4/3) prod_{odd l} l^2(l^2-2l-2)/((l-1)^3(l+1)).

    Each factor is 1 - (2l^2+2l-1)/((l-1)^3(l+1)), which past 50 is
    (1 - 2x - 2x^2)/((1 - x)^3 (1 + x)) at x = 1/l.
    """
    ell = np.array(HEAD_PRIMES[1:], dtype=np.float64)
    head = np.sum(np.log1p(-(2 * ell * ell + 2 * ell - 1) / ((ell - 1) ** 3 * (ell + 1))))
    return (4.0 / 3.0) * math.exp(head + _C_R_BASE_TAIL)


def C_r(r: int) -> float:
    """The positive constant attached to an odd shift r != 1.

    The base product, memoized, times finite corrections from the odd
    primes dividing r-1 and r(r-2), each within factorize's budget.
    """
    if r % 2 == 0 or r == 1:
        raise DomainError("r must be odd and != 1")
    if max(abs(r), abs(r - 2)) > MAX_FACTOR:
        raise CapacityError(f"r={r}: |r| or |r - 2| exceeds factorization budget {MAX_FACTOR}")
    val = _c_r_base()
    for p, _ in factorize(abs(r - 1))[1:]:  # r - 1 is even: the pairs after (2, e)
        val *= 1.0 + (p + 1.0) / (p * p - 2.0 * p - 2.0)
    for p in {p for p, _ in factorize(abs(r))} | {p for p, _ in factorize(abs(r - 2))}:
        val *= 1.0 + 1.0 / (p * p - 2.0 * p - 2.0)
    return val


@dataclass(frozen=True)
class GallagherAverage:
    ratio: float  # sum of C_r over odd 1 < r <= R, over frak_c * R; converges to 1
    ratio_two_sided: float  # the sum over odd |r| <= R, r != 1, likewise; converges to 2


def gallagher_sum(R: int) -> GallagherAverage:
    """Closed-form sums of C_r over odd shifts up to R.

    The one-sided sum over 1 < r <= R averages to frak_c * R; the two-sided
    sum over |r| <= R is exactly twice that in the limit (about R odd shifts
    on each side).  Both are returned as ratios against frak_c * R.
    """
    if R < 100:
        raise DomainError("R must be >= 100")
    frak_c = average_constant()
    sum_pos = 0.0
    sum_neg = 0.0
    start = -R if R % 2 else -R + 1
    for r in range(start, R + 1, 2):
        if r == 1:
            continue
        v = C_r(r)
        if r > 1:
            sum_pos += v
        else:
            sum_neg += v
    return GallagherAverage(
        ratio=sum_pos / (frak_c * R),
        ratio_two_sided=(sum_pos + sum_neg) / (frak_c * R),
    )
