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


# ---------------------------------------------------------------------------
# GL2 counts
# ---------------------------------------------------------------------------


def gl2_counts(ell: int) -> tuple[int, int]:
    """(|Omega'|, |GL2(F_ell)|) for an odd prime ell, in closed form.

    Omega' = {g in GL2(F_ell) : det(I - g) = 0} has ell^3 - 2 ell elements
    and GL2(F_ell) has (ell^2 - 1)(ell^2 - ell); tests/lemmas.py counts both
    over all ell^4 matrices.  Primality is read from factorize, so an ell
    past MAX_FACTOR raises its CapacityError.
    """
    if ell < 3 or ell % 2 == 0 or factorize(ell) != ((ell, 1),):
        raise DomainError(f"{ell} must be an odd prime")
    return ell**3 - 2 * ell, (ell * ell - 1) * (ell * ell - ell)


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

    The base product, memoized, times one correction per odd prime p of
    (m - 1) m (m + 1), m = |r - 1|, in ascending p: 1 + (p + 1)/(p^2 - 2p - 2)
    when p divides m, else 1 + 1/(p^2 - 2p - 2).  As m is the same for r and
    2 - r, so is C_r, bit for bit.  m + 1 must lie within factorize's budget.
    """
    if r % 2 == 0 or r == 1:
        raise DomainError("r must be odd and != 1")
    m = abs(r - 1)
    if m + 1 > MAX_FACTOR:
        raise CapacityError(f"r={r}: |r - 1| + 1 exceeds factorization budget {MAX_FACTOR}")
    val = _c_r_base()
    for p in sorted({p for n in (m - 1, m, m + 1) for p, _ in factorize(n)} - {2}):
        val *= 1.0 + (p + 1.0 if m % p == 0 else 1.0) / (p * p - 2.0 * p - 2.0)
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
    for r in range(3, R + 1, 2):
        sum_pos += C_r(r)
    # C_r = C_{2-r}, and 2 - r runs over the odd 3 <= r <= R + 1 + R % 2
    # as r runs over the odd -R <= r < 0
    sum_neg = sum_pos + C_r(R + 1 + R % 2)
    return GallagherAverage(
        ratio=sum_pos / (frak_c * R),
        ratio_two_sided=(sum_pos + sum_neg) / (frak_c * R),
    )
