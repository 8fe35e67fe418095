"""Euler-product constants: GL2 local factors, the average constant, C_r and 2*C2.

Every infinite product over primes lives here, evaluated in log-space up to
a truncation limit L (DEFAULT_TRUNCATION unless given).  The average
constant and the C_r base are then completed with an estimated tail
(prime-density integral of the omitted log-factors, by a fixed
Gauss-Laguerre rule), recorded on the returned value as `tail_bound`; the
twin-prime constant 2*C2 is the plain truncated product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError
from .primes import factorize, is_prime, prime_terms

DEFAULT_TRUNCATION = 10**6

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
    if not is_prime(ell) or ell == 2:
        raise DomainError(f"{ell} must be an odd prime")
    if ell > MAX_GL2_PRIME:
        raise CapacityError(f"ell={ell} exceeds enumeration budget {MAX_GL2_PRIME}")
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
# the average constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantValue:
    value: float
    tail_bound: float


# Gauss-Laguerre rule for the tail integrals; 30 nodes give ~1e-14 relative
# for every truncation limit 10^3 <= L <= 10^8 (tests/test_constants.py).
LAGUERRE_NODES = 30
_LAG_X, _LAG_W = np.polynomial.laguerre.laggauss(LAGUERRE_NODES)


def _log_tail(neg_log_factor, limit: int) -> float:
    """Estimated sum over primes > limit of -log(factor), via prime density.

    Integrates -log(factor(t))/log(t) dt over t > L.  Substituting t = e^v
    and v = log L + w gives e^{-log L} * integral_0^inf e^{-w} g(w) dw with
    g(w) = -log(factor(e^v)) e^{2v}/v, which is smooth and bounded because
    the omitted factors behave like 1 - O(1/t^2); a fixed Gauss-Laguerre
    rule integrates it.  `neg_log_factor` must accept a float64 array.
    """
    v = math.log(limit) + _LAG_X
    t = np.exp(v)
    g = neg_log_factor(t) * t * t / v
    return float(_LAG_W @ g) / limit


def _frak_c_neg_log_factor(t: np.ndarray) -> np.ndarray:
    # -log(1 - (t^2-t-1)/((t-1)^3 (t+1))), written in s = 1/t so that no
    # intermediate overflows (finite for every t <= 1e300)
    s = 1.0 / t
    g = s * s * (1 - s - s * s) / ((1 - s) ** 3 * (1 + s))
    return -np.log1p(-g)


@functools.lru_cache(maxsize=8)
def _frak_c_parts(limit: int) -> tuple[float, float]:
    """(form2, tail) for the average constant at truncation `limit`.

    form2 = prod_l (1 - (l^2-l-1)/((l-1)^3 (l+1))), raw (no tail).
    """
    terms = prime_terms(
        limit, lambda ell: np.log1p(-((ell * ell - ell - 1) / ((ell - 1) ** 3 * (ell + 1))))
    )
    return math.exp(np.sum(terms)), _log_tail(_frak_c_neg_log_factor, limit)


def average_constant_forms(limit: int) -> tuple[float, float]:
    """The two displayed product forms of the average constant, raw at L.

    form1 = (2/3) prod_{odd l} (l^4-2l^3-l^2+3l)/((l-1)^3 (l+1)); form2 is
    the product over every l of _frak_c_parts.
    """
    if limit < 10**3:
        raise DomainError("truncation limit must be >= 1000")

    def term(odd):
        num = odd**4 - 2 * odd**3 - odd**2 + 3 * odd
        den = (odd - 1) ** 3 * (odd + 1)
        return np.log(num) - np.log(den)

    form1 = (2.0 / 3.0) * math.exp(np.sum(prime_terms(limit, term, odd=True)))
    return form1, _frak_c_parts(limit)[0]


def average_constant(limit: int = DEFAULT_TRUNCATION) -> ConstantValue:
    """The average density constant, tail-completed at truncation `limit`."""
    if limit < 10**3:
        raise DomainError("truncation limit must be >= 1000")
    form2, tail = _frak_c_parts(limit)
    return ConstantValue(value=form2 * math.exp(-tail), tail_bound=tail)


# ---------------------------------------------------------------------------
# the twin-prime constant
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _twin_constant(limit: int) -> float:
    """2*C2 = 2 prod_{odd ell <= limit} ell(ell-2)/(ell-1)^2."""
    terms = prime_terms(limit, lambda ell: np.log1p(-1.0 / (ell - 1.0) ** 2), odd=True)
    return 2.0 * math.exp(terms.sum())


# ---------------------------------------------------------------------------
# character-sum coefficients c_f^r(n)
# ---------------------------------------------------------------------------


def _check_cfr_args(f: int, r: int) -> None:
    if f < 1 or f % 2 == 0:
        raise DomainError("f must be a positive odd integer")
    if r % 2 == 0 or r == 1:
        raise DomainError("r must be odd and != 1")


def c_f_r(n: int, f: int, r: int) -> int:
    """Closed form of the restricted character sum, by multiplicativity."""
    _check_cfr_args(f, r)
    if n < 1:
        raise DomainError("n must be >= 1")
    if math.gcd(r, f) != 1 or math.gcd(r - 2, f) != 1:
        return 0
    out = 1
    for ell, alpha in factorize(n):
        lead = ell ** (alpha - 1)
        if ell == 2:
            out *= lead * (-1 if alpha % 2 else 1)
        elif f % ell == 0:
            out *= 0 if alpha % 2 else lead * (ell - 1)
        elif (r * (r - 1) * (r - 2)) % ell == 0:
            out *= lead * (-1 if alpha % 2 else ell - 2)
        else:
            out *= lead * (-2 if alpha % 2 else ell - 3)
    return out


# ---------------------------------------------------------------------------
# local sums A, B, C
# ---------------------------------------------------------------------------


def a_series_term(ell: int, alpha: int) -> Fraction:
    if alpha == 0:
        return Fraction(1)
    if alpha % 2:
        return Fraction(0)
    return Fraction(ell - 1, ell ** (alpha + 1))


def b_series_term(ell: int, alpha: int, r: int) -> Fraction:
    if alpha == 0:
        return Fraction(1)
    if ell == 2:
        return Fraction((-1) ** alpha, 2**alpha)
    la = ell**alpha
    if (r - 1) % ell == 0:
        return Fraction(-1, la * (ell - 1)) if alpha % 2 else Fraction(ell - 2, la * (ell - 1))
    if (r * (r - 2)) % ell == 0:
        return Fraction(-1, la * (ell - 2)) if alpha % 2 else Fraction(1, la)
    return Fraction(-2, la * (ell - 2)) if alpha % 2 else Fraction(ell - 3, la * (ell - 2))


def c_series_term(ell: int, alpha: int, r: int) -> Fraction:
    if (2 * r * (r - 2)) % ell == 0:
        raise DomainError("c-series requires ell coprime to 2r(r-2)")
    if alpha == 0:
        return Fraction(1)
    ratio = A_closed(ell) / (
        B2_closed(ell) if (r - 1) % ell == 0 else B1_closed(ell)
    )
    unit = ell - 1 if (r - 1) % ell == 0 else ell - 2
    return Fraction(1, ell ** (3 * alpha - 1) * unit) * ratio


def A_closed(ell: int) -> Fraction:
    return Fraction(ell * ell + ell + 1, ell * (ell + 1))


def B1_closed(ell: int) -> Fraction:
    return Fraction(ell**3 - 2 * ell**2 - 2 * ell - 1, (ell - 2) * (ell * ell - 1))


def B2_closed(ell: int) -> Fraction:
    return Fraction(ell**3 - ell**2 - ell - 1, (ell - 1) ** 2 * (ell + 1))


def B3_closed(ell: int) -> Fraction:
    return Fraction(ell * (ell * ell - 2 * ell - 1), (ell - 2) * (ell * ell - 1))


def C1_closed(ell: int) -> Fraction:
    return Fraction(ell**3 - 2 * ell**2 - 2 * ell, ell**3 - 2 * ell**2 - 2 * ell - 1)


def C2_closed(ell: int) -> Fraction:
    return Fraction(ell * (ell * ell - ell - 1), ell**3 - ell**2 - ell - 1)


B_AT_TWO = Fraction(2, 3)


@dataclass(frozen=True)
class LocalSums:
    a_sum: Fraction
    b_sum: Fraction
    c_sum: Fraction | None  # defined only when ell does not divide 2r(r-2)


def local_sums(ell: int, r: int) -> LocalSums:
    """Closed-form values of the three local geometric sums at (ell, r)."""
    if ell == 2 or not is_prime(ell):
        raise DomainError("ell must be an odd prime")
    if r % 2 == 0 or r == 1:
        raise DomainError("r must be odd and != 1")
    if (r - 1) % ell == 0:
        b_sum, c_sum = B2_closed(ell), C2_closed(ell)
    elif (r * (r - 2)) % ell == 0:
        b_sum, c_sum = B3_closed(ell), None
    else:
        b_sum, c_sum = B1_closed(ell), C1_closed(ell)
    return LocalSums(a_sum=A_closed(ell), b_sum=b_sum, c_sum=c_sum)


# ---------------------------------------------------------------------------
# the per-r constants C_r and their Gallagher-style average
# ---------------------------------------------------------------------------


def _c_r_base_neg_log_factor(t: np.ndarray) -> np.ndarray:
    # -log(t^2 (t^2-2t-2)/((t-1)^3 (t+1))) = -log(1 - (2t^2+2t-1)/((t-1)^3 (t+1))),
    # by log1p since the factor is 1 - O(1/t^2), and in s = 1/t so that no
    # intermediate overflows (finite for every t <= 1e300)
    s = 1.0 / t
    h = s * s * (2 + 2 * s - s * s) / ((1 - s) ** 3 * (1 + s))
    return -np.log1p(-h)


@functools.lru_cache(maxsize=8)
def _c_r_base(limit: int) -> tuple[float, float]:
    """(base product, applied tail) of (4/3) prod_{odd l} l^2(l^2-2l-2)/((l-1)^3(l+1))."""
    log_sum = np.sum(
        prime_terms(
            limit,
            lambda ell: 2 * np.log(ell)
            + np.log(ell * ell - 2 * ell - 2)
            - 3 * np.log(ell - 1)
            - np.log(ell + 1),
            odd=True,
        )
    )
    tail = _log_tail(_c_r_base_neg_log_factor, limit)
    return (4.0 / 3.0) * math.exp(log_sum - tail), tail


def C_r(r: int, limit: int = DEFAULT_TRUNCATION) -> ConstantValue:
    """The positive constant attached to an odd shift r != 1.

    Base infinite product memoized per truncation; finite corrections from
    the odd primes dividing r-1 and r(r-2).
    """
    if r % 2 == 0 or r == 1:
        raise DomainError("r must be odd and != 1")
    if limit < 10**3:
        raise DomainError("truncation limit must be >= 1000")
    base, tail = _c_r_base(limit)
    val = base
    for p, _ in factorize(abs(r - 1))[1:]:  # r - 1 is even: the pairs after (2, e)
        val *= 1.0 + (p + 1.0) / (p * p - 2.0 * p - 2.0)
    for p in {p for p, _ in factorize(abs(r))} | {p for p, _ in factorize(abs(r - 2))}:
        val *= 1.0 + 1.0 / (p * p - 2.0 * p - 2.0)
    return ConstantValue(value=val, tail_bound=tail)


@dataclass(frozen=True)
class GallagherAverage:
    ratio: float  # sum of C_r over odd 1 < r <= R, over frak_c * R; converges to 1
    ratio_two_sided: float  # the sum over odd |r| <= R, r != 1, likewise; converges to 2


def gallagher_sum(R: int, limit: int = DEFAULT_TRUNCATION) -> GallagherAverage:
    """Closed-form sums of C_r over odd shifts up to R.

    The one-sided sum over 1 < r <= R averages to frak_c * R; the two-sided
    sum over |r| <= R is exactly twice that in the limit (about R odd shifts
    on each side).  Both are returned as ratios against frak_c * R.
    """
    if R < 100:
        raise DomainError("R must be >= 100")
    frak_c = average_constant(limit).value
    sum_pos = 0.0
    sum_neg = 0.0
    start = -R if R % 2 else -R + 1
    for r in range(start, R + 1, 2):
        if r == 1:
            continue
        v = C_r(r, limit).value
        if r > 1:
            sum_pos += v
        else:
            sum_neg += v
    return GallagherAverage(
        ratio=sum_pos / (frak_c * R),
        ratio_two_sided=(sum_pos + sum_neg) / (frak_c * R),
    )
