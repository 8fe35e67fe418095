"""Class numbers of imaginary quadratic orders via reduced binary forms.

h(D) counts primitive reduced forms (A,B,C) with B^2-4AC = D.  The weighted
variant H(D) = sum over f^2 | D of h(D/f^2)/w(D/f^2) is kept exactly as the
integer 12*H(D) so that curve-census identities can be checked in integer
arithmetic.  w is the unit count of the *order* of discriminant D/f^2
(6 only at -3, 4 only at -4, else 2); the field-unit reading would break the
census identities already at D = -12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

# Largest dmax for h_table: 4p at the class-number route's budget p = 10^5.
MAX_H_TABLE = 4 * 10**5


def _check_discriminant(d: int) -> None:
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"{d} is not a negative discriminant")


def form_class_number(d: int) -> int:
    """Count of primitive reduced forms of discriminant d < 0.

    Reduced means |B| <= A <= C with B >= 0 whenever |B| = A or A = C.
    """
    _check_discriminant(d)
    h = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            t = b * b - d
            if t % four_a:
                continue
            c = t // four_a
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                h += 1
    return h


def unit_count(d: int) -> int:
    """Units of the quadratic order of discriminant d."""
    _check_discriminant(d)
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


@dataclass(frozen=True)
class ExactClassNumber:
    """H(D) held exactly as the integer 12*H(D)."""

    discriminant: int
    twelve_h: int

    @property
    def value(self) -> float:
        return self.twelve_h / 12.0


@functools.lru_cache(maxsize=None)
def kronecker_H(d: int) -> ExactClassNumber:
    """Weighted class number H(d) = sum_{f^2 | d, d/f^2 disc} h(d/f^2)/w(d/f^2)."""
    _check_discriminant(d)
    twelve = 0
    f = 1
    while f * f <= -d:
        if d % (f * f) == 0:
            d0 = d // (f * f)
            if d0 % 4 in (0, 1):
                # w | 12 in every case, so each summand is an integer
                twelve += 12 * form_class_number(d0) // unit_count(d0)
        f += 1
    return ExactClassNumber(discriminant=d, twelve_h=twelve)


def h_table(dmax: int) -> np.ndarray:
    """h[k] = form class number of discriminant -k, for all 0 < k <= dmax.

    Entries at k with -k not a discriminant (k = 1, 2 mod 4) stay 0.
    Vectorized enumeration of all reduced primitive forms with |disc| <= dmax.
    """
    if dmax < 3:
        raise DomainError("dmax must be >= 3")
    if dmax > MAX_H_TABLE:
        raise CapacityError(f"dmax={dmax} exceeds class-number table budget {MAX_H_TABLE}")
    h = np.zeros(dmax + 1, dtype=np.int64)
    for a in range(1, math.isqrt(dmax // 3) + 1):
        for b in range(-a + 1, a + 1):
            # c >= a, and c > a when b < 0 (reduced forms with a = c need b >= 0)
            cmin = a + 1 if b < 0 else a
            cmax = (dmax + b * b) // (4 * a)
            if cmax < cmin:
                continue
            c = np.arange(cmin, cmax + 1, dtype=np.int64)
            k = 4 * a * c - b * b  # = |disc| > 0 since c >= a >= |b|
            g = math.gcd(a, abs(b))
            if g == 1:
                np.add.at(h, k, 1)
            else:
                prim = np.gcd(c, g) == 1
                np.add.at(h, k[prim], 1)
    return h


def twelve_h_weighted_table(dmax: int) -> np.ndarray:
    """t[k] = 12*H(-k) for all 0 < k <= dmax (0 where -k is no discriminant)."""
    h = h_table(dmax)
    w12 = np.full(dmax + 1, 6, dtype=np.int64)  # 12/w for the generic w = 2
    if dmax >= 3:
        w12[3] = 2
    if dmax >= 4:
        w12[4] = 3
    weighted = h * w12
    out = np.zeros(dmax + 1, dtype=np.int64)
    for f in range(1, math.isqrt(dmax) + 1):
        f2 = f * f
        m = np.arange(1, dmax // f2 + 1, dtype=np.int64)
        m = m[(m % 4 == 0) | (m % 4 == 3)]
        out[m * f2] += weighted[m]
    return out


@dataclass(frozen=True)
class HBoundReport:
    dmax: int
    max_ratio: float
    argmax: int


def H_bound_check(table: np.ndarray) -> HBoundReport:
    """Max of H(-D)/(sqrt(D) log^2 D) over 3 <= D < len(table), from 12H."""
    dmax = len(table) - 1
    if dmax < 16:
        raise DomainError("dmax must be >= 16")
    k = np.arange(dmax + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (table / 12.0) / (np.sqrt(k) * np.log(k) ** 2)
    ratio[:3] = 0.0
    arg = int(np.argmax(ratio))
    return HBoundReport(dmax=dmax, max_ratio=float(ratio[arg]), argmax=arg)
