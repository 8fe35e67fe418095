"""Class numbers of imaginary quadratic orders via reduced binary forms.

h(D) counts primitive reduced forms (A,B,C) with B^2-4AC = D.  The weighted
variant H(D) = sum over f^2 | D of h(D/f^2)/w(D/f^2) is kept exactly as the
integer 12*H(D) so that curve-census identities can be checked in integer
arithmetic.  w is the unit count of the *order* of discriminant D/f^2
(6 only at -3, 4 only at -4, else 2); the field-unit reading would break the
census identities already at D = -12.

A reduced form of discriminant D with content f is f times a primitive
reduced form of discriminant D/f^2, so 12*H(D) is 6 times the count of all
reduced forms of discriminant D, less 4 when D = -3f^2 (the form f(1,1,1))
and less 3 when D = -4f^2 (the form f(1,0,1)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError

# Largest dmax for twelve_h_weighted_table, which counts every reduced form with
# 4ac - b^2 <= dmax: 4p at the class-number route's budget p = 10^5.
MAX_H_TABLE = 4 * 10**5


def twelve_h_weighted_table(dmax: int) -> np.ndarray:
    """t[k] = 12*H(-k) for all 0 < k <= dmax (0 where -k is no discriminant).

    One count of every reduced form (a, b, c) with 4ac - b^2 <= dmax, whether
    primitive or not: -a < b <= a, c >= a, and c > a when b < 0.
    """
    if dmax < 3:
        raise DomainError("dmax must be >= 3")
    if dmax > MAX_H_TABLE:
        raise CapacityError(f"dmax={dmax} exceeds class-number table budget {MAX_H_TABLE}")
    forms = np.zeros(dmax + 1, dtype=np.int64)
    for a in range(1, math.isqrt(dmax // 3) + 1):
        b = np.arange(1 - a, a + 1, dtype=np.int64)
        c = np.arange(a, (dmax + a * a) // (4 * a) + 1, dtype=np.int64)
        k = 4 * a * c[:, None] - b * b  # >= 3a^2 > 0; entries past dmax are dropped
        k[0, : a - 1] = dmax + 1  # a = c needs b >= 0
        forms += np.bincount(k.ravel(), minlength=dmax + 1)[: dmax + 1]
    # Each form weighs 12/w = 6, except f(1,1,1) with w = 6 and f(1,0,1) with w = 4.
    t = 6 * forms
    t[3 * np.arange(1, math.isqrt(dmax // 3) + 1) ** 2] -= 4
    t[4 * np.arange(1, math.isqrt(dmax // 4) + 1) ** 2] -= 3
    return t


def H_bound_check(table: np.ndarray) -> tuple[float, int]:
    """(max, argmax) of H(-D)/(sqrt(D) log^2 D) over 3 <= D < len(table), from 12H."""
    dmax = len(table) - 1
    if dmax < 16:
        raise DomainError("dmax must be >= 16")
    k = np.arange(dmax + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (table / 12.0) / (np.sqrt(k) * np.log(k) ** 2)
    ratio[:3] = 0.0
    arg = int(np.argmax(ratio))
    return float(ratio[arg]), arg
