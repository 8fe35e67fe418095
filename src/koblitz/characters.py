"""Dirichlet characters mod q from one exact integer angle table.

(Z/q)^* is a product of cyclic groups: one per odd prime power p^k, generated
by a primitive root, and for 2^k the groups generated by -1 (k >= 2) and by 5
(k >= 3).  Each generator g_j, of order o_j, is lifted to mod q by the CRT,
and every unit x is g_1^l_1 ... g_n^l_n for exactly one log vector l(x).  The
character with exponent tuple e sends x to exp(2 pi i ang / M), M = phi(q),
where

    ang(e, x) = sum_j e_j l_j(x) (M / o_j)  mod M

is exact integer arithmetic, one matrix product for all characters.  Values
are read from one table of M-th roots of unity.  The conductor is read from
the same integers by its definition: the least d | q such that ang = 0 at
every unit x = 1 mod d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
from .primes import _least_primitive_root, factorize, phi

# Largest q * phi(q): the complex128 values of all characters mod q, 16 MB.
# characters(1021) peaks at 21 MB (tracemalloc), the values plus the int32
# angle table.
MAX_CHARACTER_CELLS = 2**20


@dataclass(frozen=True)
class CharacterTable:
    """The phi(q) characters mod q, one row each; row 0 is the principal character."""

    modulus: int
    phi: int
    exponents: np.ndarray = field(repr=False, compare=False)  # [chi, j], the tuple e of chi
    conductor: np.ndarray = field(repr=False, compare=False)  # [chi]
    values: np.ndarray = field(repr=False, compare=False)  # [chi, x], 0 off the units


def _generators(q: int) -> list[tuple[int, int]]:
    """(generator lifted to mod q, order) of each cyclic factor of (Z/q)^*."""
    gens = []
    for p, k in factorize(q):
        pk = p**k
        if p == 2:
            local = [(pk - 1, 2), (5, pk // 4)][: max(k - 1, 0)]
        else:
            g = _least_primitive_root(p)
            if k > 1 and pow(g, p - 1, p * p) == 1:
                g += p  # g generates mod p^k unless g^(p-1) = 1 mod p^2
            local = [(g, pk - pk // p)]
        rest = q // pk
        for g, order in local:
            # congruent to g mod p^k and to 1 mod q / p^k
            gens.append(((g + pk * ((1 - g) * pow(pk, -1, rest))) % q, order))
    return gens


def characters(q: int) -> CharacterTable:
    """All phi(q) Dirichlet characters mod q, in exponent-tuple order."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > MAX_CHARACTER_CELLS or q * phi(q) > MAX_CHARACTER_CELLS:
        raise CapacityError(f"q*phi(q) for modulus {q} exceeds budget {MAX_CHARACTER_CELLS}")
    m = phi(q)
    gens = _generators(q)
    orders = np.array([order for _, order in gens], dtype=np.int32)
    # logs[:, u] is the log vector of the u-th unit, units[u]; the same tuples
    # in the same order are the characters' exponents
    logs = np.indices(orders, dtype=np.int32).reshape(len(gens), m)
    units = np.array([1 % q], dtype=np.int64)
    for g, order in gens:
        powers = [1]
        for _ in range(order - 1):
            powers.append(powers[-1] * g % q)
        units = (units[:, None] * np.array(powers, dtype=np.int64) % q).ravel()
    is_unit = np.zeros(q, dtype=bool)
    is_unit[units] = True
    if np.count_nonzero(is_unit) != m:
        raise AssertionError(f"generators of (Z/{q})^* reach {np.count_nonzero(is_unit)} units")
    # ang[chi, x] in 0..m-1 on the units, m (a zero value) elsewhere; int32
    # is exact, as each of the few terms of the product is below m^2 <= 2^20
    ang = np.full((m, q), m, dtype=np.int32)
    ang[:, units] = (logs.T * (m // orders)) @ logs % m
    trivial = ang == 0
    x = np.arange(q)
    conductor = np.zeros(m, dtype=np.int64)
    for d in range(1, q + 1):
        if q % d == 0:
            kernel = is_unit & (x % d == 1 % d)
            conductor[(conductor == 0) & trivial[:, kernel].all(axis=1)] = d
    del trivial
    roots = np.append(np.exp(2j * np.pi * np.arange(m) / m), 0)
    values = roots[ang]
    exponents = np.ascontiguousarray(logs.T)
    return CharacterTable(
        modulus=q, phi=m, exponents=exponents, conductor=conductor, values=values
    )


def rho_chi(r: int, table: CharacterTable) -> np.ndarray:
    """rho(r, chi) = sum over b mod q with (b-r, q) = 1 of chi(b), for every chi of `table`."""
    q = table.modulus
    mask = np.gcd((np.arange(q) - r) % q, q) == 1
    # compress keeps each row contiguous, so each row sum is pairwise
    return np.compress(mask, table.values, axis=1).sum(axis=1)
