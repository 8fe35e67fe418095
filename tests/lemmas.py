"""The lemmas inside the paper's proofs, in closed form, for the tests to check.

No report of the package reads these: Dirichlet characters mod q and the
character sums rho(r, chi), the Moebius function, the character-sum
coefficients c_f^r(n), the GL2 counts behind the local factor of frak_C by
enumeration of all ell^4 matrices, the local geometric sums A, B and C with
their series terms, and the multiplicative form of the exponential sum
F(s; r; q, a).  Tier-1 checks each against its definition, a brute-force
route in tests/oracles.py or the package's closed form (criteria 02, 04 and
05, test_characters, test_constants, test_twinseries).  They factor with
_oracle_factorize, trial division with no budget, since _generators is
checked at a modulus past koblitz.primes.MAX_FACTOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from koblitz.constants import HEAD_PRIMES
from koblitz.errors import CapacityError, DomainError
from koblitz.primes import _least_primitive_root, phi

# ---------------------------------------------------------------------------
# factorization by trial division, without a budget
# ---------------------------------------------------------------------------


def _oracle_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial division by every d >= 2 up to sqrt(n), no sieve and no budget."""
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Dirichlet characters mod q from one exact integer angle table
# ---------------------------------------------------------------------------
#
# (Z/q)^* is a product of cyclic groups: one per odd prime power p^k, generated
# by a primitive root, and for 2^k the groups generated by -1 (k >= 2) and by 5
# (k >= 3).  Each generator g_j, of order o_j, is lifted to mod q by the CRT,
# and every unit x is g_1^l_1 ... g_n^l_n for exactly one log vector l(x).  The
# character with exponent tuple e sends x to exp(2 pi i ang / M), M = phi(q),
# where
#
#     ang(e, x) = sum_j e_j l_j(x) (M / o_j)  mod M
#
# is exact integer arithmetic, one matrix product for all characters.  Values
# are read from one table of M-th roots of unity.  The conductor is read from
# the same integers by its definition: the least d | q such that ang = 0 at
# every unit x = 1 mod d.

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
    for p, k in _oracle_factorize(q):
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


def moebius(n: int) -> int:
    if n < 1:
        raise DomainError("moebius requires n >= 1")
    pairs = _oracle_factorize(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


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
    for ell, alpha in _oracle_factorize(n):
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
# GL2 counts by enumeration
# ---------------------------------------------------------------------------

MAX_GL2_PRIME = 50


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
    if ell == 2 or _oracle_factorize(ell) != ((ell, 1),):
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
# the multiplicative exponential sum F(s; r; q, a)
# ---------------------------------------------------------------------------


def F_mult(s: int, r: int, q: int, a: int) -> int:
    """F(s;r;q,a) for squarefree s, as the product of local factors.

    The factor at a prime p | s equals the exponential double sum over units
    b, c mod p with gcd(q, p) | c - a.  For invertible residues a mod q this
    reduces to the familiar four-case table; when p divides both q and a the
    c-sum is empty and the factor is 0.
    """
    if s < 1:
        raise DomainError("s must be >= 1")
    out = 1
    for p, e in _oracle_factorize(s):
        if e > 1:
            raise DomainError(f"s={s} is not squarefree")
        if q % p == 0:
            if a % p == 0:
                out = 0
            else:
                out *= p - 1 if (a - r) % p == 0 else -1
        else:
            out *= -p + 1 if r % p == 0 else 1
    return out
