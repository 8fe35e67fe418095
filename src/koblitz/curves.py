"""Elliptic curves y^2 = x^3 + ax + b over F_p: traces and exhaustive censuses.

All traces over F_p come from three integer tables of length p, with chi the
quadratic character mod p: t_cc[c] = a_p(E(c, c)), t_0b[b] = a_p(E(0, b)) and
t_a0[a] = a_p(E(a, 0)).  Rescaling (a, b) -> (l^2 a, l^3 b) multiplies a_p by
chi(l), and l = a/b gives a_p(E(a, b)) = chi(ab) t_cc[a^3 b^-2] for ab != 0.
Each table is a circular correlation sum_v w[v] chi(v + c mod p); all three
come from one zero-padded power-of-two rfft/irfft pair (see _correlate_chi),
and every entry is checked to lie within 0.25 of an integer.  For t_cc, the
factoring x^3 + c(x + 1) = (x + 1)(c + x^3/(x + 1)) gives w[v] = sum of
chi(x + 1) over the x != -1 with x^3/(x + 1) = v; t_0b weights the cubes x^3,
and t_a0 the squares x^2 by chi(x).  Each class c != 0 is one free orbit of
p - 1 pairs, split evenly between t_cc[c] and -t_cc[c], and c = -27/4 is
exactly the singular class with ab != 0, so a census costs O(p log p).

census, box_trace_histogram and deuring_counts return one layout: an int64
array over the Hasse range |r| <= isqrt(4p), entry r + isqrt(4p) for trace r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .primes import is_prime, kronecker_table, sieve

# Largest p for a full p x p trace grid (theorem1 reaches p < 5000).
MAX_TRACE_MATRIX_PRIME = 5000

# Largest p for the length-p trace tables behind census, trace_matrix and
# box_trace_histogram: the class-number route's budget 10^5.
MAX_CENSUS_PRIME = 10**5


def _check_prime(p: int) -> None:
    if p <= 3 or not is_prime(p):
        raise DomainError(f"p={p} must be a prime > 3")


class _TraceTables(NamedTuple):
    chi: np.ndarray  # chi(v), int8
    cube: np.ndarray  # v^3 mod p
    inv2: np.ndarray  # v^-2 mod p, and 0 at v = 0
    c_singular: int  # -27/4 mod p
    t_cc: np.ndarray  # a_p(E(c, c)); t_cc[0] is unused
    t_0b: np.ndarray  # a_p(E(0, b)); t_0b[0] is unused
    t_a0: np.ndarray  # a_p(E(a, 0)); t_a0[0] is unused


def _inverse_table(p: int) -> np.ndarray:
    """v^(p-2) mod p for v = 0..p-1, by square-and-multiply."""
    base = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _correlate_chi(w: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """[sum_v w[v] chi(v + c mod p) for c = 0..p-1] per row of integer w, exactly.

    With d = [chi, chi] zero-padded to n = 2^ceil(log2(2p)), the sum is the
    circular correlation mod n of w with d: for v, c < p the index v + c is
    at most 2p - 2 < n, so it never wraps and d[v + c] = chi(v + c mod p).
    Every row of w and d share one rfft, and the products one irfft.
    """
    p = len(chi)
    rows = np.atleast_2d(w)
    k = len(rows)
    n = 1 << (2 * p - 1).bit_length()
    padded = np.zeros((k + 1, 2 * p))
    padded[:k, :p] = rows
    padded[k, :p] = padded[k, p:] = chi
    f = np.fft.rfft(padded, n=n)
    corr = np.fft.irfft(np.conj(f[:k]) * f[k], n=n)[:, :p]
    out = np.rint(corr)
    err = float(np.abs(corr - out).max())
    if err > 0.25:
        raise AssertionError(f"correlation mod p={p} lies {err:.3g} from an integer")
    out = out.astype(np.int32)
    return out if np.ndim(w) > 1 else out[0]


def _trace_tables(p: int) -> _TraceTables:
    if p > MAX_CENSUS_PRIME:
        raise CapacityError(f"p={p} exceeds census budget {MAX_CENSUS_PRIME}")
    chi = kronecker_table(p, p)
    x = np.arange(p, dtype=np.int64)
    cube = x * x % p * x % p
    inv = _inverse_table(p)
    y = x[1:]  # y = x + 1 for x != -1; x = -1 contributes chi(-1)
    w_cc = np.bincount(cube[y - 1] * inv[y] % p, weights=chi[y], minlength=p)
    w_0b = np.bincount(cube, minlength=p)
    w_a0 = np.bincount(x * x % p, weights=chi, minlength=p)
    corr_cc, corr_0b, corr_a0 = _correlate_chi(np.stack([w_cc, w_0b, w_a0]), chi)
    return _TraceTables(
        chi=chi,
        cube=cube,
        inv2=inv * inv % p,
        c_singular=int(-27 * inv[2] ** 2 % p),
        t_cc=-chi[p - 1] - corr_cc,
        t_0b=-corr_0b,
        t_a0=-corr_a0,
    )


def _grid_traces(p: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, nonsingular) on the grid of residues a (rows) by b (columns)."""
    if a.size * b.size > MAX_TRACE_MATRIX_PRIME**2:
        raise CapacityError(f"{a.size}x{b.size} trace grid exceeds {MAX_TRACE_MATRIX_PRIME}^2")
    tab = _trace_tables(p)
    c = tab.cube[a][:, None] * tab.inv2[b] % p
    t = np.outer(tab.chi[a], tab.chi[b]) * tab.t_cc[c]
    t[a == 0, :] = tab.t_0b[b]
    t[:, b == 0] = tab.t_a0[a][:, None]
    nonsingular = c != tab.c_singular
    nonsingular[np.ix_(a == 0, b == 0)] = False
    return t, nonsingular


def trace_matrix(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, nonsingular) over the full residue grid: T[a, b] = a_p(E(a, b)).

    T is int32; entries at singular pairs are meaningless and masked off by
    the boolean `nonsingular` array.
    """
    _check_prime(p)
    if p > MAX_TRACE_MATRIX_PRIME:
        raise CapacityError(f"p={p} exceeds trace matrix budget {MAX_TRACE_MATRIX_PRIME}")
    x = np.arange(p, dtype=np.int64)
    return _grid_traces(p, x, x)


def trace_grid(p: int) -> np.ndarray:
    """The traces r = -isqrt(4p)..isqrt(4p) that index every census array."""
    off = math.isqrt(4 * p)
    return np.arange(-off, off + 1, dtype=np.int64)


def census(p: int) -> np.ndarray:
    """hist[r + isqrt(4p)] = N_r(p), the number of curves over F_p of trace r."""
    _check_prime(p)
    tab = _trace_tables(p)
    t_cc = np.delete(tab.t_cc, [0, tab.c_singular])
    traces = np.concatenate([t_cc, -t_cc, tab.t_0b[1:], tab.t_a0[1:]])
    weights = np.repeat([(p - 1) // 2, 1], [2 * t_cc.size, 2 * (p - 1)])
    off = math.isqrt(4 * p)
    hist = np.bincount(traces + off, weights=weights, minlength=2 * off + 1).astype(np.int64)
    total = int(hist.sum())
    if total != p * p - p:
        raise AssertionError(f"census total {total} != p^2 - p for p={p}")
    return hist


def deuring_counts(p: int, table: np.ndarray) -> np.ndarray:
    """(p-1)*H(r^2-4p) in the census layout, from a 12H table reaching 4p.

    By Deuring's identity this equals census(p); each (p-1)*12H is checked
    to be divisible by 12.
    """
    if len(table) <= 4 * p:
        raise DomainError(f"12H table of length {len(table)} does not reach 4p={4 * p}")
    r = trace_grid(p)
    counts, rem = np.divmod((p - 1) * table[4 * p - r * r], 12)
    if np.count_nonzero(rem):
        bad = int(r[np.flatnonzero(rem)[0]])
        raise AssertionError(f"(p-1)*12H not divisible by 12 at p={p}, r={bad}")
    return counts


@dataclass(frozen=True)
class DeuringRow:
    r: int
    census_count: int
    expected_count: int
    matches: bool


@dataclass(frozen=True)
class DeuringReport:
    p: int
    ordinary_mismatches: tuple[DeuringRow, ...]
    supersingular: DeuringRow

    @property
    def ordinary_all_match(self) -> bool:
        return not self.ordinary_mismatches

    @property
    def all_match(self) -> bool:
        return self.ordinary_all_match and self.supersingular.matches


def deuring_check(p: int, table: np.ndarray) -> DeuringReport:
    """Compare census(p) to deuring_counts(p, table), exactly.

    Ordinary traces (p does not divide r) are the asserted case; the r = 0
    row is evaluated and reported separately.
    """
    got, want = census(p), deuring_counts(p, table)
    off = len(got) // 2

    def row(i: int) -> DeuringRow:
        c, e = int(got[i]), int(want[i])
        return DeuringRow(r=i - off, census_count=c, expected_count=e, matches=c == e)

    mismatches = tuple(row(int(i)) for i in np.flatnonzero(got != want) if i != off)
    return DeuringReport(p=p, ordinary_mismatches=mismatches, supersingular=row(off))


def deuring_sweep(pmax: int, table: np.ndarray) -> tuple[DeuringReport, ...]:
    """deuring_check for every prime 5 <= p <= pmax, all against one 12H table."""
    return tuple(deuring_check(int(p), table) for p in sieve(pmax).primes if p >= 5)


def pi_star(p: int) -> int:
    """#{curves over F_p with a prime number of points}."""
    hist, r = census(p), trace_grid(p)
    return int(hist[sieve(p + 1 + r[-1]).flags[p + 1 - r]].sum())


def _residue_multiplicities(bound: int, p: int) -> np.ndarray:
    """How many integers in [-bound, bound] fall in each residue class mod p."""
    n = 2 * bound + 1
    counts = np.full(p, n // p, dtype=np.int64)
    rem = np.arange(-bound, -bound + (n % p), dtype=np.int64) % p
    np.add.at(counts, rem, 1)
    return counts


def box_trace_histogram(p: int, box_a: int, box_b: int) -> np.ndarray:
    """hist[r + isqrt(4p)] = #{|a| <= A, |b| <= B : a_p(E(a,b)) = r}.

    Pairs singular mod p are skipped.  Traces are gathered only on the
    residues the box reaches.
    """
    _check_prime(p)
    wa = _residue_multiplicities(box_a, p)
    wb = _residue_multiplicities(box_b, p)
    ia, ib = np.flatnonzero(wa), np.flatnonzero(wb)
    t, ns = _grid_traces(p, ia, ib)
    w = np.outer(wa[ia], wb[ib]).astype(np.float64)
    off = math.isqrt(4 * p)
    hist = np.bincount(t[ns] + off, weights=w[ns], minlength=2 * off + 1)
    return np.rint(hist).astype(np.int64)
