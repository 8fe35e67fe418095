"""Elliptic curves y^2 = x^3 + ax + b over F_p: traces and exhaustive censuses.

Every count over F_p reads one power table pw[k] = g^k (k < p - 1) of the
least primitive root g, so chi(g^k) = (-1)^k for the quadratic character chi,
and (g^k)^-1 = g^-k.  All traces come from three integer tables, each a
circular correlation sum_v w[v] chi(v + c mod p) by exact FFT:
t_cc[c] = a_p(E(c, c)), t_0b[b] = a_p(E(0, b)) and t_a0[a] = a_p(E(a, 0)).
For t_cc, x^3 + c(x + 1) = (x + 1)(c + x^3/(x + 1)) gives w[v] = sum of
chi(x + 1) over the x != -1 with x^3/(x + 1) = v; t_0b weights the cubes x^3,
and t_a0 the squares x^2 by chi(x).  Rescaling (a, b) -> (l^2 a, l^3 b)
multiplies a_p by chi(l), so for a = g^i and b = g^j the pair has the trace
chi(ab) t_cc[a^3 b^-2] = (-1)^(k + j) t_cc[g^k] of its log class
k = 3i - 2j mod p - 1 (k = i mod 2).  A box weighing the pair w_a(a) w_b(b)
thus puts on class k, per parity of j, the cyclic convolution of w_a(g^i)
binned at 3i with w_b(g^j) binned at -2j.  A census is the all-ones box, with
(p - 1)/2 per class and parity and no convolution, so it costs O(p log p).
The class log(-27/4) is exactly the singular class with ab != 0.

census, box_trace_histogram and deuring_counts return one layout: an int64
array over the Hasse range |r| <= isqrt(4p), entry r + isqrt(4p) for trace r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .primes import is_prime, primitive_root, sieve

# Largest p for the length-p trace tables behind census and
# box_trace_histogram: the class-number route's budget 10^5.
MAX_CENSUS_PRIME = 10**5

# Most pairs (2A+1)(2B+1) in a box: a histogram's float64 bincount is exact
# while every count stays at most 2^53.
MAX_BOX_PAIRS = 2**53


def _check_prime(p: int) -> None:
    if p <= 3 or not is_prime(p):
        raise DomainError(f"p={p} must be a prime > 3")


class _TraceTables(NamedTuple):
    pw: np.ndarray  # g^k mod p for k < p - 1
    k_singular: int  # log(-27/4), the singular class
    t_log: np.ndarray  # (-1)^k a_p(E(g^k, g^k)): the trace of class k when j is even
    t_0b: np.ndarray  # a_p(E(0, b)); t_0b[0] is unused
    t_a0: np.ndarray  # a_p(E(a, 0)); t_a0[0] is unused


def _power_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(pw, lg): pw[k] = g^k mod p for k < p - 1 and lg[pw[k]] = k, the discrete log.

    pw is one outer product mod p of m giant steps g^(mi) by m baby steps g^i.
    """
    g, m = primitive_root(p), math.isqrt(p - 2) + 1
    baby = np.array([pow(g, i, p) for i in range(m)], dtype=np.int64)
    giant = np.array([pow(g, m * i, p) for i in range(m)], dtype=np.int64)
    pw = (giant[:, None] * baby % p).ravel()[: p - 1]
    lg = np.zeros(p, dtype=np.int64)
    lg[pw] = np.arange(p - 1)
    return pw, lg


def _exact_convolution(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Circular convolution mod n of the integer rows of x and y, broadcast, exactly.

    Every value is rounded and checked to lie within 0.25 of an integer.
    """
    conv = np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y, n), n)
    out = np.rint(conv)
    err = float(np.abs(conv - out).max())
    if err > 0.25:
        raise AssertionError(f"convolution of length {n} lies {err:.3g} from an integer")
    return out.astype(np.int64)


def _correlate_chi(w: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """[sum_v w[v] chi(v + c mod p) for c = 0..p-1] per row of integer w, exactly.

    With d[v + c] = chi(v + c mod p) for v, c < p, the sum is entry p - 1 + c
    of reversed w convolved with d; mod n >= 2p it wraps only below p - 1.
    """
    p = len(chi)
    d = np.concatenate([chi, chi[:-1]])
    n = 1 << (2 * p - 1).bit_length()
    return _exact_convolution(np.asarray(w)[..., ::-1], d, n)[..., p - 1 : 2 * p - 1]


def _trace_tables(p: int) -> _TraceTables:
    if p > MAX_CENSUS_PRIME:
        raise CapacityError(f"p={p} exceeds census budget {MAX_CENSUS_PRIME}")
    pw, lg = _power_table(p)
    k = np.arange(p - 1)
    sign = 1 - 2 * (k & 1)
    chi = np.zeros(p, dtype=np.int64)
    chi[pw] = sign
    x = np.arange(p, dtype=np.int64)
    cube = x * x % p * x % p
    # x + 1 = g^k runs over x != -1 with (x + 1)^-1 = g^-k; x = -1 adds chi(-1)
    w_cc = np.bincount(cube[pw - 1] * pw[-k] % p, weights=sign, minlength=p)
    w_0b = np.bincount(cube, minlength=p)
    w_a0 = np.bincount(x * x % p, weights=chi, minlength=p)
    corr_cc, corr_0b, corr_a0 = _correlate_chi(np.stack([w_cc, w_0b, w_a0]), chi)
    return _TraceTables(
        pw=pw,
        k_singular=int(lg[-27 * pow(4, -1, p) % p]),
        t_log=sign * (-chi[p - 1] - corr_cc)[pw],
        t_0b=-corr_0b,
        t_a0=-corr_a0,
    )


def _histogram(tab: _TraceTables, w_class, w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
    """The census-layout histogram of the pairs (a, b) mod p weighted w_a[a] w_b[b].

    w_class[s, k], or one constant, is the weight of the ab != 0 of log class
    k with j = s mod 2.  The singular class is skipped.
    """
    p = len(w_a)
    t_cc = np.delete(tab.t_log, tab.k_singular)
    w_cc = np.delete(np.broadcast_to(w_class, (2, p - 1)), tab.k_singular, axis=1)
    traces = np.concatenate([t_cc, -t_cc, tab.t_0b[1:], tab.t_a0[1:]])
    weights = np.concatenate([w_cc.ravel(), w_a[0] * w_b[1:], w_b[0] * w_a[1:]])
    off = math.isqrt(4 * p)
    return np.bincount(traces + off, weights=weights, minlength=2 * off + 1).astype(np.int64)


def trace_grid(p: int) -> np.ndarray:
    """The traces r = -isqrt(4p)..isqrt(4p) that index every census array."""
    off = math.isqrt(4 * p)
    return np.arange(-off, off + 1, dtype=np.int64)


def census(p: int) -> np.ndarray:
    """hist[r + isqrt(4p)] = N_r(p), the number of curves over F_p of trace r."""
    _check_prime(p)
    ones = np.ones(p, dtype=np.int64)
    hist = _histogram(_trace_tables(p), (p - 1) // 2, ones, ones)
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


def _residue_multiplicities(bound: int, p: int) -> tuple[int, np.ndarray]:
    """(q, e): q + e[v] integers in [-bound, bound] fall in residue class v mod p; e is 0 or 1."""
    n = 2 * bound + 1
    e = np.zeros(p, dtype=np.int64)
    e[np.arange(-bound, -bound + n % p) % p] = 1
    return n // p, e


def box_trace_histogram(p: int, box_a: int, box_b: int) -> np.ndarray:
    """hist[r + isqrt(4p)] = #{|a| <= A, |b| <= B : a_p(E(a,b)) = r}.

    Pairs singular mod p are skipped.  Each side weighs residue v by q + e[v]
    with e[v] 0 or 1, so the transforms see only the rows e and 1 binned by
    log, at most 3 to a bin, and q scales their convolutions in int64.
    """
    _check_prime(p)
    if min(box_a, box_b) < 0 or (2 * box_a + 1) * (2 * box_b + 1) > MAX_BOX_PAIRS:
        raise DomainError(f"box A={box_a}, B={box_b} needs radii >= 0 and <= 2^53 pairs")
    tab = _trace_tables(p)  # the budget check comes before any length-p array
    (qa, ea), (qb, eb) = _residue_multiplicities(box_a, p), _residue_multiplicities(box_b, p)
    m = p - 1
    k = np.arange(m)

    def log_rows(q, e, at, size):
        """The rows e(g^k), then 1 if q > 0, binned at `at`, and their coefficients."""
        rows = [np.bincount(at, weights=e[tab.pw], minlength=size)]
        if q:
            rows.append(np.bincount(at, minlength=size))
        return np.stack(rows), [1, q][: len(rows)]

    rows_a, ca = log_rows(qa, ea, 3 * k % m, m)  # a = g^i at 3i
    rows_b, cb = log_rows(qb, eb, -2 * k % m + m * (k & 1), 2 * m)  # b = g^j at (j % 2, -2j)
    n = 1 << (2 * m - 1).bit_length()
    conv = _exact_convolution(rows_a[:, None, None], rows_b.reshape(-1, 2, m), n)
    w_class = np.einsum("x,y,xysk->sk", ca, cb, conv[..., :m] + conv[..., m : 2 * m])
    return _histogram(tab, w_class, qa + ea, qb + eb)
