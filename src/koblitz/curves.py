"""Elliptic curves y^2 = x^3 + ax + b over F_p: traces and exhaustive censuses.

Every count over F_p reads one power table pw[k] = g^k of the least primitive
root g, so chi(g^k) = (-1)^k for the quadratic character chi, and
(g^k)^-1 = g^-k.  The traces with ab != 0 come from one integer table, a
circular correlation by exact FFT: t_cc[c] = a_p(E(c, c)) is -chi(-1) minus
sum_v w[v] chi(v + c mod p), since x^3 + c(x + 1) = (x + 1)(c + x^3/(x + 1))
gives w[v] = sum of chi(x + 1) over the x != -1 with x^3/(x + 1) = v.
Rescaling (a, b) -> (l^2 a, l^3 b) multiplies a_p by chi(l), so for a = g^i
and b = g^j the pair has the trace chi(ab) t_cc[a^3 b^-2] = (-1)^(k + j)
t_cc[g^k] of its log class k = 3i - 2j mod p - 1 (k = i mod 2).  A box
weighing the pair w_a(a) w_b(b) thus puts on class k, per parity of j,
sum_v x[v] y[v + k]: x is w_b(g^j) binned at 2j and y is w_a(g^i) binned at
3i and written out twice, the same correlation that reads chi(v + c) off
[chi, chi] in a census.  The class log(-27/4) is exactly the singular class
with ab != 0.

With l = g^2 the rescaling keeps the trace, so a_p(E(g^i, 0)) depends only on
i mod gcd(4, p - 1) and a_p(E(0, g^i)) only on i mod gcd(6, p - 1).  With
l = g it flips the sign, as chi(g) = -1: a_p(E(g^(i+2), 0)) = -a_p(E(g^i, 0))
and a_p(E(0, g^(i+3))) = -a_p(E(0, g^i)).  So the two families are at most
five direct sums, at g^0, g^1 and at g^0..g^2, weighed per coset.

One assembly, _histograms, turns class and coset weights into histograms.  A
census is the all-ones box |a|, |b| <= (p - 1)/2: (p - 1)/2 per class and
parity, (p - 1)/gcd per coset, and no further transform, so it costs
O(p log p).  Both correlate through primes._exact_correlation at the length
primes._length gives, 2 * 2^a 3^b 5^c, which numpy's FFT factors fully: for
p > 100 the length n stays below 1.11 * 2p, where the next power of two
reaches 4p.  `censuses` builds the tables of consecutive primes together, as
many as fit a budget of cells at the batch's longest length, one zero-padded
row per prime, and assembles the batch's histograms in one bincount.
census and box_trace_histogram return one layout: an int64 array over the
Hasse range |r| <= isqrt(4p), entry r + isqrt(4p) for trace r;
deuring_batches lays the Deuring counts of a run of primes end to end in it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError
from .primes import _exact_correlation, _least_primitive_root, _length, sieve

# Largest p for the length-p trace tables behind census and
# box_trace_histogram: the class-number route's budget 10^5.
MAX_CENSUS_PRIME = 10**5

# Most pairs (2A+1)(2B+1) in a box: a histogram's float64 bincount is exact
# while every count stays at most 2^53.
MAX_BOX_PAIRS = 2**53

# Most cells, rows times the longest transform length, in one batch of census
# tables; a prime whose length alone exceeds it is a batch of one.  Against
# one prime at a time, 2^16 cells raised the peak RSS of `theorem2 --pmax 500`
# by 1.3-2 MB and 2^14 by under 0.1 MB, at the same speed.  Deuring counts
# use the same budget for rows times the widest Hasse range: every prime up
# to 500 in one run, about 13 primes a run near 10^5.
_BATCH_CELLS = 1 << 14


def _check_primes(primes: list[int]) -> None:
    """Raise unless every p is a prime > 3 within the census budget.

    The budget comes first, so the one sieve, to the largest p, stays within
    it; each check raises at its first failing p in input order.
    """
    for p in primes:
        if p > MAX_CENSUS_PRIME:
            raise CapacityError(f"p={p} exceeds census budget {MAX_CENSUS_PRIME}")
    flags = sieve(max([2, *primes]))
    for p in primes:
        if p <= 3 or not flags[p]:
            raise DomainError(f"p={p} must be a prime > 3")


class _TraceTables(NamedTuple):
    """A batch's tables, one row per prime p; a row's columns k < p - 1 are its own."""

    pw: np.ndarray  # g^k mod p for every column k
    k_singular: np.ndarray  # log(-27/4), the singular class, per row
    t_log: np.ndarray  # (-1)^k a_p(E(g^k, g^k)): the trace of class k when j is even
    t_a0: np.ndarray  # a_p(E(g^i, 0)) for i < 4
    t_0b: np.ndarray  # a_p(E(0, g^i)) for i < 6


def _power_table(primes: list[int], width: int) -> np.ndarray:
    """pw[row, k] = g^k mod p for k < width, g the least primitive root of the row's p.

    Built by doubling: columns [s, 2s) are columns [0, s) times g^s mod p.
    """
    p = np.array(primes, dtype=np.int64)[:, None]
    g = np.array([_least_primitive_root(q) for q in primes], dtype=np.int64)[:, None]
    pw = np.empty((len(primes), width), dtype=np.int64)
    pw[:, :1] = 1
    s = 1
    while s < width:
        t = min(s, width - s)
        pw[:, s : s + t] = pw[:, :t] * (pw[:, s - 1 : s] * g % p) % p
        s += t
    return pw


def _trace_tables(primes: list[int]) -> _TraceTables:
    """The tables of a batch of checked primes at the batch's longest length n.

    Rows are n/2 >= p wide, and d = [chi, chi] is n >= 2p wide.  Only w_cc is
    transformed; each coset value is one dot product of a weight row with d.
    """
    n = _length(max(primes))  # _length is nondecreasing
    half = n // 2
    p = np.array(primes, dtype=np.int64)[:, None]
    row = np.arange(len(primes))[:, None]
    pw = _power_table(primes, half)
    k = np.arange(half)
    sign = 1 - 2 * (k & 1)
    d = np.zeros((len(primes), n), dtype=np.int64)
    d[row, pw] = d[row, p + pw] = sign  # p - 1 is even: k >= p - 1 repeats k mod p - 1

    def binned(at, live, weights=None):
        """Per row, the weights of the live columns summed at `at` < n/2."""
        if weights is not None:
            weights = np.broadcast_to(weights, live.shape)[live]
        flat = np.bincount((row * half + at)[live], weights, minlength=live.size)
        return flat.reshape(live.shape)

    def coset_traces(w, count):
        """-sum_v w[v] d[v + g^i] for i < 2 count: the window of d at g^i, per row.

        Only the count windows at i < count are gathered, count * n/2 cells a
        row; the twist sign gives the rest, t[i + count] = -t[i].
        """
        windows = np.lib.stride_tricks.sliding_window_view(d, half, axis=1)
        sums = np.einsum("rv,rcv->rc", w, windows[row, pw[:, :count]]).astype(np.int64)
        return np.concatenate([-sums, sums], axis=1)

    # x + 1 = g^k runs over x != -1 with (x + 1)^-1 = g^(p-1-k); x = -1 adds chi(-1)
    x = pw - 1
    w_cc = binned(x * x % p * x % p * pw[row, p - 1 - k] % p, k < p - 1, sign)
    corr = _exact_correlation(w_cc, d)
    return _TraceTables(
        pw=pw,
        k_singular=np.argmax(pw == [[-27 * pow(4, -1, q) % q] for q in primes], axis=1),
        t_log=sign * (-d[row, p - 1] - corr[row, pw]),
        # over y = k < p: chi(y) chi(y^2 + a) and chi(y^3 + b)
        t_a0=coset_traces(binned(k * k % p, k < p, d[:, :half]), 2),
        t_0b=coset_traces(binned(k * k % p * k % p, k < p), 3),
    )


def _histograms(primes: list[int], tab: _TraceTables, w_cc, w_a0, w_0b) -> np.ndarray:
    """Each row's histogram over |r| <= isqrt(4p) from integer weights, in one
    bincount; a row's columns past its own 2 isqrt(4p) + 1 stay 0.

    w_cc[row, s, k] weighs log class k < p - 1 at (-1)^s t_log[k], and the
    singular class weighs 0; w_a0[row, i] weighs the pairs (a, 0) of trace
    t_a0[i], and w_0b[row, j] the pairs (0, b) of trace t_0b[j].  The float64
    bincount is exact while every count stays at most 2^53 (MAX_BOX_PAIRS).
    """
    rows, width = tab.t_log.shape
    p = np.array(primes, dtype=np.int64)[:, None]
    off = np.array([math.isqrt(4 * q) for q in primes])[:, None]
    size = 2 * int(off.max()) + 1
    k = np.arange(width)
    live = (k < p - 1) & (k != tab.k_singular[:, None])
    w_cc = live[:, None] * np.broadcast_to(w_cc, (rows, 2, width))
    weights = np.concatenate([w_cc[:, 0], w_cc[:, 1], w_a0, w_0b], axis=1, dtype=np.float64)
    at = np.concatenate([tab.t_log, -tab.t_log, tab.t_a0, tab.t_0b], axis=1)
    at += np.arange(rows)[:, None] * size + off
    hist = np.bincount(at.ravel(), weights.ravel(), rows * size)
    return hist.reshape(rows, size).astype(np.int64)


def _census_rows(primes: list[int], tab: _TraceTables) -> Iterator[tuple[int, np.ndarray]]:
    """(p, census(p)) per row of a batch: the all-ones box, whose ab != 0
    classes weigh (p - 1)/2 per parity of j and whose family cosets weigh
    (p - 1)/gcd.  Every row's total is checked before any row is yielded.
    """
    p = np.array(primes, dtype=np.int64)[:, None]
    d4, d6 = np.gcd(4, p - 1), np.gcd(6, p - 1)
    w_a0, w_0b = (p - 1) // d4 * (np.arange(4) < d4), (p - 1) // d6 * (np.arange(6) < d6)
    hist = _histograms(primes, tab, (p[:, None] - 1) // 2, w_a0, w_0b)
    for q, total in zip(primes, hist.sum(axis=1).tolist()):
        if total != q * (q - 1):
            raise AssertionError(f"census total {total} != p^2 - p for p={q}")
    for q, row in zip(primes, hist):
        yield q, row[: _hasse_width(q)]


def _batches(primes: list[int], width=_length) -> Iterator[list[int]]:
    """Runs of consecutive primes, as long as rows times the longest width(p)
    fits _BATCH_CELLS; the width defaults to the transform length.

    A prime whose width alone exceeds the budget is a run of one.
    """
    batch: list[int] = []
    longest = 0
    for p in primes:
        n = width(p)
        if batch and (len(batch) + 1) * max(longest, n) > _BATCH_CELLS:
            yield batch
            batch, longest = [], 0
        batch.append(p)
        longest = max(longest, n)
    if batch:
        yield batch


def trace_grid(p: int) -> np.ndarray:
    """The traces r = -isqrt(4p)..isqrt(4p) that index every census array."""
    off = math.isqrt(4 * p)
    return np.arange(-off, off + 1, dtype=np.int64)


def twin_traces(flags: np.ndarray, p: int) -> np.ndarray:
    """flags[p + 1 - r] over trace_grid(p): the traces r with p + 1 - r prime,
    for primality flags that reach p + 1 + isqrt(4p)."""
    off = math.isqrt(4 * p)
    return flags[p + 1 + off : p - off : -1]


def censuses(primes: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(p, census(p)) for each p in `primes`, in order, computed batch by batch.

    Every p is checked before any table is built.  A batch pads its rows to
    its longest prime's length, so ascending input wastes the fewest cells.
    """
    primes = [int(p) for p in primes]
    _check_primes(primes)
    return (out for batch in _batches(primes) for out in _census_rows(batch, _trace_tables(batch)))


def census(p: int) -> np.ndarray:
    """hist[r + isqrt(4p)] = N_r(p), the number of curves over F_p of trace r."""
    [(_, hist)] = censuses([p])
    return hist


def _hasse_width(p: int) -> int:
    """The traces |r| <= isqrt(4p) of p's census layout."""
    return 2 * math.isqrt(4 * p) + 1


def _deuring_gather(primes: list[int], table: np.ndarray) -> tuple[np.ndarray, ...]:
    """deuring_batches' (p, r, counts) for one run of primes, from one gather of
    the 12H table; each (p-1)*12H is checked to be divisible by 12."""
    if len(table) <= 4 * max(primes):
        raise DomainError(f"12H table of length {len(table)} does not reach 4p={4 * max(primes)}")
    off = np.array([math.isqrt(4 * q) for q in primes])
    width = 2 * off + 1
    p = np.repeat(np.array(primes, dtype=np.int64), width)
    # prime i's last entry, cumsum[i] - 1, has r = off_i
    r = np.arange(p.size) - np.repeat(np.cumsum(width) - off - 1, width)
    twelve = (p - 1) * table[4 * p - r * r]
    counts = twelve // 12
    bad = np.flatnonzero(counts * 12 != twelve)
    if bad.size:
        raise AssertionError(f"(p-1)*12H not divisible by 12 at p={p[bad[0]]}, r={r[bad[0]]}")
    return p, r, counts


def deuring_batches(primes: Iterable[int], table: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """(p, r, counts) per run of consecutive `primes`, as many per run as keep
    rows times the widest Hasse range within _BATCH_CELLS, from a 12H table
    reaching 4p: flat over each prime's traces |r| <= isqrt(4p), in the order
    of the primes and then of r, counts = (p-1)*H(r^2-4p).

    By Deuring's identity, the counts of each p equal census(p).
    """
    return (_deuring_gather(b, table) for b in _batches([int(p) for p in primes], _hasse_width))


def deuring_sweep(pmax: int, table: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(p, r) for every prime 5 <= p <= pmax, all against one 12H table: r
    holds the traces at which census(p) and its Deuring counts differ.

    The counts come from deuring_batches, one gather per run of primes, split
    where p changes.  Ordinary traces (r != 0, as |r| < p) are the asserted
    case; r = 0, the supersingular trace, is reported separately by the callers.
    """
    primes = np.flatnonzero(sieve(pmax))[2:].tolist()
    expected = (
        counts
        for p, _, run in deuring_batches(primes, table)
        for counts in np.split(run, np.flatnonzero(np.diff(p)) + 1)
    )
    return [(p, trace_grid(p)[hist != want]) for want, (p, hist) in zip(expected, censuses(primes))]


def pi_star(p: int) -> int:
    """#{curves over F_p with a prime number of points}."""
    flags = sieve(p + 1 + math.isqrt(4 * p))
    return int(census(p)[twin_traces(flags, p)].sum())


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
    log, at most 3 to a bin, and q scales their correlations in int64.  The
    histogram must total the box's pairs less its singular ones, which mod p
    are exactly (-3t^2, 2t^3) for t in F_p.
    """
    _check_primes([p])  # the budget check comes before any length-p array
    if min(box_a, box_b) < 0 or (2 * box_a + 1) * (2 * box_b + 1) > MAX_BOX_PAIRS:
        raise DomainError(f"box A={box_a}, B={box_b} needs radii >= 0 and <= 2^53 pairs")
    tab = _trace_tables([p])
    (qa, ea), (qb, eb) = _residue_multiplicities(box_a, p), _residue_multiplicities(box_b, p)
    m = p - 1
    k = np.arange(m)
    pw = tab.pw[0, :m]

    def log_rows(q, e, at, size):
        """The rows e(g^k), then 1 if q > 0, binned at `at`, and their coefficients."""
        rows = [np.bincount(at, weights=e[pw], minlength=size)]
        if q:
            rows.append(np.bincount(at, minlength=size))
        return np.stack(rows), [1, q][: len(rows)]

    rows_a, ca = log_rows(qa, ea, 3 * k % m, m)  # a = g^i at 3i
    rows_b, cb = log_rows(qb, eb, 2 * k % m + m * (k & 1), 2 * m)  # b = g^j at (j % 2, 2j)
    d = np.pad(np.tile(rows_a, 2), ((0, 0), (0, _length(m) - 2 * m)))
    corr = _exact_correlation(rows_b.reshape(1, -1, 2, m), d[:, None, None])
    w_class = np.einsum("x,y,xysk->sk", ca, cb, corr)
    # (g^i, 0) and (0, g^j) by log: the coset traces at g^0..g^5 repeat with
    # period gcd(4 or 6, p - 1), so i mod 4 and j mod 6 pick theirs
    w_a, w_b = qa + ea, qb + eb
    w_cc = np.pad(w_class, ((0, 0), (0, tab.pw.shape[1] - m)))[None]
    w_a0, w_0b = np.bincount(k % 4, w_b[0] * w_a[pw], 4), np.bincount(k % 6, w_a[0] * w_b[pw], 6)
    [hist] = _histograms([p], tab, w_cc, w_a0[None], w_0b[None])
    t = np.arange(p, dtype=np.int64)
    singular = int(np.sum(w_a[-3 * t * t % p] * w_b[2 * (t * t % p) * t % p]))
    total, want = int(hist.sum()), (2 * box_a + 1) * (2 * box_b + 1) - singular
    if total != want:
        raise AssertionError(f"box histogram total {total} != {want} nonsingular pairs for p={p}")
    return hist
