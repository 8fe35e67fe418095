"""Integer primitives: sieves, primality and factorization.

Everything here is pure and deterministic and keeps no state between calls.
The heavier callers (window statistics, census prime lists) lean on the
numpy-backed sieves, which all read one odd-only sieve of a window,
_odd_flags.  Primality is read off those flags.  factorize() is trial
division by the primes below 1000, so it splits every n <= MAX_FACTOR =
1009^2 - 1: the p - 1 behind primitive roots, the q of phi and rho, and the
r - 2, r - 1 and r of C_r.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError

# Largest sieve we are willing to allocate (one byte per integer).
MAX_SIEVE_LIMIT = 1 << 30


def _odd_flags(x: int, y: int) -> np.ndarray:
    """Primality flags for the odd integers of (x, x+y]: entry i marks the odd
    integer 2((x+1)//2 + i) + 1.  The integer 1 reads as non-prime.

    The odd base primes p <= sqrt(x+y) come from this routine on
    (0, sqrt(x+y)], and each strikes its odd multiples from max(p^2, the first
    above x) on, every p-th entry.  A base prime with 2p > y has at most one
    odd multiple in the window, so those primes strike in one array pass;
    int64 holds their starts, since the budget on the base window keeps x + y
    below (MAX_SIEVE_LIMIT + 1)^2 < 2^61.
    """
    if y > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve length {y} exceeds budget {MAX_SIEVE_LIMIT}")
    root = math.isqrt(x + y)
    base = np.flatnonzero(_odd_flags(0, root)) * 2 + 1 if root >= 3 else np.empty(0, np.int64)
    lo = (x + 1) // 2  # odd integers <= x; odd m sits at entry m // 2 - lo
    flags = np.ones((x + y + 1) // 2 - lo, dtype=bool)
    if x == 0:
        flags[0] = False  # the integer 1
    split = int(np.searchsorted(base, y // 2, side="right"))  # 2p <= y
    for p in base[:split].tolist():
        flags[p * max(p, (x // p + 1) | 1) // 2 - lo :: p] = False
    large = base[split:]
    starts = large * np.maximum(large, (x // large + 1) | 1)
    flags[starts[starts <= x + y] // 2 - lo] = False
    return flags


def sieve(limit: int) -> np.ndarray:
    """Primality flags for 0..limit, entry n for the integer n:
    sieve_window(0, limit) behind one False for 0."""
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    return np.concatenate(([False], sieve_window(0, limit)))


def sieve_window(x: int, y: int) -> np.ndarray:
    """Primality flags for the window (x, x+y]: entry i marks x+1+i.

    Only the window and the primes up to sqrt(x+y) are sieved, so the
    window may start far from 0.
    """
    if y < 1 or x < 0:
        raise DomainError("window requires x >= 0, y >= 1")
    odd = _odd_flags(x, y)
    flags = np.zeros(y, dtype=bool)
    flags[x % 2 :: 2] = odd  # x+1 is odd exactly when x is even
    if x < 2 <= x + y:
        flags[1 - x] = True
    return flags


# The trial divisors of factorize(): every prime below 1000.
_TRIAL_PRIMES = tuple(np.flatnonzero(sieve(1000)).tolist())

# The largest n factorize() splits: below 1009^2, the square of the least
# prime past _TRIAL_PRIMES, n has at most one prime factor above 1000.
MAX_FACTOR = 1009**2 - 1


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n, for 1 <= n <= MAX_FACTOR.

    Trial division by _TRIAL_PRIMES.  The loop stops once p^2 exceeds the
    cofactor left, or after 997; either way the cofactor has no prime factor
    up to its square root, so it is 1 or a prime.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    if n > MAX_FACTOR:
        raise CapacityError(f"n={n} exceeds factorization budget {MAX_FACTOR}")
    pairs = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise DomainError("phi requires n >= 1")
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _least_primitive_root(p: int) -> int:
    """Least primitive root mod p, for a p the caller has checked to be prime."""
    divs = [d for d, _ in factorize(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // d, p) != 1 for d in divs))
