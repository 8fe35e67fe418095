"""Integer primitives: sieves, primality and factorization.

Everything here is pure and deterministic and keeps no state between calls.
The heavier callers (window statistics, census prime lists) lean on the
numpy-backed sieves, which all read one odd-only sieve of a window,
_odd_flags; factorization is for the integers below 2^63 behind
primitive roots, phi, rho and the finite corrections of C_r.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError

# Largest sieve we are willing to allocate (one byte per integer).
MAX_SIEVE_LIMIT = 1 << 30

# Strong-pseudoprime witnesses covering every n < 3.3 * 10^24, hence all of
# 64-bit range (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The trial divisors of factorize(): every prime below 1000.
_TRIAL_PRIMES = tuple(np.flatnonzero(sieve(1000)).tolist())


def _pollard_brent(n: int) -> int:
    """Deterministic Brent-cycle Pollard rho; returns a nontrivial factor of
    an odd composite n."""
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"factorization failed for {n}")  # pragma: no cover


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n, for 1 <= n < 2^63."""
    if not 1 <= n < 1 << 63:
        raise DomainError("factorize requires 1 <= n < 2^63")
    pairs: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            pairs[p] = pairs.get(p, 0) + 1
            n //= p
    # Had the loop stopped at p, n < p^2 with no prime factor below p is 1 or
    # a prime.  Otherwise every prime factor of n exceeds 1000: n < 1009^2 is
    # prime, and a composite n is odd, as is each factor Pollard-Brent splits.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < 10**6 or is_prime(m):
            pairs[m] = pairs.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(pairs.items()))


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
