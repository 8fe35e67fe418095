"""Integer-primitive tests against independent oracles."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koblitz import primes
from koblitz.errors import CapacityError, DomainError
from koblitz.primes import (
    _least_primitive_root,
    factorize,
    is_prime,
    phi,
    sieve,
    sieve_window,
)
from lemmas import moebius
from oracles import kronecker, kronecker_table


def _oracle_sieve(limit):
    """Independent bytearray sieve, no numpy."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


# Reach of the window tests' reference flags: every window they draw ends below it.
_WINDOW_REACH = 10**6 + 3000


@functools.lru_cache(maxsize=1)
def _oracle_flags():
    """Primality flags for 0.._WINDOW_REACH from _oracle_sieve, built once."""
    flags = np.zeros(_WINDOW_REACH + 1, dtype=bool)
    flags[_oracle_sieve(_WINDOW_REACH)] = True
    return flags


def _oracle_is_prime(n):
    """Trial division to sqrt(n)."""
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _oracle_factorize(n):
    """Trial division by every d >= 2 up to sqrt(n), no sieve."""
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


def _oracle_kronecker(a, n):
    """Kronecker symbol built from Euler's criterion and multiplicativity,
    independent of the production implementation."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    res = 1
    if n < 0:
        n = -n
        if a < 0:
            res = -1
    for p in range(2, n + 1):
        while n % p == 0:
            n //= p
            if p == 2:
                if a % 2 == 0:
                    return 0
                res *= 1 if a % 8 in (1, 7) else -1
            else:
                e = pow(a % p, (p - 1) // 2, p)
                if e == 0:
                    return 0
                res *= 1 if e == 1 else -1
    return res


class TestSieve:
    def test_small(self):
        assert sieve(10).tolist() == [n in (2, 3, 5, 7) for n in range(11)]
        assert sieve(2).tolist() == [False, False, True]

    def test_pi_of_one_million(self):
        assert np.count_nonzero(sieve(10**6)) == 78498

    def test_against_independent_sieve(self):
        assert np.flatnonzero(sieve(10**4)).tolist() == _oracle_sieve(10**4)

    def test_every_limit_against_trial_division(self):
        naive = [n for n in range(2, 2001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        for limit in range(2, 2001):
            flags = sieve(limit)
            want = [n for n in naive if n <= limit]
            assert flags.dtype == bool and flags.shape == (limit + 1,), limit
            assert np.flatnonzero(flags).tolist() == want, limit

    def test_domain_and_capacity(self):
        with pytest.raises(DomainError):
            sieve(1)
        with pytest.raises(CapacityError):
            sieve(1 << 31)

    def test_segmented_window_matches_flat_sieve(self):
        for x, y in ((0, 100), (97, 50), (10**6, 1000), (3, 4), (0, 1), (1, 1), (2, 1)):
            flags = sieve_window(x, y)
            assert flags.tolist() == _oracle_flags()[x + 1 : x + y + 1].tolist()

    @pytest.mark.parametrize("x, y", [(10**12, 2000), (10**12 - 1, 999), (2**40 + 7, 64)])
    def test_window_far_from_zero_against_is_prime(self, x, y):
        # most base primes (up to 10^6) exceed y / 2 and strike in the array pass
        want = [is_prime(n) for n in range(x + 1, x + y + 1)]
        assert sieve_window(x, y).tolist() == want

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_property_against_flat_sieve(self, x, y):
        # y < sqrt(x + y) here is common, so the base primes above y
        # (one strike each, in one array pass) are exercised
        assert np.array_equal(sieve_window(x, y), _oracle_flags()[x + 1 : x + y + 1])

    def test_window_domain(self):
        with pytest.raises(DomainError):
            sieve_window(-1, 10)
        with pytest.raises(DomainError):
            sieve_window(0, 0)


class TestIsPrime:
    def test_small_cases(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert is_prime(2)
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)  # 641 * 6700417

    def test_against_table_to_one_hundred_thousand(self):
        flags = sieve(10**5)
        for n in range(10**5 + 1):
            assert is_prime(n) == bool(flags[n])

    def test_random_forty_bit_against_trial_division(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            n = rng.randrange(1 << 39, 1 << 40)
            assert is_prime(n) == _oracle_is_prime(n)

    def test_strong_pseudoprimes(self):
        # Carmichael numbers and base-2 pseudoprimes must be rejected
        for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
            assert not is_prime(n)


class TestKronecker:
    def test_examples(self):
        assert kronecker(2, 7) == 1
        assert kronecker(5, 5) == 0
        assert kronecker(2, 15) == 1

    def test_against_independent_oracle(self):
        for n in range(-40, 41):
            for a in range(-40, 41):
                assert kronecker(a, n) == _oracle_kronecker(a, n), (a, n)

    def test_periodicity_in_a(self):
        # period 4n in the top argument, exhaustively for n <= 200
        for n in range(1, 201):
            base = [kronecker(a, n) for a in range(4 * n)]
            for a in range(4 * n):
                assert kronecker(a + 4 * n, n) == base[a]

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**3).filter(lambda n: n % 2 == 1),
        st.integers(min_value=1, max_value=10**3).filter(lambda n: n % 2 == 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_in_bottom_argument(self, a, m, n):
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    def test_table_matches_scalar(self):
        for n in list(range(1, 31)) + [45, 72, 101]:
            tab = kronecker_table(n, 150)
            for a in range(150):
                assert int(tab[a]) == kronecker(a, n), (a, n)

    def test_table_domain(self):
        with pytest.raises(DomainError):
            kronecker_table(0, 10)


class TestFactorize:
    def test_examples(self):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(1) == ()
        assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
        # squares and products of primes above 10^6, split by Pollard-Brent
        assert factorize(1000003**2) == ((1000003, 2),)
        assert factorize(999983 * 1000003) == ((999983, 1), (1000003, 1))
        # the top of the exact range, and a semiprime near it with two factors
        # near 2^31.5, the slowest kind for Pollard-Brent
        assert factorize(2**63 - 1) == (
            (7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1)
        )
        assert factorize(3037000453 * 3037000493) == ((3037000453, 1), (3037000493, 1))

    def test_trial_boundary(self):
        # trial division stops at 997, where a cofactor below 10^6 is prime;
        # 1009^2 and 1009 * 1013 are the first composites past it to split,
        # and 722 000 = 2^4 5^3 19^2 is the largest n the CLI verbs and demos
        # ask for at their default and benchmark sizes
        assert primes._TRIAL_PRIMES == tuple(_oracle_sieve(1000))
        for n in (999983, 1009**2, 1009 * 1013, 997 * 1009, 997**2, 722000, 10**6 - 1):
            assert factorize(n) == _oracle_factorize(n), n

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_domain(self):
        # n >= 2^63 is rejected before any division: such inputs can run for hours
        for n in (0, 2**63, (2**61 - 1) * (2**89 - 1)):
            with pytest.raises(DomainError):
                factorize(n)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_and_primality(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert e >= 1
            assert _oracle_is_prime(p) if p < 10**6 else is_prime(p)
            prod *= p**e
        assert prod == n
        assert isinstance(fac, tuple) and fac == tuple(sorted(fac))


class TestMultiplicativeFunctions:
    def test_examples(self):
        assert phi(12) == 4
        assert moebius(30) == -1
        assert moebius(4) == 0

    def test_divisor_sum_identities(self):
        n_max = 10**4
        phi_sum = np.zeros(n_max + 1, dtype=np.int64)
        mu_sum = np.zeros(n_max + 1, dtype=np.int64)
        for d in range(1, n_max + 1):
            phi_sum[d::d] += phi(d)
            mu_sum[d::d] += moebius(d)
        assert (phi_sum[1:] == np.arange(1, n_max + 1)).all()
        assert mu_sum[1] == 1
        assert (mu_sum[2:] == 0).all()

    def test_domain(self):
        for fn in (phi, moebius):
            with pytest.raises(DomainError):
                fn(0)


class TestPrimitiveRoot:
    def test_against_multiplicative_order(self):
        def order(g, p):
            k, x = 1, g % p
            while x != 1:
                k, x = k + 1, x * g % p
            return k

        for p in _oracle_sieve(2000)[1:]:
            g = _least_primitive_root(p)
            assert order(g, p) == p - 1, p
            assert all(order(h, p) < p - 1 for h in range(1, g)), p

    def test_two(self):
        assert _least_primitive_root(2) == 1
