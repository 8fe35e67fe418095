"""Scalar and brute-force routes that the tests check the package against.

Each one computes a quantity straight from its definition, independently of
the array kernel the package uses for it: Miller-Rabin primality (primes),
point-count traces, the singular pairs mod p and the per-curve twin count
(curves), reduced-form class numbers (classnumbers), the scalar Kronecker
symbol and Kronecker tables (primes), the character sum c_f^r(n), the Euler
products truncated at a limit L, from prime_terms with a tail estimate and
from one full sieve (among them 2*C2, which the package keeps as the literal
TWIN_CONSTANT), and the triple sum over f, n and a that converges to C_r
(constants), and the scalar singular series S(r) and S(r,q,a), the sieved
window (X-R, X+Y+R] and on it the window sum psi and error E, 2*C2 and the
exponential sum F(s; r; q, a) (twinseries).  deuring_counts alone is not
independent: it is the one-prime case of curves.deuring_batches, for the
tests that check a single prime.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from koblitz.constants import TWIN_CONSTANT
from koblitz.curves import _check_primes, deuring_batches
from koblitz.errors import DomainError
from koblitz.primes import _odd_flags, factorize, phi, sieve, sieve_window
from koblitz.twinseries import rho
from lemmas import _check_cfr_args, _oracle_factorize

# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

# Strong-pseudoprime witnesses covering every n < 3.3 * 10^24, hence all of
# 64-bit range (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs: the oracle of
    the sieve windows far from 0, which the package reads primality from."""
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

# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveModP:
    """Nonsingular short Weierstrass curve over F_p, p > 3."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        _check_primes([self.p])
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise DomainError(f"singular curve (a,b)=({self.a},{self.b}) mod {self.p}")


def trace(curve: CurveModP) -> int:
    """Trace of Frobenius a_p = -sum_x chi(x^3 + ax + b)."""
    p, a, b = curve.p, curve.a, curve.b
    k = kronecker_table(p, p)
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x + a * x + b) % p
    return -int(k[vals].sum())


def deuring_counts(p: int, table: np.ndarray) -> np.ndarray:
    """(p-1)*H(r^2-4p) in the census layout, from a 12H table reaching 4p:
    the one-prime case of deuring_batches."""
    [(_, _, counts)] = deuring_batches([p], table)
    return counts


def singular_pair_count(p: int) -> int:
    """#{(a,b) mod p : 4a^3 + 27b^2 = 0}, by direct enumeration."""
    x = np.arange(p, dtype=np.int64)
    a4 = 4 * (x * x % p * x) % p
    b27 = 27 * (x * x) % p
    return int(((a4[:, None] + b27[None, :]) % p == 0).sum())


def pi_twin(a: int, b: int, x: int) -> int:
    """#{3 < p <= x of good reduction : p + 1 - a_p(E) is prime}."""
    disc = 4 * a**3 + 27 * b**2
    if disc == 0:
        raise DomainError("curve is singular over Q")
    if x < 5:
        raise DomainError("x must be >= 5")
    count = 0
    for p in np.flatnonzero(sieve(x))[2:]:
        p = int(p)
        if disc % p == 0:
            continue
        r = trace(CurveModP(p=p, a=a, b=b))
        if is_prime(p + 1 - r):
            count += 1
    return count


# ---------------------------------------------------------------------------
# classnumbers
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), full extension to all integer a, n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    res = 1
    if n < 0:
        n = -n
        if a < 0:
            res = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = (n & -n).bit_length() - 1
        n >>= e
        if e % 2 == 1 and a % 8 in (3, 5):
            res = -res
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return res if n == 1 else 0


def kronecker_table(n: int, length: int) -> np.ndarray:
    """Vector of the Kronecker symbols (a|n) for a = 0..length-1 (n >= 1), dtype int8."""
    if n < 1:
        raise DomainError("kronecker_table requires n >= 1")
    a = np.arange(length, dtype=np.int64)
    out = np.ones(length, dtype=np.int8)
    for p, e in factorize(n):
        if p == 2:
            # (a|2): 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
            m8 = a & 7
            col = np.zeros(length, dtype=np.int8)
            col[(m8 == 1) | (m8 == 7)] = 1
            col[(m8 == 3) | (m8 == 5)] = -1
        else:
            leg = np.full(p, -1, dtype=np.int8)
            leg[0] = 0
            sq = np.arange(1, p, dtype=np.int64)
            leg[(sq * sq) % p] = 1
            col = leg[a % p]
        if e % 2 == 1:
            out *= col
        else:
            out *= np.abs(col)
    return out


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def c_f_r_bruteforce(n: int, f: int, r: int) -> int:
    """Direct evaluation: sum of (a|n) over invertible a mod 4n with
    (r^2 - a f^2, 4 n f^2) = 4 and ((r-2)^2 - a f^2, 4 n f^2) = 4."""
    _check_cfr_args(f, r)
    if n < 1:
        raise DomainError("n must be >= 1")
    m = 4 * n
    mod = 4 * n * f * f
    a = np.arange(m, dtype=np.int64)
    invertible = np.gcd(a, m) == 1
    cond1 = np.gcd((r * r - a * f * f) % mod, mod) == 4
    cond2 = np.gcd(((r - 2) ** 2 - a * f * f) % mod, mod) == 4
    kron = kronecker_table(n, m).astype(np.int64)
    return int(kron[invertible & cond1 & cond2].sum())


# Odd-sieve entries per segment of prime_terms: about 6000 primes near 10^5.
_TERM_SEGMENT = 1 << 15


def prime_terms(limit: int, term, odd: bool = False) -> np.ndarray:
    """term(ell) over the primes ell <= limit (the odd ones if `odd`),
    ascending, as one float64 array.

    The primes come from _odd_flags, one flag byte per odd number, and
    `term` runs on one segment of them at a time as float64, so none of its
    temporaries spans every prime.  `term` must work element by element.
    """
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    flags = _odd_flags(0, limit)
    flags[0] = not odd  # the integer 1 stands in for 2
    out = np.empty(np.count_nonzero(flags))
    done = 0
    for lo in range(0, flags.size, _TERM_SEGMENT):
        ell = np.flatnonzero(flags[lo : lo + _TERM_SEGMENT]) + lo * 1.0
        ell *= 2.0
        ell += 1.0
        if lo == 0 and not odd:
            ell[0] = 2.0
        out[done : done + ell.size] = term(ell)
        done += ell.size
    return out


# The Euler products truncated at a limit L, as the package formed them
# before it took the primes past 50 from zeta: the terms over the primes <= L
# from prime_terms, and for the average constant and the C_r base a tail
# estimate past L.  2*C2 has no tail: the package's TWIN_CONSTANT is
# twin_constant_truncated(10^6).


def twin_constant_truncated(limit: int) -> float:
    """2*C2 = 2 prod_{odd ell <= limit} ell(ell-2)/(ell-1)^2."""
    terms = prime_terms(limit, lambda ell: np.log1p(-1.0 / (ell - 1.0) ** 2), odd=True)
    return 2.0 * math.exp(terms.sum())


# Gauss-Laguerre rule for the tail integrals; 30 nodes give ~1e-14 relative
# for every truncation limit 10^3 <= L <= 10^8 (tests/test_constants.py).
LAGUERRE_NODES = 30
_LAG_X, _LAG_W = np.polynomial.laguerre.laggauss(LAGUERRE_NODES)


def _log_tail(neg_log_factor, limit: int) -> float:
    """Estimated sum over primes > limit of -log(factor), via prime density.

    Integrates -log(factor(t))/log(t) dt over t > L.  Substituting t = e^v
    and v = log L + w gives e^{-log L} * integral_0^inf e^{-w} g(w) dw with
    g(w) = -log(factor(e^v)) e^{2v}/v, which is smooth and bounded because
    the omitted factors behave like 1 - O(1/t^2); a fixed Gauss-Laguerre
    rule integrates it.  `neg_log_factor` must accept a float64 array.
    """
    v = math.log(limit) + _LAG_X
    t = np.exp(v)
    g = neg_log_factor(t) * t * t / v
    return float(_LAG_W @ g) / limit


def _frak_c_neg_log_factor(t: np.ndarray) -> np.ndarray:
    # -log(1 - (t^2-t-1)/((t-1)^3 (t+1))), written in s = 1/t so that no
    # intermediate overflows (finite for every t <= 1e300)
    s = 1.0 / t
    g = s * s * (1 - s - s * s) / ((1 - s) ** 3 * (1 + s))
    return -np.log1p(-g)


@functools.lru_cache(maxsize=8)
def _frak_c_parts(limit: int) -> tuple[float, float]:
    """(form2, tail) for the average constant at truncation `limit`.

    form2 = prod_l (1 - (l^2-l-1)/((l-1)^3 (l+1))), raw (no tail).
    """
    terms = prime_terms(
        limit, lambda ell: np.log1p(-((ell * ell - ell - 1) / ((ell - 1) ** 3 * (ell + 1))))
    )
    return math.exp(np.sum(terms)), _log_tail(_frak_c_neg_log_factor, limit)


def average_constant_forms_truncated(limit: int) -> tuple[float, float]:
    """The two displayed product forms of the average constant, raw at L.

    form1 = (2/3) prod_{odd l} (l^4-2l^3-l^2+3l)/((l-1)^3 (l+1)); form2 is
    the product over every l of _frak_c_parts.
    """
    if limit < 10**3:
        raise DomainError("truncation limit must be >= 1000")

    def term(odd):
        num = odd**4 - 2 * odd**3 - odd**2 + 3 * odd
        den = (odd - 1) ** 3 * (odd + 1)
        return np.log(num) - np.log(den)

    form1 = (2.0 / 3.0) * math.exp(np.sum(prime_terms(limit, term, odd=True)))
    return form1, _frak_c_parts(limit)[0]


def average_constant_truncated(limit: int) -> float:
    """The average density constant, tail-completed at truncation `limit`."""
    if limit < 10**3:
        raise DomainError("truncation limit must be >= 1000")
    form2, tail = _frak_c_parts(limit)
    return form2 * math.exp(-tail)


def _c_r_base_neg_log_factor(t: np.ndarray) -> np.ndarray:
    # -log(t^2 (t^2-2t-2)/((t-1)^3 (t+1))) = -log(1 - (2t^2+2t-1)/((t-1)^3 (t+1))),
    # by log1p since the factor is 1 - O(1/t^2), and in s = 1/t so that no
    # intermediate overflows (finite for every t <= 1e300)
    s = 1.0 / t
    h = s * s * (2 + 2 * s - s * s) / ((1 - s) ** 3 * (1 + s))
    return -np.log1p(-h)


@functools.lru_cache(maxsize=8)
def c_r_base_truncated(limit: int) -> tuple[float, float]:
    """(base product, applied tail) of (4/3) prod_{odd l} l^2(l^2-2l-2)/((l-1)^3(l+1))."""
    log_sum = np.sum(
        prime_terms(
            limit,
            lambda ell: 2 * np.log(ell)
            + np.log(ell * ell - 2 * ell - 2)
            - 3 * np.log(ell - 1)
            - np.log(ell + 1),
            odd=True,
        )
    )
    tail = _log_tail(_c_r_base_neg_log_factor, limit)
    return (4.0 / 3.0) * math.exp(log_sum - tail), tail


# The same truncated Euler products from one full sieve, every term over the
# whole prime list at once.


def frak_c_form2_full_sieve(limit: int) -> float:
    """prod_l (1 - (l^2-l-1)/((l-1)^3 (l+1))) over every prime l <= limit, raw."""
    ell = np.flatnonzero(sieve(limit)).astype(np.float64)
    g = (ell * ell - ell - 1) / ((ell - 1) ** 3 * (ell + 1))
    return math.exp(np.sum(np.log1p(-g)))


def frak_c_form1_full_sieve(limit: int) -> float:
    """(2/3) prod_{odd l <= limit} (l^4-2l^3-l^2+3l)/((l-1)^3 (l+1)), raw."""
    odd = np.flatnonzero(sieve(limit))[1:].astype(np.float64)
    num = odd**4 - 2 * odd**3 - odd**2 + 3 * odd
    den = (odd - 1) ** 3 * (odd + 1)
    return (2.0 / 3.0) * math.exp(np.sum(np.log(num) - np.log(den)))


def c_r_base_full_sieve(limit: int) -> tuple[float, float]:
    """(base product, applied tail) of (4/3) prod_{odd l} l^2(l^2-2l-2)/((l-1)^3(l+1))."""
    ell = np.flatnonzero(sieve(limit))[1:].astype(np.float64)
    log_sum = np.sum(
        2 * np.log(ell)
        + np.log(ell * ell - 2 * ell - 2)
        - 3 * np.log(ell - 1)
        - np.log(ell + 1)
    )
    tail = _log_tail(_c_r_base_neg_log_factor, limit)
    return (4.0 / 3.0) * math.exp(log_sum - tail), tail


def C_r_oracle(r: int, U: int, V: int) -> float:
    """Truncated triple sum converging to C_r, error O(1/V^2 + 1/sqrt(U)).

    sum over odd f <= V, n <= U of (1/nf) sum_{a mod 4n} (a|n) S(r-1, nf^2, b)
    with b = (r^2 - a f^2)/4 where integral.  Kept independent of the closed
    form: the inner character sum is evaluated directly, never via c_f_r.
    """
    if U < 1 or V < 1:
        raise DomainError("U and V must be >= 1")
    fs = np.arange(1, V + 1, 2, dtype=np.int64)
    f2 = (fs * fs)[:, None]
    terms = np.zeros((fs.size, U))  # row f, column n - 1
    for n in range(1, U + 1):
        # f is odd, so f^2 = 1 mod 4 and 4 | r^2 - a f^2 exactly when a = r^2 mod 4
        a = np.arange(4 * n, dtype=np.int64)
        a = a[(np.gcd(a, 4 * n) == 1) & (a % 4 == r * r % 4)]
        if a.size == 0:  # even r
            continue
        q = n * f2
        x = r * r - a * f2
        b = (x // 4) % q
        ok = (np.gcd(b, q) == 1) & (np.gcd((b - (r - 1)) % q, q) == 1)
        kron_sums = np.where(ok, kronecker_table(n, 4 * n)[a].astype(np.int64), 0).sum(axis=1)
        for i in np.flatnonzero(kron_sums).tolist():
            f = int(fs[i])
            # S(r-1, q, b) is the same for every admissible b
            b0 = int(x[i][ok[i]][0] // 4)
            dens = singular_series_mod(r - 1, n * f * f, b0)
            terms[i, n - 1] = dens * int(kron_sums[i]) / (n * f)
    # f-major: the order of the sum over f, then n
    return float(np.cumsum(terms)[-1])


# ---------------------------------------------------------------------------
# twinseries
# ---------------------------------------------------------------------------


def _odd_prime_correction(r: int) -> float:
    # r q in singular_series_mod reaches past factorize's budget
    out = 1.0
    for p, _ in _oracle_factorize(abs(r)):
        if p != 2:
            out *= (p - 1.0) / (p - 2.0)
    return out


def singular_series(r: int) -> float:
    """S(r): 0 for odd r; 2*C2 * prod_{odd p | r} (p-1)/(p-2) for even r."""
    if r == 0:
        raise DomainError("singular series undefined at r = 0")
    if r % 2 != 0:
        return 0.0
    return TWIN_CONSTANT * _odd_prime_correction(r)


def singular_series_mod(r: int, q: int, a: int) -> float:
    """S(r,q,a) = S(rq)/phi(q) when 2 | r and (a,q) = (a-r,q) = 1, else 0.

    Computed by both defining routes (S(rq)/phi(q) and S(r)/rho(r,q)); they
    must agree to 1e-10 relative, and the first is returned.
    """
    if r == 0:
        raise DomainError("singular series undefined at r = 0")
    if q < 1:
        raise DomainError("q must be >= 1")
    if r % 2 != 0 or math.gcd(a, q) != 1 or math.gcd(a - r, q) != 1:
        return 0.0
    via_product = singular_series(r * q) / phi(q)
    via_rho = singular_series(r) / rho(r, q)
    if abs(via_product - via_rho) > 1e-10 * abs(via_product):
        raise AssertionError(
            f"singular series routes disagree at (r,q,a)=({r},{q},{a})"
        )
    return via_product


def sieved_window(X: int, Y: int, R: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Primes of (X, X+Y], plus flags, offset and logs for (max(X-R, 0), X+Y+R].

    Entry i of flags and logs describes the integer offset + i; logs holds
    log n at primes and 0 elsewhere.  The flags come from sieve_window, which
    the primes tests check against independent sieves.
    """
    lo = max(X - R, 0)
    flags = sieve_window(lo, X + Y + R - lo)
    idx = np.flatnonzero(flags)
    logs = np.zeros(len(flags), dtype=np.float64)
    logs[idx] = np.log((idx + lo + 1).astype(np.float64))
    p = idx[(idx >= X - lo) & (idx < X + Y - lo)] + lo + 1
    return p, flags, lo + 1, logs


def psi(X: int, Y: int, r: int, q: int, a: int) -> float:
    """Log-weighted count of prime pairs (p, p-r) with X < p <= X+Y, p = a mod q."""
    p, flags, off, logs = sieved_window(X, Y, abs(r))
    p = p[p % q == a % q]
    pp = p - r
    keep = (pp >= off) & flags[np.maximum(pp - off, 0)]
    return float(np.sum(logs[p[keep] - off] * logs[pp[keep] - off]))


def error_E(X: int, Y: int, r: int, q: int, a: int) -> float:
    """E = psi(X, Y, r, q, a) - S(r,q,a) * Y."""
    expected = singular_series_mod(r, q, a) * Y
    return psi(X, Y, r, q, a) - expected


def twin_constant_full_sieve(limit: int) -> float:
    """2*C2 = 2 prod_{odd ell <= limit} ell(ell-2)/(ell-1)^2, from one full sieve."""
    ell = np.flatnonzero(sieve(limit))[1:].astype(np.float64)
    return 2.0 * math.exp(np.log1p(-1.0 / (ell - 1.0) ** 2).sum())


def exponential_sum_F(s: int, r: int, q: int, a: int) -> int:
    """F(s;r;q,a) as the exponential double sum over units b, c mod s with
    gcd(q, s) | c - a, independent of the multiplicative route."""
    g = math.gcd(q, s)
    return _exponential_sum_F(s, r % s, g, a % g)


@functools.lru_cache(maxsize=None)
def _exponential_sum_F(s: int, r: int, g: int, a: int) -> int:
    """exponential_sum_F on canonical arguments: 0 <= r < s, g = gcd(q, s), 0 <= a < g."""
    b = np.array([t for t in range(s) if math.gcd(t, s) == 1], dtype=np.int64)
    c = b[(b - a) % g == 0]
    phase = np.exp(2j * np.pi * (np.outer(b, c) % s) / s)
    rb = np.exp(-2j * np.pi * ((r * b) % s) / s)
    val = complex((rb * phase.sum(axis=1)).sum())
    out = round(val.real)
    if abs(val.real - out) > 1e-6 or abs(val.imag) > 1e-6:
        raise AssertionError(f"non-integer exponential sum at {(s, r, g, a)}")
    return out
