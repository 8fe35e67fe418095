"""Euler-product constant tests: GL2 factors, coefficient sums, C_r."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koblitz import constants
from koblitz.constants import (
    C_r,
    average_constant,
    average_constant_forms,
    gallagher_sum,
    gl2_count,
)
from koblitz.errors import CapacityError, DomainError
from koblitz.primes import MAX_FACTOR, sieve
from lemmas import (
    A_closed,
    B1_closed,
    B2_closed,
    B3_closed,
    B_AT_TWO,
    C1_closed,
    C2_closed,
    _oracle_factorize,
    a_series_term,
    b_series_term,
    c_f_r,
    c_series_term,
    local_sums,
)
import oracles
from oracles import (
    C_r_oracle,
    average_constant_forms_truncated,
    average_constant_truncated,
    c_f_r_bruteforce,
    c_r_base_full_sieve,
    c_r_base_truncated,
    frak_c_form1_full_sieve,
    frak_c_form2_full_sieve,
    prime_terms,
    twin_constant_full_sieve,
    twin_constant_truncated,
)


class TestGl2:
    def test_ell3(self):
        led = gl2_count(3)
        assert led.gl2_order == 48
        assert led.omega_prime_count == 21
        assert led.factor == Fraction(27, 32)
        assert led.factor == 1 - Fraction(5, 32)

    def test_identity_holds_up_to_13(self):
        for ell in (5, 7, 11, 13):
            led = gl2_count(ell)
            assert led.factor == 1 - Fraction(
                ell * ell - ell - 1, (ell - 1) ** 3 * (ell + 1)
            )

    def test_domain_and_capacity(self):
        with pytest.raises(DomainError):
            gl2_count(2)
        with pytest.raises(DomainError):
            gl2_count(9)
        with pytest.raises(CapacityError):
            gl2_count(53)


class TestAverageConstant:
    def test_two_forms_close(self):
        f1, f2 = average_constant_forms()
        assert abs(f1 - f2) < 1e-14

    def test_factor_at_two(self):
        # the all-primes form has factor 1 - 1/3 = 2/3 at ell = 2
        assert 1 - Fraction(4 - 2 - 1, 1 * 3) == Fraction(2, 3)

    def test_value_range(self):
        v = average_constant()
        assert 0.50 < v < 0.51

    def test_tail_completion_tightens_truncation(self):
        # the truncated oracle, raw and tail-completed, against the complete value
        exact = average_constant()
        raw4 = average_constant_forms_truncated(10**4)[1]
        raw5 = average_constant_forms_truncated(10**5)[1]
        done4 = average_constant_truncated(10**4)
        done5 = average_constant_truncated(10**5)
        assert abs(done4 - exact) < abs(raw4 - exact)
        assert abs(done5 - exact) < abs(raw5 - exact)
        assert abs(done5 - exact) < abs(done4 - exact)
        assert abs(average_constant_truncated(10**6) - exact) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            average_constant_truncated(100)


# Each truncated Euler product oracle, from prime_terms, against its
# full-sieve formula.
EULER_PRODUCTS = [
    pytest.param(twin_constant_truncated, twin_constant_full_sieve, id="twin"),
    pytest.param(
        lambda L: oracles._frak_c_parts(L)[0], frak_c_form2_full_sieve, id="frak_form2"
    ),
    pytest.param(
        lambda L: average_constant_forms_truncated(L)[0], frak_c_form1_full_sieve, id="frak_form1"
    ),
    pytest.param(c_r_base_truncated, c_r_base_full_sieve, id="c_r_base"),
]


class TestEulerProductsFromPrimes:
    @pytest.mark.parametrize("odd", [False, True])
    def test_prime_terms_visit_the_sieve_primes_in_order(self, odd):
        seg = 2 * oracles._TERM_SEGMENT  # integers per segment
        for limit in (2, 3, 4, 10, 2000, seg - 1, seg, seg + 1, 3 * seg + 7, 10**6):
            want = np.flatnonzero(sieve(limit))[int(odd) :].astype(np.float64)
            got = prime_terms(limit, lambda ell: ell, odd=odd)
            assert got.dtype == np.float64 and np.array_equal(got, want), limit
            # a term runs on segments, but its values are those on the whole list
            got = prime_terms(limit, lambda ell: np.log1p(-1.0 / ell**2), odd=odd)
            assert np.array_equal(got, np.log1p(-1.0 / want**2)), limit

    def test_prime_terms_limits(self):
        with pytest.raises(DomainError):
            prime_terms(1, np.log)
        with pytest.raises(CapacityError):
            prime_terms(1 << 31, np.log)

    @pytest.mark.parametrize("limit", [10**3, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("product, full_sieve", EULER_PRODUCTS)
    def test_bit_identical_to_full_sieve(self, product, full_sieve, limit):
        assert product(limit) == full_sieve(limit)

    def test_twin_constant_is_the_product_at_the_truncation(self):
        # the package's literal is this evaluation, to the last bit
        assert constants.TWIN_CONSTANT == twin_constant_full_sieve(constants.DEFAULT_TRUNCATION)

    @pytest.mark.parametrize(
        "build",
        [
            twin_constant_truncated,
            oracles._frak_c_parts.__wrapped__,
            c_r_base_truncated.__wrapped__,
            average_constant_forms_truncated,
        ],
        ids=["twin", "frak", "c_r_base", "forms"],
    )
    def test_peak_memory_at_one_million(self, build):
        # the odd-only flags, one float64 per prime and 512 KiB of segment
        # temporaries; one full sieve alone holds 10^6 + 1 flag bytes besides
        limit = 10**6
        bound = limit // 2 + 8 * 78498 + (1 << 19)
        build(10**3)  # imports and one-time state out of the measurement
        oracles._frak_c_parts.cache_clear()
        tracemalloc.start()
        try:
            build(limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            oracles._frak_c_parts.cache_clear()
        assert peak < bound


# Each local factor past the primes <= 50 as (numerator, denominator)
# polynomials in x = 1/ell; 2*C2 is here to check the method, whose tail the
# package does not yet store.
LOCAL_FACTORS = {
    "frak_c": ((1, -2, -1, 3), (1, -2, 0, 2, -1)),
    "c_r_base": ((1, -2, -2), (1, -2, 0, 2, -1)),
    "twin": ((1, -2), (1, -2, 1)),
}
HEAD = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _fraction_log_series(poly, terms):
    """Coefficients of log poly(x) up to x^terms, for poly[0] = 1, from
    log(1 + u) = sum_j (-1)^(j+1) u^j / j in exact rationals."""
    u = [Fraction(0)] + [Fraction(c) for c in poly[1:]]
    out = [Fraction(0)] * (terms + 1)
    power = [Fraction(1)]  # u^j, cut at degree terms
    for j in range(1, terms + 1):
        power = [
            sum(power[i] * u[m - i] for i in range(len(power)) if 0 <= m - i < len(u))
            for m in range(min(len(power) + len(u) - 1, terms + 1))
        ]
        for m, c in enumerate(power):
            out[m] += Fraction((-1) ** (j + 1), j) * c
    return out


def _mp_log_past_head(mp, num, den, terms=45):
    """sum_{ell > 50} log(num(1/ell)/den(1/ell)) from the exact series
    coefficients a_k of the log and mpmath's prime zeta function."""
    a = [n - d for n, d in zip(_fraction_log_series(num, terms), _fraction_log_series(den, terms))]
    return mp.fsum(
        mp.mpf(a[k].numerator) / a[k].denominator
        * (mp.primezeta(k) - mp.fsum(mp.mpf(ell) ** -k for ell in HEAD))
        for k in range(2, terms + 1)
    )


class TestProductsFromZeta:
    def test_tails_against_mpmath(self):
        # each stored tail against the same sum at 40 digits; the C_r base
        # tail sits 9.6e-16 from the float nearest it
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            frak_c = _mp_log_past_head(mpmath, *LOCAL_FACTORS["frak_c"])
            c_r_base = _mp_log_past_head(mpmath, *LOCAL_FACTORS["c_r_base"])
            assert abs(constants._FRAK_C_TAIL - frak_c) <= 1e-16
            assert abs(constants._C_R_BASE_TAIL - c_r_base) <= 1e-15

    def test_products_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        f1, f2 = average_constant_forms()
        base = constants._c_r_base()
        with mpmath.workdps(40):
            frak_tail = _mp_log_past_head(mpmath, *LOCAL_FACTORS["frak_c"])
            frak_c = mpmath.exp(
                mpmath.fsum(
                    mpmath.log(1 - mpmath.mpf(ell * ell - ell - 1) / ((ell - 1) ** 3 * (ell + 1)))
                    for ell in HEAD
                )
                + frak_tail
            )
            want_base = mpmath.mpf(4) / 3 * mpmath.exp(
                mpmath.fsum(
                    mpmath.log(mpmath.mpf(ell * ell * (ell * ell - 2 * ell - 2))
                               / ((ell - 1) ** 3 * (ell + 1)))
                    for ell in HEAD[1:]
                )
                + _mp_log_past_head(mpmath, *LOCAL_FACTORS["c_r_base"])
            )
            frak_c, want_base = float(frak_c), float(want_base)
        assert average_constant() == f2
        assert f1 == pytest.approx(frak_c, rel=1e-13, abs=0)
        assert f2 == pytest.approx(frak_c, rel=1e-13, abs=0)
        assert base == pytest.approx(want_base, rel=1e-13, abs=0)

    def test_method_gives_the_twin_constant(self):
        # 2*C2 stays truncated in the package; a float head and the rounded
        # tail from the same sum would make it exact
        mpmath = pytest.importorskip("mpmath")
        head = sum(math.log1p(-1.0 / (ell - 1) ** 2) for ell in HEAD[1:])
        with mpmath.workdps(40):
            tail = float(_mp_log_past_head(mpmath, *LOCAL_FACTORS["twin"]))
            want = float(2 * mpmath.twinprime)
        assert 2.0 * math.exp(head + tail) == pytest.approx(want, rel=1e-15, abs=0)
        assert constants.TWIN_CONSTANT == pytest.approx(want, rel=1e-7)


def _mp_frak_c_nlf(mp, t):
    return -mp.log1p(-(t * t - t - 1) / ((t - 1) ** 3 * (t + 1)))


def _mp_c_r_nlf(mp, t):
    # the factor is 1 - (2t^2+2t-1)/((t-1)^3 (t+1)); log1p keeps large t exact
    return -mp.log1p(-(2 * t * t + 2 * t - 1) / ((t - 1) ** 3 * (t + 1)))


class TestLogTail:
    FACTORS = [
        (oracles._frak_c_neg_log_factor, _mp_frak_c_nlf),
        (oracles._c_r_base_neg_log_factor, _mp_c_r_nlf),
    ]

    @pytest.mark.parametrize("limit", [10**3, 10**5, 10**6, 10**8])
    @pytest.mark.parametrize("nlf, mp_nlf", FACTORS)
    def test_against_mpmath(self, nlf, mp_nlf, limit):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(35):
            L = mpmath.mpf(limit)
            want = mpmath.quad(
                lambda t: mp_nlf(mpmath, t) / mpmath.log(t),
                [L, 2 * L, 10 * L, 100 * L, 10**4 * L, mpmath.inf],
            )
            want = float(want)
        assert oracles._log_tail(nlf, limit) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("nlf, mp_nlf", FACTORS)
    def test_factor_matches_mpmath(self, nlf, mp_nlf):
        mpmath = pytest.importorskip("mpmath")
        t = np.array([3.0, 1e3, 1e6, 1e12])
        got = nlf(t)
        with mpmath.workdps(35):
            want = [float(mp_nlf(mpmath, mpmath.mpf(x))) for x in t]
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("nlf", [nlf for nlf, _ in FACTORS])
    def test_factor_finite_far_out(self, nlf):
        # the largest Laguerre node at L = 10^8 is the farthest point the
        # tail evaluates; no intermediate may overflow even far beyond it
        largest = 1e8 * math.exp(oracles._LAG_X[-1])
        t = np.array([largest, 1e200, 1e300])
        values = nlf(t)
        assert np.all(np.isfinite(values)) and np.all(values >= 0)
        assert values[0] > 0


class TestCfr:
    def test_examples(self):
        assert c_f_r(5, 1, 3) == -2
        assert c_f_r(2, 1, 3) == -1
        assert c_f_r(9, 3, 7) == 6

    def test_coprimality_zero(self):
        # gcd(r-2, f) = 3 forces 0, on both routes
        assert c_f_r(9, 3, 5) == 0
        assert c_f_r_bruteforce(9, 3, 5) == 0
        # gcd(r, f) = 3 likewise
        assert c_f_r(4, 3, 3) == 0
        assert c_f_r_bruteforce(4, 3, 3) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            c_f_r(5, 2, 3)  # even f
        with pytest.raises(DomainError):
            c_f_r(5, 1, 4)  # even r
        with pytest.raises(DomainError):
            c_f_r(5, 1, 1)  # r = 1 excluded
        with pytest.raises(DomainError):
            c_f_r(0, 1, 3)

    def test_multiplicative_for_coprime_parts(self):
        for f, r in ((1, 3), (3, 7), (5, -3)):
            for n1 in (2, 3, 4, 5, 9):
                for n2 in (5, 7, 11, 13):
                    if math.gcd(n1, n2) != 1 or n1 * n2 > 200:
                        continue
                    assert c_f_r(n1 * n2, f, r) == c_f_r(n1, f, r) * c_f_r(n2, f, r)

    def test_brute_force_spot_grid(self):
        for f in (1, 3):
            for r in (-3, 3, 5, 9):
                for n in range(1, 60):
                    assert c_f_r(n, f, r) == c_f_r_bruteforce(n, f, r), (n, f, r)


class TestLocalSums:
    def test_closed_form_examples(self):
        assert A_closed(3) == Fraction(13, 12)
        assert B_AT_TWO == Fraction(2, 3)
        assert B3_closed(5) == Fraction(70, 72)

    def test_series_vs_closed(self):
        for ell in (3, 5, 7, 13, 47):
            # one r per divisibility branch; no generic r exists at ell = 3
            for r in (2 * ell + 1, ell, 3 if ell > 3 else 5):
                if r % 2 == 0 or r == 1:
                    continue
                ls = local_sums(ell, r)
                a_num = sum(a_series_term(ell, k) for k in range(80))
                b_num = sum(b_series_term(ell, k, r) for k in range(80))
                assert abs(float(a_num - ls.a_sum)) < 1e-12
                assert abs(float(b_num - ls.b_sum)) < 1e-12
                if ls.c_sum is not None:
                    c_num = sum(c_series_term(ell, k, r) for k in range(80))
                    assert abs(float(c_num - ls.c_sum)) < 1e-12

    def test_branch_selection(self):
        # ell | r - 1
        assert local_sums(3, 7).b_sum == B2_closed(3)
        assert local_sums(3, 7).c_sum == C2_closed(3)
        # ell | r(r - 2)
        assert local_sums(3, 3).b_sum == B3_closed(3)
        assert local_sums(3, 3).c_sum is None
        # generic
        assert local_sums(7, 3).b_sum == B1_closed(7)
        assert local_sums(7, 3).c_sum == C1_closed(7)

    def test_b_at_two_series(self):
        b2 = sum(b_series_term(2, k, 5) for k in range(80))
        assert abs(float(b2 - B_AT_TWO)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            local_sums(2, 3)
        with pytest.raises(DomainError):
            local_sums(5, 1)
        with pytest.raises(DomainError):
            c_series_term(3, 1, 3)  # ell divides r(r-2)


class TestCr:
    def test_symmetry_r_and_two_minus_r(self):
        # the divisor data of r-1 and r(r-2) is invariant under r -> 2-r
        assert C_r(3) == pytest.approx(C_r(-1), rel=1e-14)
        assert C_r(5) == pytest.approx(C_r(-3), rel=1e-14)

    def test_base_factor_at_three(self):
        assert Fraction(9 * (9 - 6 - 2), 8 * 4) == Fraction(9, 32)

    def test_known_value(self):
        # regression anchor; C_3 = (8/3) * base product, ell=3 correction 2
        assert C_r(3) == pytest.approx(0.55140118, abs=1e-7)
        assert C_r(3) == pytest.approx(2 * c_r_base_truncated(10**6)[0], rel=1e-10)

    def test_positive_and_finite(self):
        for r in (-9, -5, 3, 7, 15, 99):
            v = C_r(r)
            assert 0.0 < v < 20.0

    def test_domain(self):
        with pytest.raises(DomainError):
            C_r(4)
        with pytest.raises(DomainError):
            C_r(1)

    # r = 2k + 1 runs over the odd r != 1 with |r|, |r - 2| <= MAX_FACTOR
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1 - MAX_FACTOR // 2, MAX_FACTOR // 2 - 1).filter(bool).map(lambda k: 2 * k + 1)
    )
    @example(3)
    @example(-1)
    @example(MAX_FACTOR - 1)
    @example(-MAX_FACTOR + 3)
    def test_corrections_exact(self, r):
        # the base times the exact product of its corrections: one per odd
        # prime dividing r - 1, one per prime dividing r(r - 2)
        fix = Fraction(1)
        for p, _ in _oracle_factorize(abs(r - 1)):
            if p > 2:
                fix *= 1 + Fraction(p + 1, p * p - 2 * p - 2)
        for p in {p for n in (r, r - 2) for p, _ in _oracle_factorize(abs(n))}:
            fix *= 1 + Fraction(1, p * p - 2 * p - 2)
        assert C_r(r) == pytest.approx(constants._c_r_base() * float(fix), rel=1e-14, abs=0)


class TestCrOracle:
    def test_even_r_sums_to_zero(self):
        assert C_r_oracle(2, 50, 5) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            C_r_oracle(3, 0, 5)

    def test_rough_agreement(self):
        # loose sanity band; the convergence trend is an acceptance criterion
        got = C_r_oracle(3, 400, 15)
        assert abs(got - C_r(3)) < 0.05

    def test_pinned_bits(self):
        # exact bits: a reordered sum over (f, n) shows here, not in the convergence checks
        assert C_r_oracle(3, 250, 20) == 0.5490440765103586
        assert C_r_oracle(5, 250, 20) == C_r_oracle(-3, 250, 20) == 0.5894391604169019


class TestGallagher:
    def test_combined_euler_identity(self):
        for ell in range(3, 101, 2):
            lhs = (
                Fraction(ell * ell * (ell * ell - 2 * ell - 2), (ell - 1) ** 3 * (ell + 1))
                * Fraction(ell**3 - 2 * ell**2 - ell + 3, ell * (ell * ell - 2 * ell - 2))
            )
            rhs = Fraction(
                ell**4 - 2 * ell**3 - ell**2 + 3 * ell,
                ell * (ell - 1) ** 3 * (ell + 1),
            ) * ell
            assert lhs == rhs

    def test_domain(self):
        with pytest.raises(DomainError):
            gallagher_sum(99)

    def test_small_R_structure(self):
        g = gallagher_sum(100)
        direct_pos = sum(C_r(r) for r in range(3, 101, 2))
        frak_c = average_constant()
        assert g.ratio == pytest.approx(direct_pos / (frak_c * 100), rel=1e-12)
        assert g.ratio_two_sided > g.ratio
