"""End-to-end acceptance checks, one test per numbered criterion.

Each test pins the agreed tolerance and, where the target is an asymptotic
statement, the agreed desk-scale substitute (exact small-scale equality plus
a monotone trend with generous absolute windows).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from koblitz import constants, curves, harness, twinseries
from koblitz.classnumbers import twelve_h_weighted_table
from koblitz.primes import factorize, sieve
from lemmas import (
    F_mult,
    a_series_term,
    b_series_term,
    c_f_r,
    c_series_term,
    characters,
    gl2_count,
    local_sums,
    moebius,
    rho_chi,
)
from oracles import (
    C_r_oracle,
    average_constant_truncated,
    c_f_r_bruteforce,
    exponential_sum_F,
    singular_series,
)


def test_criterion_01_deuring_exactness():
    """Census equals (p-1)H(r^2-4p) exactly for 5 <= p <= 499, in < 60 s."""
    t0 = time.monotonic()
    supersingular_deviations = []
    sweep = curves.deuring_sweep(499, twelve_h_weighted_table(4 * 499))
    assert [p for p, _ in sweep] == [int(q) for q in np.flatnonzero(sieve(499)) if q >= 5]
    for p, r in sweep:
        assert not r.any(), f"ordinary mismatch at p={p}: r in {r.tolist()}"
        if 0 in r:
            supersingular_deviations.append(p)
    # the r = 0 rows are evaluated and reported; empirically they also match
    assert supersingular_deviations == []
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_gl2_local_factors():
    """Closed-form GL2 counts equal the brute-force ones and give the closed
    rational factor, in < 5 s."""
    t0 = time.monotonic()
    for ell in (3, 5, 7, 11, 13):
        led = gl2_count(ell)  # raises if the exact identity fails
        omega, gl2 = constants.gl2_counts(ell)
        assert (omega, gl2) == (led.omega_prime_count, led.gl2_order)
        lhs = (1 - Fraction(omega, gl2)) / (1 - Fraction(1, ell))
        factor = 1 - Fraction(ell * ell - ell - 1, (ell - 1) ** 3 * (ell + 1))
        assert lhs == led.factor == factor
    assert constants.gl2_counts(3)[0] == 21
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_constant_consistency():
    """Two product forms within 1e-14; the products truncated at L = 1e5 and
    1e6, tail-completed, within 1e-7 of the value and closing in on it."""
    f1, f2 = constants.average_constant_forms()
    assert abs(f1 - f2) <= 1e-14
    v5 = average_constant_truncated(10**5)
    v6 = average_constant_truncated(10**6)
    assert abs(v6 - f2) < abs(v5 - f2) < 1e-7


def test_criterion_04_character_sum_lemmas():
    """c_f^r brute = closed on the grid; local sums to 1e-12; F exact."""
    for f in (1, 3, 5, 7, 9):
        for r in range(-9, 10, 2):
            if r == 1:
                continue
            for n in range(1, 201):
                assert c_f_r(n, f, r) == c_f_r_bruteforce(n, f, r), (n, f, r)
    for ell in (int(p) for p in np.flatnonzero(sieve(50)) if p >= 3):
        for r in (2 * ell + 1, ell, 3 if ell > 3 else 5):
            if r % 2 == 0 or r == 1:
                continue
            ls = local_sums(ell, r)
            a_num = sum(a_series_term(ell, k) for k in range(61))
            b_num = sum(b_series_term(ell, k, r) for k in range(61))
            assert abs(float(a_num - ls.a_sum)) <= 1e-12
            assert abs(float(b_num - ls.b_sum)) <= 1e-12
            if ls.c_sum is not None:
                c_num = sum(c_series_term(ell, k, r) for k in range(61))
                assert abs(float(c_num - ls.c_sum)) <= 1e-12
    for s in range(1, 101):
        if any(e > 1 for _, e in factorize(s)):
            continue
        for r in range(-10, 11):
            for a in range(-10, 11):
                for q in (1, 2, 3, 4, 6, 12):
                    assert F_mult(s, r, q, a) == exponential_sum_F(
                        s, r, q, a
                    ), (s, r, q, a)


def test_criterion_05_singular_series_identities():
    """Route equality 1e-10; rho exact; primitive-character identity 1e-8."""
    from koblitz.primes import phi

    for r in range(2, 101, 2):
        for q in range(1, 101):
            for a in range(q if q > 1 else 1):
                if math.gcd(a, q) != 1 or math.gcd(a - r, q) != 1:
                    continue
                via_product = singular_series(r * q) / phi(q)
                via_rho = singular_series(r) / twinseries.rho(r, q)
                assert abs(via_product - via_rho) <= 1e-10 * via_product, (r, q, a)
    import numpy as np

    for q in range(1, 501):
        units = np.array([math.gcd(a, q) == 1 for a in range(q)])
        for r in range(-50, 51):
            enum = int(np.sum(units & units[(np.arange(q) - r) % q]))
            assert enum == twinseries.rho(r, q), (r, q)
    for f in range(1, 201):
        table = characters(f)
        mu = moebius(f)
        for r in range(-20, 21):
            got = rho_chi(r, table)
            for e, c, chi, g in zip(table.exponents, table.conductor, table.values, got):
                if c == f:
                    assert abs(g - mu * chi[r % f]) <= 1e-8, (f, r, e)


def test_criterion_06_gallagher_average():
    """One-sided sum of C_r within 2% of its average law at R=1e4, improving
    from R=1e3; the two-sided sum runs at twice the one-sided level.  < 30 s."""
    t0 = time.monotonic()
    g3 = constants.gallagher_sum(10**3)
    g4 = constants.gallagher_sum(10**4)
    assert abs(g4.ratio - 1.0) <= 0.02, g4
    assert abs(g4.ratio - 1.0) < abs(g3.ratio - 1.0)
    # summing over both signs of r doubles the average (documented reading)
    assert abs(g4.ratio_two_sided - 2.0) <= 0.04
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_cr_oracle_convergence():
    """|oracle - C_r| decreases as U doubles (1.5x noise allowance), V=20."""
    for r in (3, 5, -3):
        target = constants.C_r(r)
        errors = [abs(C_r_oracle(r, U, 20) - target) for U in (250, 500, 1000)]
        assert errors[1] <= 1.5 * errors[0], (r, errors)
        assert errors[2] <= 1.5 * errors[1], (r, errors)


def test_criterion_08_theorem2_desk_scale():
    """Class-number route = census route exactly at pmax=3000; integral-term
    ratio inside [0.85, 1.2] at pmax=1e4 and closer to 1 than at 1e3.  The
    raw x^3/(3 log^2 x) asymptote is out of reach at desk scale and is only
    reported, not asserted.  < 10 min."""
    t0 = time.monotonic()
    exact = harness.run_theorem2(3000)
    assert exact.summary["routes_match"], exact.summary
    r3 = harness.run_theorem2(10**3)
    r4 = harness.run_theorem2(10**4)
    assert 0.85 <= r4.summary["ratio_to_integral"] <= 1.2, r4.summary
    assert abs(r4.summary["ratio_to_integral"] - 1.0) < abs(
        r3.summary["ratio_to_integral"] - 1.0
    )
    assert time.monotonic() - t0 < 600.0


def test_criterion_09_theorem3_desk_scale():
    """Doubling the window does not increase the normalized statistic when
    the budget x tracks the window end (x = X + Y, reaching x = 2e5), and the
    single-class statistic decreases as Y grows."""
    norm = {}
    for y in (10**5, 2 * 10**5):
        rep, _ = harness.run_bdh(10**3, 10, 0, y)
        norm[y] = rep.summary["normalized"]
    assert norm[2 * 10**5] <= norm[10**5], norm
    single = []
    for y in (10**5, 2 * 10**5, 4 * 10**5):
        rep, _ = harness.run_bdh(10**3, 1, 0, y)
        single.append(rep.summary["single_class_statistic"])
    assert single[1] < single[0] and single[2] < single[1], single


def test_criterion_10_verify_all_deterministic():
    """`verify all` is byte-identical across two runs and fully green."""
    first = harness.run_verify("all")
    second = harness.run_verify("all")
    assert first.passed, first.to_json()
    assert first.to_json() == second.to_json()
