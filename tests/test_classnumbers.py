"""Class-number tests: reduced-form counts against the analytic formula."""

import math

import numpy as np
import pytest

from koblitz.classnumbers import MAX_H_TABLE, H_bound_check, twelve_h_weighted_table
from koblitz.errors import CapacityError, DomainError
from oracles import form_class_number, kronecker, kronecker_H, unit_count


def _squarefree(n):
    return all(n % (p * p) for p in range(2, int(n**0.5) + 1))


def _is_fundamental(d):
    """d < 0 is a fundamental discriminant."""
    if d % 4 == 1:
        return _squarefree(-d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(-m)
    return False


def _analytic_h(d):
    """Dirichlet class number formula for fundamental d < 0:
    h = w/(2|d|) * |sum_{0<k<|d|} kronecker(d,k) * k|."""
    s = sum(kronecker(d, k) * k for k in range(1, -d))
    return unit_count(d) * abs(s) // (2 * (-d))


class TestFormClassNumber:
    def test_examples(self):
        assert form_class_number(-3) == 1
        assert form_class_number(-20) == 2
        assert form_class_number(-12) == 1  # (2,2,2) is imprimitive
        assert form_class_number(-23) == 3
        assert form_class_number(-163) == 1

    def test_domain(self):
        for d in (0, 5, -5, -6, -1):
            with pytest.raises(DomainError):
                form_class_number(d)

    def test_analytic_formula_fundamental_to_500(self):
        checked = 0
        for d in range(-3, -501, -1):
            if _is_fundamental(d):
                assert form_class_number(d) == _analytic_h(d), d
                checked += 1
        assert checked > 100


class TestUnitCount:
    def test_values(self):
        assert unit_count(-3) == 6
        assert unit_count(-4) == 4
        assert unit_count(-163) == 2
        assert unit_count(-12) == 2


class TestKroneckerH:
    def test_examples(self):
        assert kronecker_H(-3).twelve_h == 2
        assert kronecker_H(-16).twelve_h == 9
        assert kronecker_H(-12).twelve_h == 8
        assert kronecker_H(-4).twelve_h == 3  # h = 1, w = 4
        assert kronecker_H(-16).value == pytest.approx(0.75)

    def test_domain(self):
        with pytest.raises(DomainError):
            kronecker_H(-21)  # -21 = 3 mod 4, not a discriminant
        with pytest.raises(DomainError):
            kronecker_H(4)

    def test_direct_sum_definition(self):
        # recompute H(d) by explicit f-loop with rational arithmetic
        from fractions import Fraction

        for d in range(-3, -400, -1):
            if d % 4 not in (0, 1):
                continue
            total = Fraction(0)
            f = 1
            while f * f <= -d:
                if d % (f * f) == 0 and (d // (f * f)) % 4 in (0, 1):
                    d0 = d // (f * f)
                    total += Fraction(form_class_number(d0), unit_count(d0))
                f += 1
            assert kronecker_H(d).twelve_h == 12 * total


class TestVectorizedTables:
    def test_weighted_table_matches_scalar(self):
        table = twelve_h_weighted_table(2000)
        for k in range(3, 2001):
            if (-k) % 4 in (0, 1):
                assert int(table[k]) == kronecker_H(-k).twelve_h, k
            else:
                assert int(table[k]) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            twelve_h_weighted_table(2)

    def test_prefix_of_larger_table(self):
        # the cmax edge and the first 3f^2 and 4f^2 corrections at every small d
        full = twelve_h_weighted_table(2000)
        for d in range(3, 61):
            assert np.array_equal(twelve_h_weighted_table(d), full[: d + 1]), d

    def test_capacity(self):
        with pytest.raises(CapacityError):
            twelve_h_weighted_table(MAX_H_TABLE + 1)


def _r3_brute(n):
    """#{(x, y, z) in Z^3 : x^2 + y^2 + z^2 = n}."""
    m = math.isqrt(n)
    count = 0
    for x in range(-m, m + 1):
        for y in range(-m, m + 1):
            z2 = n - x * x - y * y
            if z2 >= 0 and math.isqrt(z2) ** 2 == z2:
                count += 1 if z2 == 0 else 2
    return count


def _r3_fft(nmax):
    """r_3(n) for 0 <= n <= nmax, from the coefficients of theta^3 by one FFT."""
    theta = np.zeros(nmax + 1)
    theta[0] = 1.0
    theta[np.arange(1, math.isqrt(nmax) + 1) ** 2] = 2.0
    size = 3 * nmax + 1  # theta^3 has degree 3 nmax: no wrap-around
    cube = np.fft.irfft(np.fft.rfft(theta, n=size) ** 3, n=size)[: nmax + 1]
    out = np.rint(cube)
    err = float(np.abs(cube - out).max())
    assert err <= 0.25, f"theta^3 coefficient lies {err:.3g} from an integer"
    return out.astype(np.int64)


class TestWholeTable:
    """Hurwitz: r_3(n) = 12(H(4n) - 2H(n)) with Hurwitz's H, twice the H here."""

    def test_r3_fft_matches_brute_force(self):
        r3 = _r3_fft(299)
        assert [int(v) for v in r3] == [_r3_brute(n) for n in range(300)]

    def test_three_squares_identity(self):
        nmax = 10**5
        table = twelve_h_weighted_table(4 * nmax)
        n = np.arange(1, nmax + 1)
        r3 = _r3_fft(nmax)[1:]
        bad = np.flatnonzero(r3 != 2 * (table[4 * n] - 2 * table[n]))
        assert bad.size == 0, f"r_3(n) != 2(T[4n] - 2T[n]) at n = {n[bad[:5]].tolist()}"

    def test_kronecker_hurwitz_identity(self):
        # sum over t in Z of F(4n - t^2) = 12(2 sigma(n) - lambda(n)), with
        # F = 2T (12H in Hurwitz's normalization), F(0) = -1 and
        # lambda(n) = sum over d | n of min(d, n/d); unlike the r_3 check,
        # this reaches every entry T[k] with k = 3 mod 4
        nmax = 10**5
        f = 2 * twelve_h_weighted_table(4 * nmax)
        f[0] = -1
        n = np.arange(nmax + 1)
        lhs = f[4 * n].copy()
        for t in range(1, math.isqrt(4 * nmax) + 1):
            m = n[(t * t + 3) // 4 :]  # 4m - t^2 >= 0
            lhs[m] += 2 * f[4 * m - t * t]
        # sigma and lambda from each divisor pair d <= n/d of n = d e
        sigma = np.zeros(nmax + 1, dtype=np.int64)
        lam = np.zeros(nmax + 1, dtype=np.int64)
        for d in range(1, math.isqrt(nmax) + 1):
            e = np.arange(d, nmax // d + 1)
            sigma[d * e] += d + e
            lam[d * e] += 2 * d
            sigma[d * d] -= d  # the pair d = e counts once
            lam[d * d] -= d
        bad = np.flatnonzero(lhs[1:] != 12 * (2 * sigma[1:] - lam[1:])) + 1
        assert bad.size == 0, f"Kronecker-Hurwitz relation fails at n = {bad[:5].tolist()}"


class TestHBound:
    def test_finite_and_slow_growth(self):
        r4, d4 = H_bound_check(twelve_h_weighted_table(10**4))
        r5, d5 = H_bound_check(twelve_h_weighted_table(10**5))
        assert 0 < r4 < 10.0
        assert r5 <= 2.0 * r4
        assert 3 <= d4 <= 10**4 and 3 <= d5 <= 10**5

    def test_domain(self):
        with pytest.raises(DomainError):
            H_bound_check(twelve_h_weighted_table(15))
