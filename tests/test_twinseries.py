"""Singular series, local densities, and window-statistic tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koblitz import twinseries
from koblitz.constants import DEFAULT_TRUNCATION
from koblitz.errors import CapacityError, DomainError
from koblitz.primes import MAX_SIEVE_LIMIT, is_prime
from koblitz.twinseries import (
    MAX_BDH_CELLS,
    bdh_statistic,
    rho,
    singular_series_table,
)
from lemmas import F_mult
from oracles import (
    error_E,
    exponential_sum_F,
    psi,
    sieved_window,
    singular_series,
    singular_series_mod,
)

# Hardy-Littlewood twin prime constant C2, literature value
TWIN_PRIME_C2 = 0.6601618158468695739


class TestSingularSeries:
    def test_zero_at_odd(self):
        table = singular_series_table(9)
        assert table[1::2].tolist() == [0.0] * 5

    def test_power_of_two_invariance(self):
        table = singular_series_table(64)
        assert table[[4, 8, 16, 32, 64]].tolist() == [table[2]] * 5

    def test_odd_prime_factor_ratio(self):
        table = singular_series_table(10)
        assert table[6] / table[2] == pytest.approx(2.0, rel=1e-12)
        assert table[10] / table[2] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_table_matches_scalar_route(self):
        table = singular_series_table(2 * 10**4)
        for r in range(1, 2 * 10**4 + 1):
            assert table[r] == singular_series(r), r

    def test_table_small(self):
        for n in (1, 2, 5, 6, 7):
            table = singular_series_table(n)
            assert table[1:].tolist() == [singular_series(r) for r in range(1, n + 1)]

    def test_against_literature_constant(self):
        got = singular_series_table(2)[2]
        assert got == pytest.approx(2.0 * TWIN_PRIME_C2, abs=2e-6)
        assert got >= 2.0 * TWIN_PRIME_C2  # omitted factors are all < 1
        # tail bound of the product truncated at L
        L = DEFAULT_TRUNCATION
        assert abs(got - 2.0 * TWIN_PRIME_C2) <= 4.0 / (L * math.log(L))


class TestRho:
    def test_examples(self):
        assert rho(2, 3) == 1
        assert rho(3, 3) == 2
        assert rho(2, 15) == 3
        assert rho(5, 1) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            rho(2, 0)

    @given(
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=300, deadline=None)
    def test_enumeration_oracle(self, r, q):
        enum = sum(
            1
            for a in range(q)
            if math.gcd(a, q) == 1 and math.gcd(a - r, q) == 1
        )
        assert rho(r, q) == enum


class TestSingularSeriesMod:
    def test_examples(self):
        assert singular_series_mod(2, 3, 1) == pytest.approx(singular_series(2), rel=1e-12)
        assert singular_series_mod(2, 3, 2) == 0.0
        assert singular_series_mod(1, 7, 2) == 0.0  # odd r

    def test_non_coprime_class_is_zero(self):
        assert singular_series_mod(2, 6, 3) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            singular_series_mod(0, 3, 1)
        with pytest.raises(DomainError):
            singular_series_mod(2, 0, 1)


class TestF:
    def test_case_examples(self):
        # at prime s, F is the local factor: one case of the four-case table each
        assert F_mult(5, 2, 1, 1) == 1
        assert F_mult(3, 3, 1, 1) == -2
        assert F_mult(3, 1, 3, 1) == 2
        assert F_mult(3, 1, 3, 2) == -1
        assert F_mult(3, 1, 6, 3) == 0  # a not invertible mod q

    def test_mult_domain(self):
        with pytest.raises(DomainError):
            F_mult(12, 1, 1, 1)
        with pytest.raises(DomainError):
            F_mult(0, 1, 1, 1)

    def test_against_exponential_sum(self):
        for s in (1, 2, 3, 5, 6, 10, 15, 21, 30):
            for r in (-3, 0, 1, 2, 5):
                for q, a in ((1, 1), (2, 1), (3, 2), (6, 1), (6, 4), (4, 3)):
                    assert F_mult(s, r, q, a) == exponential_sum_F(s, r, q, a), (s, r, q, a)

    @given(
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13, 14, 15, 21, 22, 26, 33, 35]),
        st.integers(min_value=-15, max_value=15),
        st.integers(min_value=-15, max_value=15),
        st.sampled_from([1, 2, 3, 4, 5, 6, 9, 12]),
    )
    @settings(max_examples=200, deadline=None)
    def test_exponential_sum_property(self, s, r, a, q):
        assert F_mult(s, r, q, a) == exponential_sum_F(s, r, q, a)


class TestPsi:
    def test_window_validation(self):
        with pytest.raises(DomainError, match="window requires X >= 0, Y >= 1"):
            bdh_statistic(1, 1, -1, 10)
        with pytest.raises(DomainError, match="window requires X >= 0, Y >= 1"):
            bdh_statistic(1, 1, 0, 0)

    def test_hand_enumeration_r2(self):
        # twin pairs (p, p-2) with p <= 20: (5,3), (7,5), (13,11), (19,17)
        expected = sum(math.log(p) * math.log(p - 2) for p in (5, 7, 13, 19))
        got = psi(0, 20, 2, 1, 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_odd_r_catches_single_pair(self):
        # r = 1: only (3, 2)
        got = psi(0, 50, 1, 1, 0)
        assert got == pytest.approx(math.log(3) * math.log(2), rel=1e-12)

    def test_even_class_empty(self):
        assert psi(3, 100, 2, 2, 0) == 0.0

    def test_residue_class_split(self):
        total = psi(0, 200, 2, 1, 0)
        parts = sum(psi(0, 200, 2, 3, a) for a in range(3))
        assert parts == pytest.approx(total, rel=1e-12)

    def test_negative_r(self):
        # r = -2 pairs (p, p+2): p in {3, 5, 11, 17, 29} for p <= 30
        expected = sum(math.log(p) * math.log(p + 2) for p in (3, 5, 11, 17, 29))
        got = psi(0, 30, -2, 1, 0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_error_is_psi_minus_expected(self):
        e = error_E(100, 400, 2, 3, 1)
        expected = singular_series_mod(2, 3, 1) * 400
        assert e == pytest.approx(psi(100, 400, 2, 3, 1) - expected, rel=1e-12)


def _bdh_oracle(R, Q, X, Y):
    """bdh_statistic as one loop over (r, q, a) with the scalar S(r,q,a).

    Returns (S, per_q, rows) with the same float operations in the same
    order as the array passes, so the results must agree exactly.
    """
    p, flags, off, logs = sieved_window(X, Y, R)
    logp = logs[p - off]
    total = 0.0
    per_q = {q: 0.0 for q in range(1, Q + 1)}
    rows = []
    for r in (r for r in range(-R, R + 1) if r != 0):
        pp = p - r
        mask = (pp >= off) & flags[np.maximum(pp - off, 0)]
        w = logp[mask] * logs[pp[mask] - off]
        for q in range(1, Q + 1):
            psi_by_a = np.bincount(p[mask] % q, weights=w, minlength=q)
            for a in range(q):
                expected = singular_series_mod(r, q, a) * Y
                err = float(psi_by_a[a]) - expected
                total += err * err
                per_q[q] += err * err
                rows.append((r, q, a, float(psi_by_a[a]), expected, err))
    return total, per_q, rows


def _cells(res):
    """(r, q, a, psi, expected, error) per cell of res's grid, in (r, q, a) order."""
    n = res.r_values.size
    return list(
        zip(
            np.repeat(res.r_values, res.q_col.size).tolist(),
            np.tile(res.q_col, n).tolist(),
            np.tile(res.a_col, n).tolist(),
            res.psi.ravel().tolist(),
            res.expected.ravel().tolist(),
            (res.psi - res.expected).ravel().tolist(),
        )
    )


class TestBdhStatistic:
    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=400),
        st.data(),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_scalar_oracle(self, X, Y, data, Q):
        R = data.draw(st.integers(min_value=1, max_value=min(40, X + Y)), label="R")
        res = bdh_statistic(R, Q, X, Y)
        S, per_q, rows = _bdh_oracle(R, Q, X, Y)
        assert _cells(res) == rows
        assert res.S == S
        assert res.per_q == per_q
        assert res.normalized == S / (R * float(X + Y) ** 2)

    @pytest.mark.parametrize("X", [0, 1, 2, 3])
    @pytest.mark.parametrize("R", [1, 3, 9])
    def test_odd_shifts_near_two(self, X, R):
        # an odd shift pairs only p = 2, or p = r + 2 with p - r = 2
        res = bdh_statistic(R, 2, X, 50)
        S, per_q, rows = _bdh_oracle(R, 2, X, 50)
        assert _cells(res) == rows
        assert (res.S, res.per_q) == (S, per_q)

    def test_oracle_at_large_X(self):
        res = bdh_statistic(12, 4, 10**12, 2000)
        assert (res.S, res.per_q, _cells(res)) == _bdh_oracle(12, 4, 10**12, 2000)

    def test_no_floating_point_warnings(self):
        # odd shifts have no admissible class; their rho is never divided by
        with np.errstate(all="raise"):
            bdh_statistic(7, 6, 0, 200)

    def test_routes_cross_checked(self, monkeypatch):
        build = singular_series_table

        def skewed(n):
            table = build(n)
            table[6] *= 1 + 1e-8  # over the 1e-10 tolerance
            return table

        monkeypatch.setattr(twinseries, "singular_series_table", skewed)
        # the first even (r, q) that reads S(6) is (-2, 3); a = 2 is its
        # first admissible class
        with pytest.raises(AssertionError, match=r"\(r,q,a\)=\(-2,3,2\)"):
            bdh_statistic(2, 3, 0, 50)

    def test_capacity_checked_before_allocation(self):
        R, Q = 10**6, 10  # a 2R x 55 float64 grid would take 880 MB
        assert R * Q * (Q + 1) > MAX_BDH_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                bdh_statistic(R, Q, 0, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sieve_budget_checked_before_allocation(self):
        # the flags of (X-R, X+Y+R] would take Y + 2R bytes, 1 GB here
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="sieve budget"):
                bdh_statistic(1, 1, 0, MAX_SIEVE_LIMIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_capacity_boundary(self):
        # criterion 09's R = 1000, Q = 10 fits; Q = 50 does not
        assert 1000 * 10 * 11 <= MAX_BDH_CELLS < 1000 * 50 * 51
        with pytest.raises(CapacityError):
            bdh_statistic(1000, 50, 0, 1000)

    def test_hand_oracle_small(self):
        res = bdh_statistic(2, 1, 0, 10)
        direct = sum(error_E(0, 10, r, 1, 0) ** 2 for r in (-2, -1, 1, 2))
        assert res.S == pytest.approx(direct, rel=1e-12)
        assert res.normalized == pytest.approx(direct / (2 * 100.0), rel=1e-12)

    def test_per_q_marginals_sum_to_total(self):
        res = bdh_statistic(5, 3, 0, 500)
        assert sum(res.per_q.values()) == pytest.approx(res.S, rel=1e-12)

    def test_matches_error_E_per_row(self):
        X, Y = 50, 300
        res = bdh_statistic(4, 3, X, Y)
        for r, q, a, psi_v, exp_v, err in _cells(res):
            # one density per (r, q), reused for every admissible a
            assert exp_v == singular_series_mod(r, q, a) * Y
            assert err == pytest.approx(error_E(X, Y, r, q, a), abs=1e-9)
            assert psi_v == pytest.approx(psi(X, Y, r, q, a), abs=1e-9)

    @pytest.mark.parametrize(
        "X, Y, R",
        [(10**12, 3000, 6), (3, 60, 8)],  # far from 0; and X < R, reaching 0
    )
    def test_against_is_prime_enumeration(self, X, Y, R):
        res = bdh_statistic(R, 3, X, Y)
        primes = {n for n in range(X - R + 1, X + Y + R + 1) if is_prime(n)}
        for r, q, a, psi_v, _, _ in _cells(res):
            want = sum(
                math.log(p) * math.log(p - r)
                for p in range(X + 1, X + Y + 1)
                if p % q == a and p in primes and p - r in primes
            )
            assert psi_v == pytest.approx(want, rel=1e-12, abs=0.0), (r, q, a)
            assert psi(X, Y, r, q, a) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bdh_statistic(0, 1, 0, 50)
        with pytest.raises(DomainError):
            bdh_statistic(51, 1, 0, 50)  # R > X + Y
        with pytest.raises(DomainError):
            bdh_statistic(2, 0, 0, 50)
