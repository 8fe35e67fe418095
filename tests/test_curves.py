"""Curve census tests: brute-force point counts, Hasse bound, persistence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koblitz import curves
from koblitz.curves import (
    MAX_CENSUS_PRIME,
    MAX_TRACE_MATRIX_PRIME,
    CensusRecord,
    CurveModP,
    box_count,
    box_trace_histogram,
    census,
    deuring_check,
    pi_star,
    pi_twin,
    singular_pair_count,
    trace,
    trace_matrix,
    write_census_file,
)
from koblitz.errors import CapacityError, DomainError
from koblitz.primes import is_prime, sieve

SMALL_PRIMES = [int(q) for q in sieve(300).primes if q >= 5]


def _oracle_point_count(p, a, b):
    """Projective points by direct enumeration: affine solutions + infinity."""
    count = 1
    squares = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    for x in range(p):
        v = (x * x * x + a * x + b) % p
        count += squares.get(v, 0)
    return count


def _oracle_trace(p, a, b):
    return p + 1 - _oracle_point_count(p, a, b)


class TestCurveModP:
    def test_validation(self):
        with pytest.raises(DomainError):
            CurveModP(p=4, a=1, b=1)
        with pytest.raises(DomainError):
            CurveModP(p=3, a=1, b=1)
        with pytest.raises(DomainError):
            CurveModP(p=5, a=0, b=0)  # singular
        c = CurveModP(p=5, a=-1, b=7)
        assert (c.a, c.b) == (4, 2)


class TestTrace:
    def test_examples(self):
        assert trace(CurveModP(p=5, a=-1, b=0)) == -2  # 8 points
        assert trace(CurveModP(p=5, a=1, b=1)) == -3  # 9 points

    def test_against_point_count_oracle(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            for a in range(p):
                for b in range(p):
                    if (4 * a**3 + 27 * b**2) % p == 0:
                        continue
                    got = trace(CurveModP(p=p, a=a, b=b))
                    assert got == _oracle_trace(p, a, b), (p, a, b)

    def test_matrix_matches_scalar(self):
        for p in (5, 13, 31):
            t, ns = trace_matrix(p)
            for a in range(p):
                for b in range(p):
                    if ns[a, b]:
                        assert int(t[a, b]) == trace(CurveModP(p=p, a=a, b=b))

    def test_hasse_bound_all_p_to_2000(self):
        for p in (int(q) for q in sieve(2000).primes if q > 3):
            t, ns = trace_matrix(p)
            assert int(np.abs(t[ns]).max()) <= math.isqrt(4 * p), p

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_matrix_matches_point_count_oracle(self, p, a, b):
        a, b = a % p, b % p
        t, ns = trace_matrix(p)
        assert bool(ns[a, b]) == ((4 * a**3 + 27 * b**2) % p != 0)
        if ns[a, b]:
            assert int(t[a, b]) == _oracle_trace(p, a, b)
        assert sum(rec.count for rec in census(p)) == p * p - p

    def test_capacity_checked_before_allocation(self):
        p = 5003  # the first prime above the budget; its p x p grid is 200 MB
        assert is_prime(p) and p > MAX_TRACE_MATRIX_PRIME
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                trace_matrix(p)
            with pytest.raises(CapacityError):
                box_trace_histogram(p, p, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_inexact_correlation_raises(self):
        chi = np.array([0, 1, -1, -1, 1])
        w = np.array([0.5, 0, 0, 0, 0])
        with pytest.raises(AssertionError):
            curves._correlate_chi(w, chi)


class TestCensus:
    def test_p5(self):
        recs = census(5)
        assert sum(rec.count for rec in recs) == 20
        by_r = {rec.r: rec.count for rec in recs}
        assert by_r[0] == 4  # the four curves y^2 = x^3 + b

    def test_p7_r5(self):
        by_r = {rec.r: rec.count for rec in census(7)}
        assert by_r[5] == 1

    def test_total_with_independent_singular_count(self):
        for p in (int(q) for q in sieve(100).primes if q > 3):
            total = sum(rec.count for rec in census(p))
            assert total == p * p - singular_pair_count(p)
            assert singular_pair_count(p) == p

    def test_records_sorted_and_positive(self):
        recs = census(31)
        rs = [rec.r for rec in recs]
        assert rs == sorted(rs)
        assert all(rec.count > 0 for rec in recs)

    def test_capacity_checked_before_allocation(self):
        p = 100003  # the first prime above the budget; its tables take 8 MB
        assert is_prime(p) and p > MAX_CENSUS_PRIME
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                census(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDeuring:
    def test_p5_all_match(self):
        assert deuring_check(5).all_match

    def test_p7_r5_row(self):
        rep = deuring_check(7)
        assert rep.ordinary_all_match
        assert rep.ordinary_mismatches == ()

    @pytest.mark.parametrize("p", [10007, 20011])
    def test_large_primes_all_match(self, p):
        assert deuring_check(p).all_match

    def test_p11_supersingular(self):
        rep = deuring_check(11)
        assert rep.supersingular is not None
        assert rep.supersingular.r == 0
        assert rep.supersingular.matches
        assert rep.supersingular.census_count == 20


class TestPiStar:
    def test_p5(self):
        assert pi_star(5) == 7

    def test_bounded_by_census(self):
        for p in (7, 11, 13, 37):
            assert 0 <= pi_star(p) <= p * p - p

    def test_against_direct_enumeration(self):
        for p in (7, 11, 13):
            direct = 0
            for a in range(p):
                for b in range(p):
                    if (4 * a**3 + 27 * b**2) % p == 0:
                        continue
                    if is_prime(_oracle_point_count(p, a, b)):
                        direct += 1
            assert pi_star(p) == direct


class TestPiTwin:
    def test_singular_domain_error(self):
        with pytest.raises(DomainError):
            pi_twin(0, 0, 100)
        with pytest.raises(DomainError):
            pi_twin(-3, 2, 100)  # (a,b) = (-3t^2, 2t^3) at t=1

    def test_against_direct_enumeration(self):
        a, b = -1, 0
        direct = 0
        for p in (int(q) for q in sieve(50).primes if q > 3):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            if is_prime(_oracle_point_count(p, a % p, b % p)):
                direct += 1
        assert pi_twin(-1, 0, 50) == direct

    def test_monotone_in_x(self):
        vals = [pi_twin(1, 1, x) for x in (10, 50, 100, 300)]
        assert vals == sorted(vals)

    def test_x_domain(self):
        with pytest.raises(DomainError):
            pi_twin(1, 1, 4)


class TestBoxCounts:
    def _oracle_box(self, p, A, B, r):
        count = 0
        for a in range(-A, A + 1):
            for b in range(-B, B + 1):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                if _oracle_trace(p, a % p, b % p) == r:
                    count += 1
        return count

    def test_exact_enumeration(self):
        for p in (5, 7):
            off = math.isqrt(4 * p)
            for A, B in ((2, 2), (1, 3), (5, 5), (7, 4)):
                for r in range(-off, off + 1):
                    assert box_count(p, A, B, r) == self._oracle_box(p, A, B, r), (
                        p,
                        A,
                        B,
                        r,
                    )

    def test_hasse_cutoff(self):
        assert box_count(5, 3, 3, 5) == 0
        assert box_count(5, 3, 3, -5) == 0

    def test_histogram_total(self):
        p, A, B = 11, 6, 9
        hist = box_trace_histogram(p, A, B)
        total = int(hist.sum())
        brute = sum(
            1
            for a in range(-A, A + 1)
            for b in range(-B, B + 1)
            if (4 * a**3 + 27 * b**2) % p != 0
        )
        assert total == brute

    def test_domain(self):
        with pytest.raises(DomainError):
            box_count(4, 2, 2, 0)
        with pytest.raises(DomainError):
            box_count(5, 0, 2, 0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        recs = [rec for p in (5, 7, 11) for rec in census(p)]
        path = str(tmp_path / "census.csv")
        assert write_census_file(path, recs) == sum(p * p - p for p in (5, 7, 11))
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# census records: p,r,count"
        back = [CensusRecord(*map(int, line.split(","))) for line in lines[1:]]
        assert back == sorted(recs, key=lambda rec: (rec.p, rec.r))

    def test_failed_write_leaves_no_file(self, tmp_path):
        def records():
            yield from census(5)
            raise DomainError("census failed midway")

        with pytest.raises(DomainError):
            write_census_file(str(tmp_path / "census.csv"), records())
        assert list(tmp_path.iterdir()) == []
