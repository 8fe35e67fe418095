"""Curve census tests: brute-force point counts, Hasse bound, persistence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koblitz import curves
from koblitz.classnumbers import twelve_h_weighted_table
from koblitz.cli import write_census_file
from koblitz.curves import (
    MAX_BOX_PAIRS,
    MAX_CENSUS_PRIME,
    box_trace_histogram,
    census,
    censuses,
    deuring_sweep,
    pi_star,
    trace_grid,
)
from koblitz.errors import CapacityError, DomainError
from koblitz.primes import _least_primitive_root, is_prime, sieve
from oracles import (
    CurveModP,
    deuring_counts,
    kronecker_H,
    kronecker_table,
    pi_twin,
    singular_pair_count,
    trace,
)

SMALL_PRIMES = [int(q) for q in np.flatnonzero(sieve(300)) if q >= 5]
# every 2^a 3^b 5^c up to 2^21, enough for the least one >= k at k <= 2^20
SMOOTH = sorted(
    n
    for n in (2**a * 3**b * 5**c for a in range(22) for b in range(14) for c in range(10))
    if n <= 2**21
)


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


def _oracle_trace_grid(p):
    """(T, nonsingular) for every pair (a, b) mod p, T from direct point counts."""
    x = np.arange(p, dtype=np.int64)
    squares = np.bincount(x * x % p, minlength=p)  # #{y : y^2 = v}
    t = np.empty((p, p), dtype=np.int64)
    for a in range(p):
        f = (x * x * x + a * x) % p
        t[a] = p - squares[(f[None, :] + x[:, None]) % p].sum(axis=1)
    nonsingular = (4 * x[:, None] ** 3 + 27 * x[None, :] ** 2) % p != 0
    return t, nonsingular


def _doubled(chi):
    """[chi, chi], zero-padded to the transform length of its prime."""
    d = np.zeros(curves._length(len(chi)), dtype=np.int64)
    d[: 2 * len(chi)] = np.tile(chi, 2)
    return d


def _oracle_box(p, A, B):
    """The box histogram from point-count traces weighted by residue multiplicities."""
    t, ns = _oracle_trace_grid(p)
    w = np.outer(*(np.bincount(np.arange(-n, n + 1) % p, minlength=p) for n in (A, B)))
    off = math.isqrt(4 * p)
    hist = np.zeros(2 * off + 1, dtype=np.int64)
    np.add.at(hist, t[ns] + off, w[ns])
    return hist


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

    def test_census_matches_scalar(self):
        for p in (5, 13, 31):
            off = math.isqrt(4 * p)
            want = np.zeros(2 * off + 1, dtype=np.int64)
            for a in range(p):
                for b in range(p):
                    if (4 * a**3 + 27 * b**2) % p:
                        want[trace(CurveModP(p=p, a=a, b=b)) + off] += 1
            assert np.array_equal(census(p), want), p
            half = (p - 1) // 2  # |a|, |b| <= half meets each residue once
            assert np.array_equal(box_trace_histogram(p, half, half), want), p

    def test_hasse_bound_all_p_to_2000(self):
        # bincount would lengthen the census for a trace above isqrt(4p) and
        # raise for one below -isqrt(4p)
        for p in (int(q) for q in np.flatnonzero(sieve(2000)) if q > 3):
            assert census(p).shape == (2 * math.isqrt(4 * p) + 1,), p

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.data())
    def test_box_matches_point_count_oracle(self, p, data):
        A, B = data.draw(st.integers(0, 3 * p)), data.draw(st.integers(0, 3 * p))
        assert np.array_equal(box_trace_histogram(p, A, B), _oracle_box(p, A, B))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
    def test_power_table(self, p):
        for width in (1, 2, 3, p - 1, curves._length(p) // 2):
            pw = curves._power_table([p, 7], width)
            assert pw.shape == (2, width)
            for row, q in zip(pw, (p, 7)):
                g = _least_primitive_root(q)
                assert row.tolist() == [pow(g, k, q) for k in range(width)]
        # g^k for k < p - 1 is a permutation of 1..p-1
        assert sorted(pw[0, : p - 1].tolist()) == list(range(1, p))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6))
    def test_smooth_is_least_5_smooth(self, k):
        assert curves._smooth(k) == next(s for s in SMOOTH if s >= k)

    def test_length_rule(self):
        # even, so d = [chi, chi] splits in halves; each half holds a row of p
        # columns and the coset sums at g^0..g^5
        for p in np.flatnonzero(sieve(MAX_CENSUS_PRIME))[2:].tolist():
            n = curves._length(p)
            assert n % 2 == 0 and n >= 2 * p and n >= 12, p

    def test_capacity_checked_before_allocation(self):
        p = 100003  # the first prime above the budget; its tables take 8 MB
        assert is_prime(p) and p > MAX_CENSUS_PRIME
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                box_trace_histogram(p, 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_inexact_correlation_raises(self):
        chi = np.array([0, 1, -1, -1, 1])
        w = np.array([0.5, 0, 0, 0, 0])
        with pytest.raises(AssertionError):
            curves._correlate_chi(w, _doubled(chi))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([int(q) for q in np.flatnonzero(sieve(1000)) if q >= 5]),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_correlation_matches_direct_sum(self, p, k, one_row, seed):
        # oracle: sum_v w[v] chi((v + c) mod p), one np.roll of chi per lag c
        chi = kronecker_table(p, p)
        w = np.random.default_rng(seed).integers(-p, p + 1, size=(k, p))
        if one_row:
            w = w[0]
        shifted = np.stack([np.roll(chi, -c) for c in range(p)]).astype(np.int64)
        got = curves._correlate_chi(w, _doubled(chi))
        assert got.shape == w.shape
        assert np.array_equal(got, w @ shifted.T)

    def test_inexact_last_row_of_batch_raises(self):
        chi = kronecker_table(5, 5)
        w = np.zeros((3, 5))
        w[:2] = [[1, 2, 3, 4, 5], [0, -1, 0, 1, 0]]
        w[2, 0] = 0.5
        curves._correlate_chi(w[:2], _doubled(chi))  # the integer rows alone pass
        with pytest.raises(AssertionError):
            curves._correlate_chi(w, _doubled(chi))


def _by_r(p):
    return dict(zip(trace_grid(p).tolist(), census(p).tolist()))


class TestCensus:
    def test_p5(self):
        hist = census(5)
        assert int(hist.sum()) == 20
        assert _by_r(5)[0] == 4  # the four curves y^2 = x^3 + b

    def test_p7_r5(self):
        assert _by_r(7)[5] == 1

    def test_total_with_independent_singular_count(self):
        for p in (int(q) for q in np.flatnonzero(sieve(100)) if q > 3):
            total = int(census(p).sum())
            assert total == p * p - singular_pair_count(p)
            assert singular_pair_count(p) == p

    def test_layout_spans_hasse_range(self):
        # one int64 entry per r in [-isqrt(4p), isqrt(4p)]; H(r^2 - 4p) > 0
        # for each, so every count in the Hasse range is positive
        for p in (31, 37):
            hist = census(p)
            off = math.isqrt(4 * p)
            assert hist.dtype == np.int64 and hist.shape == (2 * off + 1,)
            assert trace_grid(p).tolist() == list(range(-off, off + 1))
            assert (hist > 0).all()
            assert hist.shape == box_trace_histogram(p, 1, 1).shape
            table = twelve_h_weighted_table(4 * p)
            assert hist.shape == deuring_counts(p, table).shape

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


class TestBatchedTables:
    @pytest.mark.parametrize("primes", [[5, 7], [11, 13], [37], [101]])
    def test_coset_traces_match_scalar(self, primes):
        # gcd(4, p - 1) is 4 at 5, 13, 37, 101 and 2 at 7, 11; gcd(6, p - 1)
        # is 6 at 7, 13, 37 and 2 at 5, 11, 101
        tab = curves._trace_tables(primes)
        for row, p in enumerate(primes):
            for i, a in enumerate(tab.pw[row, : p - 1].tolist()):
                assert tab.t_a0[row, i % 4] == trace(CurveModP(p=p, a=a, b=0)), (p, a)
                assert tab.t_0b[row, i % 6] == trace(CurveModP(p=p, a=0, b=a)), (p, a)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 10**6))
    def test_twist_sign_against_point_counts(self, p, i):
        # rescaling by l = g multiplies a_p by chi(g) = -1, so the (a, 0) trace
        # at g^(i+2) and the (0, b) trace at g^(i+3) negate those at g^i; the
        # tables gather only g^0, g^1 and g^0..g^2 and take the rest from it
        g = _least_primitive_root(p)
        tab = curves._trace_tables([p])
        a0 = [_oracle_trace(p, pow(g, i + s, p), 0) for s in (0, 2)]
        b0 = [_oracle_trace(p, 0, pow(g, i + s, p)) for s in (0, 3)]
        assert a0[1] == -a0[0] == -tab.t_a0[0, i % 4]
        assert b0[1] == -b0[0] == -tab.t_0b[0, i % 6]

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_censuses_equal_census(self, shuffle):
        rng = np.random.default_rng(2024)
        pool = [int(q) for q in np.flatnonzero(sieve(3000)) if q >= 5]
        primes = sorted(rng.choice(pool, size=150, replace=False).tolist())
        if shuffle:
            rng.shuffle(primes)
        batches = list(curves._batches(primes))
        assert [p for b in batches for p in b] == primes

        def cells(batch):
            return len(batch) * max(map(curves._length, batch))

        # each batch fits the budget or is one prime, and the next prime would
        # overflow it; at least one batch pads shorter rows to a longer length
        assert all(cells(b) <= curves._BATCH_CELLS or len(b) == 1 for b in batches)
        assert all(cells(b + c[:1]) > curves._BATCH_CELLS for b, c in zip(batches, batches[1:]))
        assert any(len({curves._length(p) for p in b}) > 1 for b in batches)
        got = list(censuses(primes))
        assert [p for p, _ in got] == primes
        for p, hist in got:
            want = census(p)
            assert hist.dtype == want.dtype and np.array_equal(hist, want), p

    def test_batch_totals_checked_before_any_row(self):
        # counting p = 7's singular class as well adds p - 1 curves to its total
        primes = [5, 7, 11]
        tab = curves._trace_tables(primes)
        rows = curves._census_rows(primes, tab._replace(k_singular=tab.k_singular + [0, 6, 0]))
        with pytest.raises(AssertionError, match=r"census total 48 != p\^2 - p for p=7"):
            next(rows)

    def test_whole_list_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                censuses([7, 100003])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for bad in ([7, 9], [3], [5, 1]):
            with pytest.raises(DomainError):
                censuses(bad)

    def test_batched_memory(self):
        # a second pass, after the FFT plans are cached: one census per prime
        # at a time peaked at 0.22 MB (222 980 B), batches of up to 2^14 cells
        # at 0.87 MB (873 963 B)
        primes = [int(q) for q in np.flatnonzero(sieve(500)) if q >= 5]
        list(censuses(primes))
        tracemalloc.start()
        try:
            got = list(censuses(primes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == len(primes)
        assert peak < 1 << 20


def _mismatches(p):
    """The traces at which census(p) and its Deuring counts differ."""
    return trace_grid(p)[census(p) != deuring_counts(p, twelve_h_weighted_table(4 * p))]


class TestDeuring:
    def test_p5_all_match(self):
        assert _mismatches(5).size == 0

    def test_p7_r5_row(self):
        assert not _mismatches(7).any()

    @pytest.mark.parametrize("p", [10007, 20011])
    def test_large_primes_all_match(self, p):
        assert _mismatches(p).size == 0

    def test_largest_census_primes_match(self):
        # p = 99989 and 99991 are the largest primes under MAX_CENSUS_PRIME,
        # so their correlations run at the largest padded length 2^18
        table = twelve_h_weighted_table(4 * 99991)
        for p in (99989, 99991):
            assert p <= MAX_CENSUS_PRIME and is_prime(p)
            got, want = census(p), deuring_counts(p, table)
            ordinary = trace_grid(p) != 0
            assert np.array_equal(got[ordinary], want[ordinary]), p

    def test_p11_supersingular(self):
        assert 0 not in _mismatches(11)
        assert _by_r(11)[0] == 20

    def test_counts_against_scalar_class_numbers(self):
        for p in (5, 7, 37):
            r = trace_grid(p).tolist()
            want = [(p - 1) * kronecker_H(t * t - 4 * p).twelve_h // 12 for t in r]
            assert deuring_counts(p, twelve_h_weighted_table(4 * p)).tolist() == want

    def test_table_must_reach_4p(self):
        with pytest.raises(DomainError):
            deuring_counts(37, twelve_h_weighted_table(4 * 37 - 1))
        with pytest.raises(DomainError):
            deuring_sweep(37, twelve_h_weighted_table(100))

    def test_one_entry_not_divisible_by_12(self):
        table = twelve_h_weighted_table(20)
        table[20 - 3 * 3] += 1  # (5-1)*(12H(-11) + 1) = 28 at r = +-3
        with pytest.raises(AssertionError, match="p=5, r=-3"):
            deuring_counts(5, table)

    def test_mismatch_rows(self):
        # a doubled table doubles every expected count: every nonzero row of
        # the census mismatches, r = 0 among them
        p = 11
        q, r = deuring_sweep(p, 2 * twelve_h_weighted_table(4 * p))[-1]
        assert q == p and 0 in r
        assert r.tolist() == [t for t, c in _by_r(p).items() if c]

    def test_one_shifted_entry(self):
        # 12H(-404) + 12 moves the expected count at r^2 - 4p = -404 only:
        # r = 0 at p = 101, and r = +-12 at p = 137
        table = twelve_h_weighted_table(4 * 137)
        table[4 * 101] += 12
        bad = {p: r.tolist() for p, r in deuring_sweep(137, table) if r.size}
        assert bad == {101: [0], 137: [-12, 12]}

    def test_sweep_covers_primes_from_5(self):
        sweep = deuring_sweep(60, twelve_h_weighted_table(240))
        assert [p for p, _ in sweep] == [int(q) for q in np.flatnonzero(sieve(60)) if q >= 5]
        assert all(r.size == 0 for _, r in sweep)


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
        for p in (int(q) for q in np.flatnonzero(sieve(50)) if q > 3):
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
                hist = box_trace_histogram(p, A, B)
                for r in range(-off, off + 1):
                    assert hist[r + off] == self._oracle_box(p, A, B, r), (p, A, B, r)

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

    def test_total_checked(self, monkeypatch):
        multiplicities = curves._residue_multiplicities

        def corrupted(bound, p):
            q, e = multiplicities(bound, p)
            e[0] += 1  # residue 0 weighed once too often
            return q, e

        monkeypatch.setattr(curves, "_residue_multiplicities", corrupted)
        with pytest.raises(AssertionError, match=r"p=11\b"):
            box_trace_histogram(11, 6, 9)

    def test_domain(self):
        with pytest.raises(DomainError):
            box_trace_histogram(4, 2, 2)
        with pytest.raises(DomainError):
            box_trace_histogram(5, -1, 2)
        with pytest.raises(DomainError):
            box_trace_histogram(5, 2, -1)

    # (2A+1)(2B+1) against 2^53, where a float64 count stops being exact
    @pytest.mark.parametrize(
        "A, B, ok",
        [
            (47453132, 47453132, True),  # 94906265^2 = 2^53 - 118490767
            (47453132, 47453133, False),
            (2**52 - 1, 0, True),  # 2A+1 = 2^53 - 1
            (2**52, 0, False),
            (10**9, 10**9, False),
        ],
    )
    def test_largest_boxes_exact(self, A, B, ok):
        p = 101
        assert ((2 * A + 1) * (2 * B + 1) <= MAX_BOX_PAIRS) == ok
        if not ok:
            with pytest.raises(DomainError):
                box_trace_histogram(p, A, B)
            return
        # Python-int oracle: residue multiplicities times scalar traces
        mult_a = [(A - v) // p - (-A - 1 - v) // p for v in range(p)]
        mult_b = [(B - v) // p - (-B - 1 - v) // p for v in range(p)]
        off = math.isqrt(4 * p)
        want = [0] * (2 * off + 1)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p:
                    want[trace(CurveModP(p=p, a=a, b=b)) + off] += mult_a[a] * mult_b[b]
        assert sum(mult_a) == 2 * A + 1 and sum(mult_b) == 2 * B + 1
        assert box_trace_histogram(p, A, B).tolist() == want


class TestPersistence:
    def test_round_trip(self, tmp_path):
        primes = (5, 7, 11)
        path = str(tmp_path / "census.csv")
        total = write_census_file(path, ((p, census(p)) for p in primes))
        assert total == sum(p * p - p for p in primes)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# census records: p,r,count"
        back = [tuple(map(int, line.split(","))) for line in lines[1:]]
        want = [(p, r, c) for p in primes for r, c in _by_r(p).items() if c > 0]
        assert back == want

    def test_failed_write_leaves_no_file(self, tmp_path):
        def censuses():
            yield 5, census(5)
            raise DomainError("census failed midway")

        with pytest.raises(DomainError):
            write_census_file(str(tmp_path / "census.csv"), censuses())
        assert list(tmp_path.iterdir()) == []
