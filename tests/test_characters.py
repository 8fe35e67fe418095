"""Dirichlet character tests: group structure, conductors, character sums."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koblitz.errors import CapacityError, DomainError
from koblitz.primes import factorize, phi
from koblitz.twinseries import rho
from lemmas import MAX_CHARACTER_CELLS, _generators, characters, moebius, rho_chi


def _oracle_conductor(values):
    """Smallest divisor d of q with chi trivial on units congruent to 1 mod d.

    `values` is the row chi(x), x = 0..q-1.
    """
    q = len(values)
    for d in range(1, q + 1):
        if q % d:
            continue
        if all(
            abs(values[a] - 1.0) < 1e-9
            for a in range(q)
            if math.gcd(a, q) == 1 and a % d == 1 % d
        ):
            return d
    raise AssertionError("no conductor found")


class TestCharacterGroup:
    def test_q1(self):
        table = characters(1)
        assert table.phi == 1
        assert table.values.shape == (1, 1) and table.exponents.shape == (1, 0)
        assert not table.exponents[0].any()
        assert table.values[0, 7 % 1] == 1

    def test_q5(self):
        table = characters(5)
        assert len(table.values) == len(table.conductor) == 4
        assert np.count_nonzero(table.conductor == 5) == 3

    def test_q8(self):
        table = characters(8)
        assert len(table.values) == 4

    def test_counts_match_phi(self):
        for q in (2, 3, 4, 6, 9, 12, 16, 24, 36, 45, 60, 100, 101, 128):
            table = characters(q)
            n = len(_generators(q))
            assert table.exponents.shape == (phi(q), n) and table.conductor.shape == (phi(q),)
            assert table.values.shape == (phi(q), q) and table.phi == phi(q)
            # distinct exponent tuples, so distinct characters
            assert len({tuple(e) for e in table.exponents.tolist()}) == phi(q)

    def test_principal_is_unit_indicator(self):
        for q in (1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 24, 45, 60, 101):
            table = characters(q)
            # row 0, and only row 0, has the exponents 0
            assert (~table.exponents.any(axis=1)).tolist() == [True] + [False] * (table.phi - 1)
            for a in range(q):
                want = 1.0 if math.gcd(a, q) == 1 else 0.0
                assert table.values[0, a] == pytest.approx(want)

    def test_values_multiplicative(self):
        for q in (7, 12, 45):
            for chi in characters(q).values:
                for a in range(q):
                    for b in range(q):
                        lhs = chi[a * b % q]
                        rhs = chi[a] * chi[b]
                        assert abs(lhs - rhs) < 1e-9

    def test_generator_lifts_past_non_lifting_root(self):
        # 5, the least primitive root mod 40487, has 5^40486 = 1 mod 40487^2
        q = 40487**2
        assert pow(5, 40486, q) == 1
        [(g, order)] = _generators(q)
        assert order == phi(q)
        assert all(pow(g, order // ell, q) != 1 for ell, _ in factorize(order))

    def test_domain_and_capacity(self):
        with pytest.raises(DomainError):
            characters(0)
        with pytest.raises(CapacityError):
            characters(10**4 + 1)

    def test_capacity_checked_before_allocation(self):
        q = 9973  # prime; its phi(q) x q table would take 1.6 GB
        assert q * phi(q) > MAX_CHARACTER_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                characters(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_tables_within_budget(self):
        assert 1021 * phi(1021) <= MAX_CHARACTER_CELLS < 1031 * phi(1031)
        assert characters(1021).phi == 1020
        with pytest.raises(CapacityError):
            characters(1031)


class TestConductors:
    def test_against_brute_force(self):
        mods = list(range(1, 101)) + [101, 105, 112, 128, 144, 200]
        for q in mods:
            table = characters(q)
            for e, f, chi in zip(table.exponents, table.conductor, table.values):
                assert f == _oracle_conductor(chi), (q, e)

    @settings(max_examples=50, deadline=None)
    @given(q=st.integers(1, 400), b=st.integers(0, 399), r=st.integers(-400, 400))
    def test_table_against_definitions(self, q, b, r):
        table = characters(q)
        vals = table.values
        x = np.arange(q)
        for e, f, chi in zip(table.exponents, table.conductor, vals):
            assert f == _oracle_conductor(chi), (q, e)
        # chi(x b) = chi(x) chi(b) for every character and every residue x
        assert np.abs(vals[:, x * b % q] - vals * vals[:, [b % q]]).max() < 1e-9
        got = rho_chi(r, table)
        for e, chi, g in zip(table.exponents, vals, got):
            want = sum(chi[c] for c in range(q) if math.gcd(c - r, q) == 1)
            assert abs(g - want) < 1e-10, (q, r, e)

    def test_primitive_flag(self):
        for q in (5, 8, 12, 45):
            table = characters(q)
            primitive = [_oracle_conductor(chi) == q for chi in table.values]
            assert (table.conductor == q).tolist() == primitive


class TestOrthogonality:
    def test_row_orthogonality(self):
        for q in (1, 2, 3, 4, 5, 8, 12, 15, 16, 24, 45, 60, 101):
            table = characters(q)
            gram = table.values @ table.values.conj().T
            assert np.abs(gram - table.phi * np.eye(table.phi)).max() < 1e-9

    def test_row_orthogonality_largest_table(self):
        # exact integer angles keep the largest table's Gram matrix near phi*I
        table = characters(1021)
        gram = table.values @ table.values.conj().T
        assert np.abs(gram - table.phi * np.eye(table.phi)).max() < 1e-11

    def test_column_sum(self):
        # sum over chi of chi(a) = phi(q) iff a = 1
        for q in (5, 12, 36):
            table = characters(q)
            for a in range(q):
                s = sum(chi[a] for chi in table.values)
                want = table.phi if a % q == 1 % q else 0.0
                assert abs(s - want) < 1e-9


class TestRhoChi:
    def test_principal_reduces_to_rho(self):
        for q in (3, 4, 15, 45):
            table = characters(q)
            for r in range(-6, 7):
                assert rho_chi(r, table)[0] == pytest.approx(rho(r, q), abs=1e-9)

    def test_primitive_identity_mod5(self):
        table = characters(5)
        got = rho_chi(2, table)
        for f, chi, g in zip(table.conductor, table.values, got):
            if f == 5:
                assert abs(g - moebius(5) * chi[2]) < 1e-10

    def test_definition_unrolled(self):
        q = 12
        table = characters(q)
        for r in (0, 5):
            got = rho_chi(r, table)
            for chi, g in zip(table.values, got):
                want = sum(
                    chi[b]
                    for b in range(q)
                    if math.gcd(b - r, q) == 1
                )
                assert abs(g - want) < 1e-10
