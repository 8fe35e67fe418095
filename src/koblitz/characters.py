"""Dirichlet characters mod q via prime-power decomposition and generators.

Characters are stored as exponent tuples against the cyclic components of
(Z/q)^*; values are complex binary64 built from exact rational exponents on
the unit circle.  Conductors come from the component orders, so primitivity
is decided without any brute-force minimization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
from .primes import factorize, phi

# Largest q * phi(q): the complex128 values of all characters mod q, 16 MB.
MAX_CHARACTER_CELLS = 2**20


def _primitive_root(p: int, pk: int) -> int:
    """Primitive root mod p^k for odd p."""
    ph = p - 1
    prime_divs = factorize(ph).primes
    g = None
    for cand in range(2, p):
        if all(pow(cand, ph // d, p) != 1 for d in prime_divs):
            g = cand
            break
    if g is None:
        raise AssertionError(f"no primitive root found mod {p}")
    if pk == p:
        return g
    # lift: g works mod p^k unless g^(p-1) = 1 mod p^2
    if pow(g, ph, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class _Component:
    """One cyclic factor of (Z/q)^*: index table and order."""

    modulus: int  # the prime power it lives on
    order: int
    index: np.ndarray  # index[x mod modulus] = discrete log, -1 for non-units
    kind: str  # 'odd', 'four', 'two_sign', 'two_five'
    prime: int


def _odd_component(p: int, k: int) -> _Component:
    pk = p**k
    order = pk - pk // p
    g = _primitive_root(p, pk)
    index = np.full(pk, -1, dtype=np.int64)
    val = 1
    for j in range(order):
        index[val] = j
        val = val * g % pk
    return _Component(modulus=pk, order=order, index=index, kind="odd", prime=p)


def _two_components(k: int) -> list[_Component]:
    pk = 2**k
    if k == 1:
        return []
    if k == 2:
        index = np.array([-1, 0, -1, 1], dtype=np.int64)
        return [_Component(modulus=4, order=2, index=index, kind="four", prime=2)]
    sign = np.full(pk, -1, dtype=np.int64)
    five = np.full(pk, -1, dtype=np.int64)
    order5 = pk // 4
    val = 1
    for j in range(order5):
        sign[val] = 0
        five[val] = j
        sign[pk - val] = 1
        five[pk - val] = j
        val = val * 5 % pk
    return [
        _Component(modulus=pk, order=2, index=sign, kind="two_sign", prime=2),
        _Component(modulus=pk, order=order5, index=five, kind="two_five", prime=2),
    ]


def _component_conductor(comp: _Component, exponent: int) -> int:
    """Conductor contribution of one component given its character exponent."""
    if comp.kind == "odd":
        if exponent == 0:
            return 1
        order = comp.order // math.gcd(exponent, comp.order)
        p = comp.prime
        s = 0
        while order % p == 0:
            order //= p
            s += 1
        return p ** (s + 1)
    if comp.kind == "four":
        return 4 if exponent else 1
    # the 2^k >= 8 pair is handled jointly by _two_part_conductor
    return 1


def _two_part_conductor(sign_e: int, five_e: int, order5: int) -> int:
    if five_e:
        o5 = order5 // math.gcd(five_e, order5)
        return 4 * o5
    return 4 if sign_e else 1


@dataclass(frozen=True)
class DirichletCharacter:
    modulus: int
    exponents: tuple[int, ...]
    conductor: int
    is_principal: bool
    _values: np.ndarray = field(repr=False, compare=False)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def values(self) -> np.ndarray:
        """chi(x) for x = 0..q-1 (0 at non-invertible residues)."""
        return self._values


@dataclass(frozen=True)
class CharacterTable:
    modulus: int
    phi: int
    characters: tuple[DirichletCharacter, ...]

    @property
    def principal(self) -> DirichletCharacter:
        return next(chi for chi in self.characters if chi.is_principal)


@functools.lru_cache(maxsize=64)
def characters(q: int) -> CharacterTable:
    """All phi(q) Dirichlet characters mod q."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > MAX_CHARACTER_CELLS or q * phi(q) > MAX_CHARACTER_CELLS:
        raise CapacityError(f"q*phi(q) for modulus {q} exceeds budget {MAX_CHARACTER_CELLS}")
    comps: list[_Component] = []
    for p, k in factorize(q).pairs:
        if p == 2:
            comps.extend(_two_components(k))
        else:
            comps.append(_odd_component(p, k))
    x = np.arange(q, dtype=np.int64)
    unit = np.ones(q, dtype=bool)
    if q > 1:
        unit = np.gcd(x, q) == 1
    # component discrete logs of every residue, as a fraction of each order
    comp_logs = [comp.index[x % comp.modulus] for comp in comps]
    orders = [comp.order for comp in comps]
    phi_q = 1
    for o in orders:
        phi_q *= o
    chars = []
    two_pair = [i for i, comp in enumerate(comps) if comp.kind in ("two_sign", "two_five")]
    for exps in itertools.product(*(range(o) for o in orders)):
        angle = np.zeros(q, dtype=np.float64)
        for e, logs, o in zip(exps, comp_logs, orders):
            if e:
                angle[unit] += (e * logs[unit]) / o
        vals = np.zeros(q, dtype=np.complex128)
        vals[unit] = np.exp(2j * np.pi * angle[unit])
        if q == 1:
            vals = np.ones(1, dtype=np.complex128)
        cond = 1
        for i, comp in enumerate(comps):
            if comp.kind == "two_sign":
                continue  # handled with its partner below
            if comp.kind == "two_five":
                sign_i = two_pair[0]
                cond *= _two_part_conductor(exps[sign_i], exps[i], comp.order)
            else:
                cond *= _component_conductor(comp, exps[i])
        chars.append(
            DirichletCharacter(
                modulus=q,
                exponents=exps,
                conductor=cond,
                is_principal=all(e == 0 for e in exps),
                _values=vals,
            )
        )
    if len(chars) != phi_q:
        raise AssertionError(f"{len(chars)} characters mod {q}, expected phi(q)={phi_q}")
    return CharacterTable(modulus=q, phi=phi_q, characters=tuple(chars))


def rho_chi(r: int, chi: DirichletCharacter) -> complex:
    """rho(r, chi) = sum over b mod q with (b-r, q) = 1 of chi(b)."""
    q = chi.modulus
    b = np.arange(q, dtype=np.int64)
    if q == 1:
        return complex(chi.values[0])
    mask = np.gcd((b - r) % q, q) == 1
    return complex(chi.values[mask].sum())
