"""Twin-prime singular series, residue densities, and the BDH statistic.

The singular series S(r) is the Hardy-Littlewood density for prime pairs at
distance r; S(r,q,a) restricts to an arithmetic progression.  psi is the
log-weighted empirical count of such pairs over a window, and bdh_statistic
is the mean-square dispersion of psi - S(r,q,a) Y over all (r, q, a).  Each
is computed for a whole range at once: S(r) for every r <= n in one
singular_series_table (its factor 2*C2 is constants.TWIN_CONSTANT), psi and
S(r,q,a) Y for every (r, q, a) in one bdh_statistic grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import TWIN_CONSTANT
from .errors import CapacityError, DomainError
from .primes import MAX_SIEVE_LIMIT, factorize, sieve, sieve_window

# Budget for bdh_statistic's (r, q, a) grid: 2R * Q(Q+1)/2 cells, 16 MB per
# float64 array over it.
MAX_BDH_CELLS = 1 << 21


def singular_series_table(n: int) -> np.ndarray:
    """S(m) for 1 <= m <= n (entry 0 is unused), from one sieve pass.

    S(m) is 0 for odd m and 2*C2 prod_{odd p | m} (p-1)/(p-2) for even m,
    with 2*C2 the truncated product TWIN_CONSTANT.  Each even entry takes its
    factors (ell-1)/(ell-2) in ascending ell and then 2*C2, so entry m equals
    the scalar route in tests/oracles.py bit for bit.
    """
    corr = np.ones(n + 1)
    if n >= 6:
        for ell in np.flatnonzero(sieve(n // 2))[1:].tolist():
            corr[2 * ell :: 2 * ell] *= (ell - 1.0) / (ell - 2.0)
    corr[1::2] = 0.0
    return TWIN_CONSTANT * corr


def rho(r: int, q: int) -> int:
    """#{a mod q : (a,q) = (a-r,q) = 1} via the closed multiplicative formula."""
    if q < 1:
        raise DomainError("q must be >= 1")
    out = 1
    for p, e in factorize(q):
        pe = p**e
        if r % p == 0:
            out *= pe - pe // p
        else:
            out *= pe - 2 * (pe // p)
    return out


# ---------------------------------------------------------------------------
# empirical window sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BdhResult:
    """The dispersion statistic and the grid it sums.

    Row i of the psi and expected grids is the shift r_values[i]; column j
    is the class (q_col[j], a_col[j]), q ascending, then a.  The error of a
    cell is psi - expected.
    """

    S: float
    normalized: float
    per_q: dict[int, float] = field(repr=False)
    r_values: np.ndarray = field(repr=False)
    q_col: np.ndarray = field(repr=False)
    a_col: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    expected: np.ndarray = field(repr=False)


def bdh_statistic(R: int, Q: int, X: int, Y: int) -> BdhResult:
    """S = sum over 0<|r|<=R, q<=Q, a mod q of E(r,q,a)^2 over the window
    (X, X+Y], and its normalization S / (R (X+Y)^2).

    Array passes over a grid with one row per shift r = -R..-1, 1..R and one
    column per class (q, a), q = 1..Q, a = 0..q-1.  The window (X-R, X+Y+R]
    is sieved once and each prime's column per q is computed once; per
    shift, one bincount buckets the pair weights into every column, each
    bin summing in ascending p.  S(r,q,a) is read from one
    singular_series_table, and S and per_q are sequential cumsums in
    (r, q, a) order, so every value equals the per-class loop's bit for bit.
    """
    if Y < 1 or X < 0:
        raise DomainError("window requires X >= 0, Y >= 1")
    if R > X + Y or R < 1 or Q < 1:
        raise DomainError("require 1 <= R <= X + Y and Q >= 1")
    # 2R * Q(Q+1)/2 grid cells; the R*Q + 1 entry S table is smaller
    if R * Q * (Q + 1) > MAX_BDH_CELLS:
        raise CapacityError(
            f"R={R}, Q={Q} give {R * Q * (Q + 1)} cells, over budget {MAX_BDH_CELLS}"
        )
    if Y + 2 * R > MAX_SIEVE_LIMIT:
        raise CapacityError(
            f"window length Y + 2R = {Y + 2 * R} exceeds sieve budget {MAX_SIEVE_LIMIT}"
        )
    # entry i of flags and logs is the integer X - R + 1 + i; logs holds log n
    # at primes and 0 elsewhere, and the integers below 1 read as non-prime
    lo = max(X - R, 0)
    flags = np.zeros(Y + 2 * R, dtype=bool)
    flags[lo - X + R :] = sieve_window(lo, X + Y + R - lo)
    logs = np.zeros(flags.size)
    idx = np.flatnonzero(flags)
    logs[idx] = np.log((idx + (X - R + 1)).astype(np.float64))
    # the primes p of (X, X+Y], at index `at` past entry R; the partner p - r
    # of p sits at index at in flags[R - r:]
    at = np.flatnonzero(flags[R : R + Y])
    p = at + (X + 1)
    logp = logs[R:][at]
    qs = np.arange(1, Q + 1)
    starts = np.cumsum(qs) - qs  # first column of each q
    q_col = np.repeat(qs, qs)
    start_col = np.repeat(starts, qs)
    a_col = np.arange(q_col.size) - start_col
    r_values = np.concatenate((np.arange(-R, 0), np.arange(1, R + 1)))

    codes = p[:, None] % qs + starts  # column of each prime, per q
    psi_grid = np.zeros((r_values.size, q_col.size))
    for i, r in enumerate(r_values.tolist()):
        # for odd r one of p, p - r is even, so a pair needs p = 2 or p - r = 2
        if r % 2 and not any(X < p2 <= X + Y for p2 in (2, r + 2)):
            continue
        hit = np.flatnonzero(flags[R - r :][at])
        if hit.size == 0:
            continue
        w = logp[hit] * logs[R - r :][at[hit]]
        psi_grid[i] = np.bincount(
            codes[hit].ravel(), weights=np.repeat(w, Q), minlength=q_col.size
        )

    # S(r,q,a) = S(rq)/phi(q) on admissible classes (2 | r and
    # (a,q) = (a-r,q) = 1), 0 elsewhere; cross-checked against S(r)/rho(r,q)
    units = np.gcd(a_col, q_col) == 1
    even = r_values % 2 == 0
    partner = a_col - r_values[:, None]  # column of a - r, built in place
    partner %= q_col
    partner += start_col
    admissible = units & units[partner]
    del partner
    table = singular_series_table(R * Q)
    r_even = np.abs(r_values[even])
    via_product = table[r_even[:, None] * qs] / np.add.reduceat(units, starts)
    rho_even = np.add.reduceat(admissible[even], starts, axis=1)
    via_rho = table[r_even][:, None] / rho_even
    bad = np.abs(via_product - via_rho) > 1e-10 * np.abs(via_product)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        a = int(np.argmax(admissible[even][i, starts[j] : starts[j] + j + 1]))
        r = r_values[even][i]
        raise AssertionError(
            f"singular series routes disagree at (r,q,a)=({r},{j + 1},{a})"
        )
    density = np.zeros((r_values.size, Q))  # 0 at odd r
    density[even] = via_product
    expected = np.take(density, q_col - 1, axis=1)  # C order, like psi_grid
    expected *= Y
    expected[~admissible] = 0.0
    sq = psi_grid - expected
    sq *= sq
    per_q = {
        q: float(np.cumsum(sq[:, s : s + q])[-1])
        for q, s in zip(qs.tolist(), starts.tolist())
    }
    total = float(np.cumsum(sq, out=sq.reshape(-1))[-1])  # in place: sq is spent
    return BdhResult(
        S=total,
        normalized=total / (R * float(X + Y) ** 2),
        per_q=per_q,
        r_values=r_values,
        q_col=q_col,
        a_col=a_col,
        psi=psi_grid,
        expected=expected,
    )
