"""Experiment drivers: theorem-scale reproductions and verification suites.

Every driver returns a Report whose JSON serialization is deterministic for
a fixed configuration, so repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import classnumbers, constants, curves, twinseries
from .characters import characters, rho_chi
from .errors import DomainError
from .primes import moebius, phi, sieve


@dataclass
class Report:
    name: str
    params: dict
    rows: list = field(default_factory=list)  # dicts
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "params": self.params,
            "rows": self.rows,
            "summary": self.summary,
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Gauss-Legendre rule for the Theorem 2 main term; 32 nodes give ~1e-14
# relative for every pmax <= 10^5 (tests/test_harness_cli.py).
LEGENDRE_NODES = 32
_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(LEGENDRE_NODES)


def _integral_main_term(pmax: int, frak_c: float) -> float:
    """frak_c times the integral of u^2/log^2 u over [2, pmax].

    With u = e^v the integrand is e^{3v}/v^2 on [log 2, log pmax], smooth
    there, so a fixed Gauss-Legendre rule integrates it.
    """
    lo, hi = math.log(2), math.log(pmax)
    half = 0.5 * (hi - lo)
    v = half * _LEG_X + (lo + half)
    return frak_c * half * float(_LEG_W @ (np.exp(3 * v) / (v * v)))


def run_theorem2(pmax: int) -> Report:
    """Sum of pi*(p) over p <= pmax via class numbers, against the main term.

    The class-number route needs no censuses; for pmax <= 3000 the exact
    census sum is also computed and must match exactly.
    """
    if pmax > 10**5:
        raise DomainError("pmax exceeds the class-number-route budget 10^5")
    if pmax < 10:
        raise DomainError("pmax too small")
    table = classnumbers.twelve_h_weighted_table(4 * pmax)
    flags = sieve(pmax + 2 * math.isqrt(pmax) + 2)
    frak_c = constants.average_constant().value
    with_census = pmax <= 3000
    primes = np.flatnonzero(flags[: pmax + 1])[2:].tolist()  # 5 <= p <= pmax
    class_route = sum(
        int(curves.deuring_counts(p, table)[curves.twin_traces(flags, p)].sum()) for p in primes
    )
    if with_census:
        census_route = sum(
            int(hist[curves.twin_traces(flags, p)].sum()) for p, hist in curves.censuses(primes)
        )
    integral_term = _integral_main_term(pmax, frak_c)
    asymptotic = frak_c * pmax**3 / (3 * math.log(pmax) ** 2)
    report = Report(
        name="theorem2",
        params={"pmax": pmax, "L": constants.DEFAULT_TRUNCATION},
    )
    summary = {
        "class_route_sum": class_route,
        "frak_c": frak_c,
        "integral_main_term": integral_term,
        "asymptotic_main_term": asymptotic,
        "ratio_to_integral": class_route / integral_term,
        "ratio_to_asymptotic": class_route / asymptotic,
    }
    if with_census:
        summary["census_route_sum"] = census_route
        summary["routes_match"] = census_route == class_route
        report.passed = bool(summary["routes_match"])
    report.summary = summary
    return report


def _global_singular_in_box(box_a: int, box_b: int) -> int:
    """#{(a,b) in the box : 4a^3 + 27b^2 = 0}; all are (-3t^2, 2t^3)."""
    count = 0
    t = 0
    while 3 * t * t <= box_a and 2 * t**3 <= box_b:
        count += 1 if t == 0 else 2
        t += 1
    return count


def run_theorem1(x: int, box_a: int, box_b: int) -> Report:
    """Average of pi_twin over the (2A+1)(2B+1) box of curves up to x."""
    if x < 10 or x > curves.MAX_CENSUS_PRIME:
        raise DomainError(f"x must be in [10, {curves.MAX_CENSUS_PRIME}] for the box average")
    if box_a < 0 or box_b < 0 or (2 * box_a + 1) * (2 * box_b + 1) > curves.MAX_BOX_PAIRS:
        raise DomainError("box radii must be >= 0, with at most 2^53 pairs")
    n_curves = (2 * box_a + 1) * (2 * box_b + 1) - _global_singular_in_box(box_a, box_b)
    if n_curves <= 0:
        raise DomainError("box contains no nonsingular curves")
    flags = sieve(x + 2 * math.isqrt(x) + 2)
    table = classnumbers.twelve_h_weighted_table(4 * x)
    total = 0
    terms = [np.zeros(1)]  # H(r^2-4p)/p per twin trace, summed from 0.0 in order
    for p in np.flatnonzero(flags[: x + 1])[2:].tolist():  # 5 <= p <= x
        good = curves.twin_traces(flags, p)
        total += int(curves.box_trace_histogram(p, box_a, box_b)[good].sum())
        # (p-1)H / (p-1) rounds to the same float as 12H / 12
        terms.append(curves.deuring_counts(p, table)[good] / (p - 1) / p)
    refined = float(np.cumsum(np.concatenate(terms))[-1])
    average = total / n_curves
    frak_c = constants.average_constant().value
    naive = frak_c * x / math.log(x) ** 2
    return Report(
        name="theorem1",
        params={"x": x, "A": box_a, "B": box_b},
        summary={
            "box_curves": n_curves,
            "total_twin_count": total,
            "average": average,
            "refined_main_term": refined,
            "naive_main_term": naive,
            "ratio_to_refined": average / refined if refined else float("nan"),
            "ratio_to_naive": average / naive,
        },
    )


def run_bdh(R: int, Q: int, X: int, Y: int) -> tuple[Report, twinseries.BdhResult]:
    """The dispersion statistic over a window, with per-q marginals.

    Returns the Report and the statistic's grid, which bdh_rows_csv writes.
    """
    result = twinseries.bdh_statistic(R, Q, X, Y)
    single_class = result.per_q[1] / (R * float(Y) ** 2)
    report = Report(
        name="bdh",
        params={"x": X + Y, "R": R, "Q": Q, "X": X, "Y": Y, "L": constants.DEFAULT_TRUNCATION},
        summary={
            "S": result.S,
            "normalized": result.normalized,
            "single_class_statistic": single_class,
            "per_q": {str(q): v for q, v in sorted(result.per_q.items())},
        },
    )
    return report, result


def bdh_rows_csv(result: twinseries.BdhResult) -> Iterator[str]:
    """CSV of the grid: `r,q,a,psi,expected,error`, one row per cell (r, q, a)
    in grid order, then `# summary S=... normalized=...`.

    Yields the text in chunks: the header, then one chunk per shift r, then
    the summary, each ending in a newline.  Values print as repr; error is
    psi - expected.  A cell whose psi and expected are both +0.0 (odd shifts,
    classes that are not admissible) has error +0.0 and shares one
    preformatted line tail per column.  The values of the other cells are
    keyed by their bit patterns, so -0.0 stays apart from +0.0, and each
    distinct pattern goes through repr once for the whole grid.
    """
    heads = [f"{q},{a}," for q, a in zip(result.q_col.tolist(), result.a_col.tolist())]
    n = len(heads)
    zero_tails = [head + "0.0,0.0,0.0" for head in heads]
    psi, expected = result.psi.ravel(), result.expected.ravel()
    at = np.flatnonzero(psi.view(np.int64) | expected.view(np.int64))
    psi, expected = psi[at], expected[at]
    # 1-D input: the inverse's shape for N-D input differs across numpy 2.0.x
    distinct, inverse = np.unique(
        np.concatenate((psi, expected, psi - expected)).view(np.int64), return_inverse=True
    )
    del psi, expected
    values = distinct.view(np.float64)
    text = np.empty(values.size, dtype=object)
    for lo in range(0, values.size, 1 << 16):  # 2^16 Python floats at a time
        text[lo : lo + (1 << 16)] = list(map(repr, values[lo : lo + (1 << 16)].tolist()))
    del distinct, values
    cells = text[inverse.reshape(3, -1)]  # column k: the three texts of cell at[k]
    del inverse, text
    # the nonzero cells of row i are at[bounds[i]:bounds[i + 1]]
    bounds = np.searchsorted(at, n * np.arange(result.r_values.size + 1)).tolist()
    cols = at % n
    del at
    yield "r,q,a,psi,expected,error\n"
    for i, r in enumerate(result.r_values.tolist()):
        lo, hi = bounds[i], bounds[i + 1]
        tails = zero_tails
        if lo < hi:
            tails = zero_tails.copy()
            psi, expected, error = cells[:, lo:hi].tolist()
            for j, p, e, d in zip(cols[lo:hi].tolist(), psi, expected, error):
                tails[j] = f"{heads[j]}{p},{e},{d}"
        yield f"{r}," + f"\n{r},".join(tails) + "\n"
    yield f"# summary S={result.S!r} normalized={result.normalized!r}\n"


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _check(rows: list[dict], name: str, passed: bool, detail: str = "") -> bool:
    rows.append({"check": name, "passed": bool(passed), "detail": detail})
    return bool(passed)


def _suite_deuring(rows: list[dict]) -> bool:
    table = classnumbers.twelve_h_weighted_table(10**4)
    sweep = curves.deuring_sweep(499, table)
    bad_ordinary = [p for p, r in sweep if r.any()]
    bad_supersingular = [p for p, r in sweep if 0 in r]
    ok = _check(
        rows,
        "deuring ordinary traces exact, p in [5, 499]",
        not bad_ordinary,
        f"mismatching p: {bad_ordinary}" if bad_ordinary else "all exact",
    )
    # reported, not asserted: supersingular rows
    _check(
        rows,
        "deuring supersingular (r=0) rows",
        not bad_supersingular,
        f"mismatching p: {bad_supersingular}" if bad_supersingular else "all exact",
    )
    max_ratio, argmax = classnumbers.H_bound_check(table)
    ok &= _check(
        rows,
        "H growth envelope finite at Dmax=10^4",
        max_ratio < 10.0,
        f"max H/(sqrt(D) log^2 D) = {max_ratio:.6f} at D={argmax}",
    )
    return ok


def _suite_constants(rows: list[dict]) -> bool:
    ok = True
    for ell in (3, 5, 7, 11, 13):
        led = constants.gl2_count(ell)  # raises if the exact identity fails
        ok &= _check(
            rows,
            f"gl2 local factor identity at ell={ell}",
            True,
            f"omega={led.omega_prime_count}, gl2={led.gl2_order}",
        )
    f1, f2 = constants.average_constant_forms(10**6)
    ok &= _check(
        rows,
        "average constant: two product forms agree at L=10^6",
        abs(f1 - f2) <= 1e-9,
        f"|{f1!r} - {f2!r}| = {abs(f1 - f2):.3e}",
    )
    v5 = constants.average_constant(10**5).value
    v6 = constants.average_constant(10**6).value
    ok &= _check(
        rows,
        "average constant stable between L=10^5 and 10^6",
        abs(v5 - v6) < 1e-7,
        f"moves by {abs(v5 - v6):.3e}",
    )
    worst = 0.0
    for ell in (int(p) for p in np.flatnonzero(sieve(50)) if p >= 3):
        for r in (2 * ell + 1, ell, 3 if ell > 3 else 5):
            if r == 1 or r % 2 == 0:
                continue
            ls = constants.local_sums(ell, r)
            a_num = float(sum(constants.a_series_term(ell, k) for k in range(61)))
            b_num = float(sum(constants.b_series_term(ell, k, r) for k in range(61)))
            worst = max(worst, abs(a_num - float(ls.a_sum)), abs(b_num - float(ls.b_sum)))
            if ls.c_sum is not None:
                c_num = float(sum(constants.c_series_term(ell, k, r) for k in range(61)))
                worst = max(worst, abs(c_num - float(ls.c_sum)))
    b2 = float(sum(constants.b_series_term(2, k, 3) for k in range(61)))
    worst = max(worst, abs(b2 - float(constants.B_AT_TWO)))
    ok &= _check(
        rows,
        "local sums: closed forms vs alpha<=60 series, ell <= 50",
        worst <= 1e-12,
        f"worst deviation {worst:.3e}",
    )
    g3 = constants.gallagher_sum(10**3)
    g4 = constants.gallagher_sum(10**4)
    ok &= _check(
        rows,
        "gallagher one-sided average within 2% at R=10^4",
        abs(g4.ratio - 1.0) <= 0.02,
        f"ratio={g4.ratio!r}",
    )
    ok &= _check(
        rows,
        "gallagher deviation shrinks from R=10^3 to 10^4",
        abs(g4.ratio - 1.0) < abs(g3.ratio - 1.0),
        f"{abs(g3.ratio - 1.0):.5f} -> {abs(g4.ratio - 1.0):.5f}",
    )
    ok &= _check(
        rows,
        "gallagher two-sided sum is twice the one-sided average",
        abs(g4.ratio_two_sided - 2.0) <= 0.04,
        f"two-sided ratio={g4.ratio_two_sided!r}",
    )
    return ok


def _suite_series(rows: list[dict]) -> bool:
    ok = True
    # rho(r, q) against its unit-mask count, q <= 500 outer, |r| <= 50 inner
    mismatch = None
    r_values = np.arange(-50, 51)
    for q in range(1, 501):
        a = np.arange(q)
        units = np.gcd(a, q) == 1
        count = (units & units[(a - r_values[:, None]) % q]).sum(axis=1)
        closed = np.array([twinseries.rho(r, q) for r in r_values.tolist()])
        bad = np.flatnonzero(count != closed)
        if bad.size:
            mismatch = (int(r_values[bad[0]]), q)
            break
    ok &= _check(
        rows,
        "rho closed form vs enumeration, q <= 500, |r| <= 50",
        mismatch is None,
        f"first mismatch at {mismatch}" if mismatch else "all exact",
    )
    # S(r,q,a) does not depend on a, and for even r some a is admissible
    # ((a,q) = (a-r,q) = 1), so one check per (r, q) covers every a.
    table = twinseries.singular_series_table(10**4)
    rs, qs = np.arange(2, 101, 2), np.arange(1, 101)
    via_product = table[np.outer(rs, qs)] / [phi(q) for q in qs.tolist()]
    via_rho = table[rs, None] / [[twinseries.rho(r, q) for q in qs.tolist()] for r in rs.tolist()]
    worst = float((np.abs(via_product - via_rho) / via_product).max())
    ok &= _check(
        rows,
        "singular series route equality, even r <= 100, q <= 100",
        worst <= 1e-10,
        f"worst relative deviation {worst:.3e}",
    )
    R = 10**5
    # S(r) at even r <= R, summed in ascending r
    ratio = float(np.cumsum(twinseries.singular_series_table(R)[2::2])[-1]) / R
    ok &= _check(
        rows,
        "singular series averages to 1 over r <= 10^5",
        0.9 <= ratio <= 1.1,
        f"mean = {ratio!r}",
    )
    return ok


def _suite_characters(rows: list[dict]) -> bool:
    ok = True
    worst = 0.0
    for q in (1, 2, 3, 4, 5, 8, 12, 16, 24, 45, 60, 101):
        table = characters(q)
        n_principal = int(np.count_nonzero(~table.exponents.any(axis=1)))
        ok &= _check(
            rows,
            f"exactly one principal character mod {q}",
            n_principal == 1,
            f"found {n_principal}",
        )
        gram = table.values @ table.values.conj().T
        dev = float(np.abs(gram - table.phi * np.eye(table.phi)).max())
        worst = max(worst, dev)
    ok &= _check(
        rows,
        "character orthogonality within 1e-9",
        worst <= 1e-9,
        f"worst deviation {worst:.3e}",
    )
    worst = 0.0
    for f in range(1, 201):
        table = characters(f)
        primitive = table.conductor == f
        if not primitive.any():
            continue
        mu = moebius(f)
        for r in range(-20, 21):
            got = rho_chi(r, table)[primitive]
            want = mu * table.values[primitive, r % f]
            worst = max(worst, float(np.abs(got - want).max()))
    ok &= _check(
        rows,
        "rho(r, chi) = mu(f) chi(r) for primitive chi, f <= 200",
        worst <= 1e-8,
        f"worst deviation {worst:.3e}",
    )
    return ok


# the suites `verify --suite` accepts, in the order `all` runs them
SUITES = {
    "deuring": _suite_deuring,
    "constants": _suite_constants,
    "series": _suite_series,
    "characters": _suite_characters,
}


def run_verify(suite: str) -> Report:
    """Run one named invariant suite (or `all`)."""
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    rows: list[dict] = []
    passed = True
    for name in names:
        passed &= SUITES[name](rows)
    return Report(
        name="verify",
        params={"suite": suite},
        rows=rows,
        summary={
            "checks": len(rows),
            "failures": sum(not row["passed"] for row in rows),
        },
        passed=bool(passed),
    )
