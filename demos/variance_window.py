"""Mean-square dispersion of twin counts across residue classes.

For each shift r, modulus q <= Q, and class a, compare the window sum psi to
its singular-series prediction, square the error, and sum.  Normalized by
R * x^2 the statistic shrinks as the window grows, which is the desk-scale
face of the variance bound.
"""

from koblitz.harness import run_bdh

R, Q = 10**3, 10
print(f"dispersion statistic with R = {R}, Q = {Q}, window (0, Y]:\n")
print(f"{'Y':>8} {'S':>16} {'S/(R x^2)':>12} {'single-class':>14}")
for y in (5 * 10**4, 10**5, 2 * 10**5):
    rep, _ = run_bdh(R, Q, 0, y)
    s = rep.summary
    print(
        f"{y:>8} {s['S']:>16.1f} {s['normalized']:>12.3e} "
        f"{s['single_class_statistic']:>14.3e}"
    )
print("\nboth normalized columns decrease as the window doubles.")
