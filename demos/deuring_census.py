"""Exhaustively count curves over F_p by trace and compare with class numbers.

For every trace r with r^2 < 4p, the number of short Weierstrass models over
F_p with exactly p + 1 - r points equals (p - 1) H(r^2 - 4p), where H is the
weighted class number of the imaginary quadratic order of that discriminant.
This script prints the full comparison table for one prime.
"""

import sys

from koblitz.classnumbers import twelve_h_weighted_table
from koblitz.curves import census, pi_star, trace_grid

p = int(sys.argv[1]) if len(sys.argv) > 1 else 37
table = twelve_h_weighted_table(4 * p)

print(f"census of all y^2 = x^3 + ax + b over F_{p} ({p*p - p} nonsingular models)\n")
print(f"{'r':>4} {'order p+1-r':>12} {'count':>8} {'12*H(r^2-4p)':>13} {'(p-1)H':>8}")
ordinary_match = True
for r, count in zip(trace_grid(p).tolist(), census(p).tolist()):
    twelve = int(table[4 * p - r * r])
    expected = (p - 1) * twelve // 12
    mark = "" if expected == count else "   <-- MISMATCH"
    print(f"{r:>4} {p + 1 - r:>12} {count:>8} {twelve:>13} {expected:>8}{mark}")
    if r == 0:
        ss_count, ss_expected = count, expected
    elif expected != count:
        ordinary_match = False

print(f"\nall ordinary rows match: {ordinary_match}")
print(f"supersingular row r=0: census {ss_count}, class-number {ss_expected}")
print(f"models with a prime number of points: pi*({p}) = {pi_star(p)}")
