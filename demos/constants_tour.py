"""Tour of the Euler-product constants.

The average constant frak_C is the density factor in the expected number of
primes p for which a random curve has a prime number of points.  It has two
equivalent product forms.  Each local factor of the second comes from two
closed-form counts: |GL_2(F_ell)| and |Omega'|, the matrices g in it with
det(I - g) = 0.  Each product takes the primes ell < 50 one by one and the
rest from one stored tail per product.  The per-shift constants C_r play the
same role for the shifted problem and average back to frak_C over r.
"""

from fractions import Fraction

from koblitz.constants import (
    C_r,
    average_constant_forms,
    gallagher_sum,
    gl2_counts,
)

f1, f2 = average_constant_forms()
print(f"frak_C, product form 1 (odd primes, prefactor 2/3): {f1:.15f}")
print(f"frak_C, product form 2 (all primes):                {f2:.15f}\n")

print("local factors (1 - |Omega'|/|GL2|) / (1 - 1/ell) from the closed-form counts:")
for ell in (3, 5, 7, 11, 13):
    omega, gl2 = gl2_counts(ell)
    factor = (1 - Fraction(omega, gl2)) / (1 - Fraction(1, ell))
    print(f"  ell={ell:>2}: |GL2| = {gl2:>6}, |Omega'| = {omega:>5}, factor = {factor}")

print("\nper-shift constants (note the symmetry r <-> 2 - r):")
for r in (3, -1, 5, -3, 7, 9):
    print(f"  C_{r:<3} = {C_r(r):.9f}")

R = 10**3
g = gallagher_sum(R)
print(
    f"\naveraging C_r over odd 1 < r <= {R}: "
    f"sum / (frak_C * R) = {g.ratio:.5f}  (tends to 1)"
)
print(
    f"two-sided sum over odd |r| <= {R}, r != 1: "
    f"ratio = {g.ratio_two_sided:.5f}  (tends to 2)"
)
