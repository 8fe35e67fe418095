"""Tour of the Euler-product constants.

The average constant frak_C is the density factor in the expected number of
primes p for which a random curve has a prime number of points.  It has two
equivalent product forms; each local factor can also be recovered by brute
force over GL_2(F_ell).  Each product takes the primes ell <= 50 one by one
and the rest from values of zeta, so every digit printed is exact.  The
per-shift constants C_r play the same role for the shifted problem and
average back to frak_C over r.
"""

from koblitz.constants import (
    C_r,
    average_constant_forms,
    gallagher_sum,
    gl2_count,
)

f1, f2 = average_constant_forms()
print(f"frak_C, product form 1 (odd primes, prefactor 2/3): {f1:.15f}")
print(f"frak_C, product form 2 (all primes):                {f2:.15f}\n")

print("local factors recovered by GL2 enumeration:")
for ell in (3, 5, 7, 11, 13):
    led = gl2_count(ell)
    print(
        f"  ell={ell:>2}: |GL2| = {led.gl2_order:>6}, "
        f"|Omega'| = {led.omega_prime_count:>5}, factor = {led.factor}"
    )

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
