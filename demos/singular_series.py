"""Twin-prime singular series and its empirical counterpart.

S(r) predicts the density of prime pairs (p, p - r); restricted to an
arithmetic progression a mod q it rescales by 1/rho(r, q).  The log-weighted
window sum psi should track S(r, q, a) * Y.  S(r) comes from one table over
r <= 30, and psi and S(r, q, a) * Y from one dispersion grid over every
shift |r| <= 6 and class a mod q <= 5.
"""

from koblitz.twinseries import TwinWindow, bdh_statistic, rho, singular_series_table

table = singular_series_table(30)
print("singular series at small even shifts:")
for r in (2, 4, 6, 8, 10, 12, 30):
    print(f"  S({r:>2}) = {table[r]:.6f}")
print("  (odd shifts give 0; powers of 2 do not change the value)\n")

print("admissible residue counts rho(r, q):")
for r, q in ((2, 3), (3, 3), (2, 15), (6, 35)):
    print(f"  rho({r}, {q:>2}) = {rho(r, q)}")

print("\npsi vs S(r,q,a) * Y over the window (10^5, 2*10^5]:")
w = TwinWindow(X=10**5, Y=10**5)
grid = bdh_statistic(6, 5, w)
rows = grid.r_values.tolist()
cols = list(zip(grid.q_col.tolist(), grid.a_col.tolist()))
for r, q, a in ((2, 1, 0), (4, 1, 0), (2, 3, 1), (6, 5, 2)):
    i, j = rows.index(r), cols.index((q, a))
    got, want = grid.psi[i, j], grid.expected[i, j]
    print(f"  r={r}, q={q}, a={a}:  psi = {got:>12.1f}   predicted = {want:>12.1f}")
