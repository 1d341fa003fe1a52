"""How close can f_N(x) = sum a_k frac(theta_k / x) get to -1?

For the nested unit families theta_k = 1/k, k = 1..N, the norm-minimizing
coefficients under the constraint sum a_k theta_k = 0 come from one
Cholesky factor of the Gram matrix of exact pairwise integrals. The families
are nested, so one factor at the largest N gives every row of the sweep. The
minimal norms decrease as N grows; the N = 2 optimum is the classical hand
solution a = (1, -2).
"""
import math

from beurling import (
    norm_numeric,
    optimize_coeffs,
    spec_from_solution,
    sweep,
    unit_thetas,
)

print("minimal ||f_N + 1|| over the unit families:")
rows = sweep(1, 12, tol=1e-9)
for r in rows:
    bar = "#" * round(40 * r["norm"])
    print(f"  N = {r['N']:>2}: norm = {r['norm']:.9f}  {bar}")

print("\nN = 2 exact check: the optimizer recovers a = (1, -2), whose norm is")
print("sqrt(1 - ln 2):")
res = optimize_coeffs(unit_thetas(2), tol=1e-10)
print(f"  a         = ({res['a'][0]:+.9f}, {res['a'][1]:+.9f})")
print(f"  norm      = {math.sqrt(res['norm_sq']):.12f}")
print(f"  sqrt(1-ln2) = {math.sqrt(1 - math.log(2)):.12f}")

print("\nCross-check at N = 6: rebuild an exactly admissible spec from the")
print("float solution and integrate its norm directly:")
res = optimize_coeffs(unit_thetas(6), tol=1e-9)
spec = spec_from_solution(unit_thetas(6), res["a"])
print(f"  exact constraint residual: {spec.residual_exact[0]}")
print(f"  KKT norm^2        = {res['norm_sq']:.12f}")
print(f"  quadrature norm^2 = {float(norm_numeric(spec, 1e-10))**2:.12f}")
