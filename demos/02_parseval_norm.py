"""One norm, three estimators.

||F||^2 on L2(0, 1] is computed (a) by certified quadrature through the
periodic u = 1/x engine, (b) from the Fourier coefficients via
||F||^2 = (1/2) sum |c(n)|^2 with a Bessel-certain lower bracket, and for
this particular spec (c) against the closed form 1 - ln 2.
"""
import math
from fractions import Fraction

from beurling import BeurlingSpec, norm_numeric, norm_via_parseval

spec = BeurlingSpec([(1, 1), (-2, Fraction(1, 2))])
print("spec: F(x) = 1 + frac(1/x) - 2 frac(1/(2x))")

truth = math.sqrt(1 - math.log(2))
quad = float(norm_numeric(spec, 1e-14))
print(f"\nclosed form        sqrt(1 - ln 2) = {truth:.15f}")
print(f"certified quadrature               = {quad:.15f}   (|diff| = {abs(quad - truth):.2e})")

for n_max in (100, 1000, 10_000):
    rec = norm_via_parseval(spec, n_max=n_max)
    lo, hi, point = rec["norm_lo"], rec["norm_hi"], rec["norm"]
    inside = "yes" if lo <= truth <= hi else "NO"
    print(f"Parseval n_max={n_max:>6}: [{lo:.9f}, {hi:.9f}]  point {point:.9f}"
          f"  truth inside: {inside}")

print("\nThe lower edge is a theorem (Bessel); the upper edge adds the")
print("1/n-decay tail estimate, which is reported as an estimate, never")
print("as a certificate.")
