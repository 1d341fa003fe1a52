"""The precision substrate: exact Bernoulli numbers, zeta at even integers,
zeta on the critical strip, and values that remember their precision.

Every mp result of the package is a PrecisionReal or PrecisionComplex: a
plain record of the mp value and its precision in bits. It does no
arithmetic (compute on .value), and its high-precision digits survive
serialization through hi_str(). Results computed in doubles are floats.
"""
from fractions import Fraction

from beurling import PrecisionReal, bernoulli, zeta_complex, zeta_even

print("Bernoulli numbers are exact rationals from the ladder recurrence:")
for m in (0, 1, 2, 8, 12):
    print(f"  B_{m:<2} = {bernoulli(m)}")
assert bernoulli(12) == Fraction(-691, 2730)

print("\nzeta(2l) = closed form via Bernoulli numbers, at any precision:")
for l, closed in ((1, "pi^2/6"), (2, "pi^4/90"), (3, "pi^6/945")):
    zv = zeta_even(l, 192)
    print(f"  zeta({2*l}) = {zv.hi_str()[:45]}...  ({closed}, 192 bits)")

print("\nzeta(s) for complex s, certified to a requested tolerance:")
z = zeta_complex(complex(0.5, 14.134725141734693), 1e-18)
mag = abs(complex(z))
print(f"  |zeta(1/2 + 14.1347251417...i)| = {mag:.3e}")
print("  (tiny: that height is the first zero on the critical line)")

print("\nPrecisionReal keeps its digits through round-trips:")
x = PrecisionReal.from_str("0.0887664832879433908818962083385", 128)
print(f"  stored at {x.precision_bits} bits")
print(f"  float(x)  = {float(x)!r}   (53-bit shadow)")
print(f"  hi_str()  = {x.hi_str()}")
y = PrecisionReal.from_str(x.hi_str(), 128)
print(f"  round-trip equal: {y.hi_str() == x.hi_str()}")
