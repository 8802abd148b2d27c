"""
Dominant weights and the lattice operations
===========================================

Weights are stored exactly: integer labels plus a Fraction delta shift, with
the coefficients over the simple roots derived from them.  Two weights of the same
level whose difference lies in the root lattice sit in one connected
component of the dominance order, and every component is a lattice: the
meet is the coefficientwise minimum and the join repairs the maximum.
"""

from affposet import build_affine, parse_type_id
from affposet.weights import (
    delta_shift,
    dominance_leq,
    fundamental_weight,
    join,
    labels,
    meet,
    weight_from_labels,
)

d = build_affine(parse_type_id("A2-1"))

omega = fundamental_weight(d, 1)
print(f"fundamental weight 1 of {d}: labels {labels(omega)}, level {omega.m}")
print(f"coefficients over the simple roots: {omega.coeffs}")

a = weight_from_labels(d, (0, 3, 0))
b = weight_from_labels(d, (0, 0, 3))
print(f"\na = {a}")
print(f"b = {b}")
print(f"comparable? {dominance_leq(a, b) or dominance_leq(b, a)}")

lo = meet(a, b)
hi = join(a, b)
print(f"meet labels {labels(lo)}, shift {delta_shift(lo)}")
print(f"join labels {labels(hi)}, shift {delta_shift(hi)}")

# absorption closes the loop
print(f"join(a, meet(a, b)) == a: {join(a, lo) == a}")
print(f"meet(a, join(a, b)) == a: {meet(a, hi) == a}")

# shifting down by delta moves inside the same component
lower = weight_from_labels(d, (0, 3, 0), -2)
print(f"\na shifted by -2 delta lies below a: {dominance_leq(lower, a)}")
print(f"its meet with b: {meet(lower, b)}")
