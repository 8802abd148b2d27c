"""
Brute force against theory
==========================

The oracle searches a whole window of root offsets for the extremal
dominant results; it never consults the classification.  ``verify_covering``
replays the classified cocovers, the candidate-set membership, the delta
test, and meet/join against that search and reports every disagreement.
"""

import json

from affposet import build_affine, parse_type_id
from affposet.covering import cocovers
from affposet.oracle import brute_bounds, brute_cocovers, verify_covering
from affposet.weights import join, labels, meet, weight_from_labels

d = build_affine(parse_type_id("A4-1"))
lam = weight_from_labels(d, (1, 1, 1, 1, 0))

bc = brute_cocovers(lam)
print(f"brute cocovers of {tuple(int(v) for v in labels(lam))}:")
for w, diff in zip(bc.cocovers, bc.differences):
    print(f"  {tuple(int(v) for v in labels(w))} via {diff.coeffs}")
theory = {e.lower for e in cocovers(lam)}
print(f"matches the classification: {set(bc.cocovers) == theory}")

d2 = build_affine(parse_type_id("A2-1"))
a = weight_from_labels(d2, (0, 3, 0))
b = weight_from_labels(d2, (0, 0, 3))
bb = brute_bounds(a, b)
print(f"\nbrute glb == meet: {bb.glb == meet(a, b)}")
print(f"brute lub == join: {bb.lub == join(a, b)}")
print(f"glb {bb.glb}, lub {bb.lub}")

# a short seeded run over one type; mismatches would be listed in full
report = verify_covering("D4-3", levels=(1, 2), samples_per_level=30, seed=5)
print()
print(json.dumps(report.to_json(), indent=2, sort_keys=True))
print(f"elapsed {report.elapsed:.2f}s")
