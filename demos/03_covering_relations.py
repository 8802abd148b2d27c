"""
Covering relations, case by case
================================

Each cover edge carries the root by which the weights differ, the kind of
that root, and a one-letter case tag from the classification.  The rank one
twisted diagram contributes an exceptional cover along the sum over its
quadruple bond, and delta itself covers exactly the near-fundamental
weights.
"""

from affposet import build_affine, parse_type_id
from affposet.covering import cocovers, covers, is_delta_cocover
from affposet.weights import delta_shift, labels, weight_from_labels


def show(weight):
    labs = labels(weight)
    print(f"{weight.diagram} {labs}:")
    for edge in cocovers(weight):
        lower = labels(edge.lower)
        print(
            f"  case {edge.case} ({edge.kind.value:11s}) "
            f"root {edge.root.coeffs} -> {lower}"
        )


show(weight_from_labels(build_affine(parse_type_id("A3-1")), (0, 2, 1, 1)))
show(weight_from_labels(build_affine(parse_type_id("G2-1")), (1, 0, 0)))
show(weight_from_labels(build_affine(parse_type_id("D4-3")), (0, 1, 0)))

# the quadruple bond case: a cover difference with full support
a22 = build_affine(parse_type_id("A2-2"))
show(weight_from_labels(a22, (2, 0)))
show(weight_from_labels(a22, (0, 1)))

# covers run the same classification upward
w = weight_from_labels(a22, (2, 0))
for edge in covers(w):
    shift = delta_shift(edge.upper) - delta_shift(w)
    print(f"above {w}: case {edge.case} to {labels(edge.upper)} at shift +{shift}")

# delta covers fundamental-like weights only
d = build_affine(parse_type_id("A2-1"))
for labs in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)):
    w = weight_from_labels(d, labs)
    print(f"delta covers {labs}? {is_delta_cocover(w)}")
