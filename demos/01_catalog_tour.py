"""
Tour of the built-in affine diagram catalog
===========================================

Every diagram carries its Cartan matrix, marks, comarks, squared root
lengths, and the list of special vertices.  The catalog holds the seventeen
types used by the test suite, but any valid affine type id builds.
"""

from affposet import build_affine, catalog_types, format_shift, parse_type_id, special_vertices

for tid in catalog_types():
    diagram = build_affine(tid)
    lengths = ", ".join(format_shift(v) for v in diagram.root_length_sq)
    print(f"{str(diagram):6s} vertices={diagram.n + 1}")
    print(f"       marks    {diagram.marks}")
    print(f"       comarks  {diagram.comarks}")
    print(f"       |a_i|^2  ({lengths})")
    print(f"       special  {special_vertices(diagram)}")

# the catalog is a window, not a wall: larger ranks build on demand
big = build_affine(parse_type_id("A6-1"))
print()
print(f"built outside the catalog: {big}, special vertices {special_vertices(big)}")

# marks span the kernel of the Cartan matrix on both sides
d = build_affine(parse_type_id("F4-1"))
left = [sum(d.cartan[i][j] * d.marks[j] for j in d.vertices) for i in d.vertices]
right = [sum(d.comarks[i] * d.cartan[i][j] for i in d.vertices) for j in d.vertices]
print(f"F4-1: A*marks = {left}, comarks*A = {right}")
