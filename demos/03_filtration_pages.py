"""One filtered piece of the pencil complex, page by page.

Fixing the difference k between standard and super degree and the count of
even factors cuts the complex down to finite pieces, so every page of the
jet-order filtration is an exact linear algebra computation.  The piece
below carries the one interesting page-one differential: it kills the
first-jet family and leaves the three-theta family as the limit.
"""

from kdvcohom import (
    HomotopySingularityError,
    Window,
    collapse_at,
    converge_check,
    d1_explicit,
    filtration_level,
    format_poly,
    h_op,
    homology_at,
    page,
    page_dr_matrix,
    pencil_filtered_slice,
    poly,
)

fs = pencil_filtered_slice(k=1, c=2)
print("piece k=1 c=2, standard degrees", list(fs.degrees))
for n in fs.degrees:
    names = [m.format() or "1" for m in fs.basis(n).monomials]
    print(f"  degree {n}: dim {fs.dim(n)}, levels {list(fs.levels(n))}")
    print(f"    basis: {', '.join(names)}")

# -- page one ------------------------------------------------------------------

print("page-one dimensions by (level, complement):")
for n in fs.degrees:
    for p in range(fs.min_level(), fs.max_level() + 1):
        entry = page(fs, 1, p, n - p)
        if entry.dim:
            reps = [format_poly(x) for x in entry.rep_polys()]
            print(f"  E1({p},{n - p}) dim {entry.dim}: {', '.join(reps)}")

src, dst, cols = page_dr_matrix(fs, 1, 1, 2)
print("the page-one differential out of (1,2):", cols)
x = src.rep_polys()[0]
print("  matches the closed formula:",
      format_poly(d1_explicit(x, 2)))

# -- page two is already the limit ----------------------------------------------

print("collapse index of this piece:", collapse_at(fs))
for n, (total, h, ok) in converge_check(fs).items():
    print(f"  degree {n}: limit page total {total}, homology {h}, agree {ok}")
print("exact homology at degree 3:", tuple(homology_at(fs, 3)))

# -- the contracting homotopy ----------------------------------------------------

# away from position (1,2) the weighted homotopy inverts page one exactly;
# a model element at position (2,3) is a cofactor of degree 2 with top jet
# exactly 2 times t0 t3
y = poly("u2 t0 t3")
lhs = h_op(d1_explicit(y, 3), 3, 3) + d1_explicit(h_op(y, 2, 3), 3)
print("homotopy identity on", format_poly(y), ":",
      format_poly(lhs - y) or "0", "== 0")

# position (1,2) is refused outright: that is where the classes live
try:
    h_op(poly("u1 t0 t2"), 1, 2)
except HomotopySingularityError as exc:
    print("homotopy refused at (1,2):", exc)

print("filtration level of u1 t0 t2:",
      filtration_level(poly("u1 t0 t2")))
