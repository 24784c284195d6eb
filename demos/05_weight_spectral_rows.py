"""The combinatorial rows of the weight spectral sequence.

Run:  python3 demos/05_weight_spectral_rows.py
"""

from k3motive import (
    SpectralRow,
    boundary_rows,
    build_type2_chain,
    build_type3,
    e1_page,
    e2_report,
    monodromy_gram,
    type2_h1_row,
)

# First page of a chain fiber, assembled from strata Betti numbers.
chain = build_type2_chain(2)
page = e1_page(chain)
print("nonzero E_1 positions:", page.positions())
print("rank at (0, 1):", page.rank(0, 1))
print("alternating total:", page.total_alternating_rank())

# The stratum-degree 0 and 4 rows are the simplicial (co)chain complexes
# of the dual complex; their cohomology is that of an interval.
cochain, chain_row = boundary_rows(chain)
print("\ncochain modules:", cochain.modules)
print("cohomology:", e2_report([cochain])[0])

# The explicit H^1 row of a chain with m = 3 double curves: the monodromy
# composition is 3 * Id on a rank-2 module, with cokernel of order 9.
d1, d3, n, r1 = type2_h1_row(3)
print("\nincoming differential shape:", d1.shape)
print("N =", n.tolist(), " r1 =", r1)

# e2_report flags torsion in user-supplied middle rows: a differential
# [[2]] between rank-1 modules has cohomology Z/2, which would obstruct
# integral degeneration at the second page.  A differential is given by its
# nonzero entries {row: {col: value}}, the sparse engine's own input.
row = SpectralRow(q=2, modules=(1, 1), differentials=({0: {0: 2}},))
print("\nuser row report:", e2_report([row])[0])

# For sphere fibers, the coefficient pairing on top homology is the
# monodromy Gram matrix; its determinant is the discriminant r2.
mg = monodromy_gram(build_type3("icosahedron"))
print("\nicosahedron gram:", mg.gram.tolist(), " r2 =", mg.r_d)
