"""From Weyl-module resolutions to permutation-module resolutions of
co-Specht modules.

Truncating the induced resolution by the multilinear idempotent lands in
symmetric-group territory; the result coincides, matrix by matrix, with the
Boltje-Hartmann complex, built from homomorphisms between permutation
modules whose bases are words, never from structure constants.  The degree-0
cokernel is the co-Specht module, free of standard-tableau rank.
"""

from schurres import (
    build_bh_complex,
    compare_with_schur_functor,
    enumerate_partitions,
    smith_normal_form,
    standard_tableau_count,
    tableau_hom,
    truncated_resolution,
)

print("the homomorphism attached to the one-row tableau 1 2 collapses the")
print("two tableaux of column shape:", tableau_hom(((1, 1), (0, 0))).rows, "\n")

r = 4
for lam in enumerate_partitions(r, r):
    fb = truncated_resolution(lam)
    bh = build_bh_complex(lam)
    report = compare_with_schur_functor(lam, fb=fb, bh=bh)
    d1 = bh.differential(1)
    snf = smith_normal_form(d1)
    print(f"lambda = {lam}")
    print(f"    ranks {[bh.rank(k) for k in bh.degrees()]}")
    print(f"    complexes agree entrywise: {report.ok}")
    print(f"    co-Specht rank {bh.rank(0) - snf.rank} "
          f"(standard tableaux: {standard_tableau_count(lam)})")
    print()
