"""The reduced bar resolution of a rank-one module over the Borel
subalgebra, with its explicit contracting homotopy.

Every differential and homotopy is an integer matrix on the canonical tuple
basis; the homotopy identities certify exactness without any rank
computation, and the Smith-form route confirms it independently.
"""

from schurres import (
    Matrix,
    build_borel_resolution,
    enumerate_bar_basis,
    verify_exactness,
)

lam = (1, 1)
print(f"Resolving the rank-one module of {lam} over the Borel subalgebra\n")

for k in (0, 1, 2):
    basis = enumerate_bar_basis(lam, k, "borel")
    print(f"degree {k}: {len(basis)} tuples")
    for tup in basis:
        print("   ", " | ".join(str(m) for m in tup))

cx = build_borel_resolution(lam)
print("\naugmented ranks by degree:",
      {k: cx.rank(k) for k in cx.degrees()})
print("augmentation row:", cx.differential(0).rows)
print("d_1:", cx.differential(1).rows)
print("s_-1:", cx.homotopy(-1).rows)
print("s_0:", cx.homotopy(0).rows)

print("\nhomotopy identities d s + s d = id, degree by degree:")
print("    degree -1:", cx.differential(0) @ cx.homotopy(-1) == Matrix.identity(1))
for k in range(0, cx.hi + 1):
    lhs = cx.differential(k + 1) @ cx.homotopy(k) + cx.homotopy(k - 1) @ cx.differential(k)
    print(f"    degree {k}:", lhs == Matrix.identity(cx.rank(k)))

report = verify_exactness(cx)
print("\nSmith-form cross-check, homology by degree:")
for k, group, ok in report.entries:
    print(f"    H_{k} = {group}  ({'exact' if ok else 'NOT exact'})")
euler = sum((-1) ** (k % 2) * cx.rank(k) for k in cx.degrees())
print("euler characteristic of the augmented complex:", euler)
