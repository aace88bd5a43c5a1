"""Universal resolutions of Weyl modules by induced projectives.

Inducing the Borel bar resolution up to the full Schur algebra yields a
finite complex of free modules whose degree-0 cokernel is the Weyl module.
Exactness is verified over the integers by Smith normal form, the rank of
the cokernel against an independent semistandard-tableau enumeration, and
the homology over F_p, which follows from that over Z by universal
coefficients.
"""

from schurres import (
    build_weyl_resolution,
    enumerate_partitions,
    homology,
    semistandard_tableau_count,
    verify_exactness,
)

n, r = 3, 4
print(f"Weyl-module resolutions for all partitions of {r} into at most {n} parts\n")
for lam in enumerate_partitions(n, r):
    cx = build_weyl_resolution(lam)
    ranks = [cx.rank(k) for k in cx.degrees()]
    report = verify_exactness(cx, list(range(1, cx.hi + 1)))
    h0 = homology(cx, 0)
    ssyt = semistandard_tableau_count(lam, n)
    print(f"lambda = {lam}")
    print(f"    ranks {ranks}, exact in degrees >= 1: {report.ok}")
    print(f"    H_0 = {h0}, semistandard tableaux with entries <= {n}: {ssyt}")
    euler = sum((-1) ** (k % 2) * cx.rank(k) for k in cx.degrees())
    print(f"    euler characteristic {euler}")
    for p in (2, 3, 5):
        fine = all(homology(cx, k, p=p).is_trivial for k in range(1, cx.hi + 1))
        fine = fine and homology(cx, 0, p=p).free_rank == h0.free_rank
        print(f"    mod {p}: exactness and rank preserved: {fine}")
    print()
