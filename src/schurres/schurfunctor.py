"""Symmetric-group embedding and the idempotent-truncation functor.

When n >= r the composition (1,...,1,0,...,0) singles out the multilinear
weight; 0/1 weight matrices with both marginals equal to it correspond to
permutations, and the corresponding basis elements multiply exactly like the
symmetric group.  Truncating a resolution by the multilinear idempotent
keeps precisely the tuples whose leading matrix has multilinear row sums,
because the idempotent acts on each basis tuple by 0 or 1.

Permutations are tuples p of length r with p[t-1] = image of t; products
compose right factor first.
"""

from itertools import permutations as _permutations

from .barcomplex import build_weyl_resolution
from .combinatorics import matrix_marginal
from .complexes import ChainComplex


def multilinear_weight(n, r):
    """The composition with r leading ones; requires n >= r."""
    if n < r:
        raise ValueError("the multilinear weight needs n >= r")
    return (1,) * r + (0,) * (n - r)


def compose_permutations(a, b):
    """(a * b)(t) = a(b(t)): apply b first."""
    if len(a) != len(b):
        raise ValueError("permutation size mismatch")
    return tuple(a[b[t] - 1] for t in range(len(a)))


def all_permutations(r):
    return tuple(_permutations(range(1, r + 1)))


def permutation_weight_matrix(sigma, n):
    """0/1 weight matrix with entry (s, t) = 1 exactly when s = sigma(t)."""
    r = len(sigma)
    if n < r:
        raise ValueError("matrix size must be at least the permutation degree")
    m = [[0] * n for _ in range(n)]
    for t in range(r):
        m[sigma[t] - 1][t] = 1
    return tuple(tuple(row) for row in m)


def weight_matrix_permutation(omega):
    """Inverse of permutation_weight_matrix; both marginals must be
    multilinear."""
    n = len(omega)
    col = matrix_marginal(omega, 1)
    row = matrix_marginal(omega, 2)
    r = sum(col)
    delta = multilinear_weight(n, r) if n >= r else None
    if delta is None or col != delta or row != delta:
        raise ValueError("marginals are not the multilinear weight")
    images = []
    for t in range(r):
        images.append(next(s + 1 for s in range(n) if omega[s][t] == 1))
    return tuple(images)


def apply_schur_functor(cx):
    """Truncate an induced resolution by the multilinear idempotent.

    Keeps the degree-k tuples whose leading matrix has multilinear row sums
    and restricts every differential to the kept rows and columns.  The
    restriction loses nothing: products never change the leading row sums,
    so differentials map the kept span into itself.
    """
    if cx.meta.get("variant") != "weyl":
        raise ValueError("the functor applies to induced (weyl) resolutions")
    n, r = cx.meta["n"], cx.meta["r"]
    delta = multilinear_weight(n, r)
    kept = {k: [i for i, tup in enumerate(cx.labels[k])
                if matrix_marginal(tup[0], 2) == delta]
            for k in cx.degrees()}
    labels = {k: tuple(cx.labels[k][i] for i in kept[k]) for k in cx.degrees()}
    diffs = {k: cx.differentials[k].submatrix(kept[k - 1], kept[k])
             for k in cx.differentials}
    out = ChainComplex(labels, diffs, meta={**cx.meta, "variant": "schur-functor"})
    out.check_complex()
    return out


def truncated_resolution(lam):
    """The same truncated complex, built as the multilinear weight block of
    the induced resolution: only tuples whose leading matrix has row sums
    delta = (1^r, 0^(n-r)) are enumerated, and the differential is assembled
    on them alone, never on the ambient resolution (whose ranks dwarf it)."""
    lam = tuple(lam)
    cx = build_weyl_resolution(lam, multilinear_weight(len(lam), sum(lam)))
    return ChainComplex(cx.labels, cx.differentials,
                        meta={**cx.meta, "variant": "schur-functor"})
