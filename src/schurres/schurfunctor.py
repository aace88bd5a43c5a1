"""Symmetric-group embedding and the idempotent-truncation functor.

When n >= r the composition (1,...,1,0,...,0) singles out the multilinear
weight; 0/1 weight matrices with both marginals equal to it correspond to
permutations, and the corresponding basis elements multiply exactly like the
symmetric group.  Truncating a resolution by the multilinear idempotent
keeps precisely the tuples whose leading matrix has multilinear row sums,
because the idempotent acts on each basis tuple by 0 or 1; products keep
those row sums, so the truncation is the multilinear weight block of the
induced resolution, and it is built as that block and nothing else.

Permutations are tuples p of length r with p[t-1] = image of t; products
compose right factor first.
"""

from itertools import permutations as _permutations

from .barcomplex import build_weyl_resolution


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


def truncated_resolution(lam):
    """The truncated complex: the multilinear weight block of the induced
    resolution, delta = (1^r, 0^(n-r)) with n = len(lam).  Only tuples whose
    leading matrix has row sums delta are enumerated, and the differential
    is assembled on them alone, never on the ambient resolution (whose
    ranks dwarf it)."""
    lam = tuple(lam)
    return build_weyl_resolution(lam, multilinear_weight(len(lam), sum(lam)))
