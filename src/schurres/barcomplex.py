"""Reduced bar resolutions over the Borel subalgebra and their induction.

Basis elements in degree k are tuples (w0, w1, ..., wk) of weight matrices:
w1..wk are upper triangular of filtration degree >= 1, consecutive matrices
are chained by "column sums of the left = row sums of the right", and the
column sums of wk equal the resolved composition.  The Borel variant also
requires w0 upper triangular; the induced (full) variant lets w0 range over
all weight matrices.

The differential is the alternating sum over adjacent positions of the
algebra product, re-expanded in the lower-degree tuple basis.  The Borel
variant carries an explicit contracting homotopy: prepend the diagonal
idempotent matching the row sums of w0, killing tuples whose w0 is already
diagonal.
"""

from functools import lru_cache

from .combinatorics import (
    diagonal_matrix,
    enumerate_weight_matrices,
    is_diagonal,
    matrix_marginal,
    max_chain_length,
)
from .complexes import ChainComplex, Matrix
from .schur import structure_constants

VARIANTS = ("borel", "full")


def _normalize(lam):
    lam = tuple(lam)
    if any(v < 0 for v in lam):
        raise ValueError("composition parts must be non-negative")
    return lam


@lru_cache(maxsize=None)
def _bar_basis(lam, k, variant, nu):
    n, r = len(lam), sum(lam)
    upper = variant == "borel"
    if k == 0:
        heads = enumerate_weight_matrices(n, r, col_sums=lam, row_sums=nu,
                                          upper_triangular=upper)
        return tuple((w0,) for w0 in heads)
    tails = []

    def extend(suffix, top):
        # suffix is (w_j, ..., w_k); top must equal its leading row sums
        if len(suffix) == k:
            tails.append(suffix)
            return
        for w in enumerate_weight_matrices(n, r, col_sums=top, min_degree=1):
            extend((w,) + suffix, matrix_marginal(w, 2))

    for wk in enumerate_weight_matrices(n, r, col_sums=lam, min_degree=1):
        extend((wk,), matrix_marginal(wk, 2))
    tuples = []
    for tail in tails:
        mu = matrix_marginal(tail[0], 2)
        for w0 in enumerate_weight_matrices(n, r, col_sums=mu, row_sums=nu,
                                            upper_triangular=upper):
            tuples.append((w0,) + tail)
    # tuples of equally sized matrices compare like their row-major flattenings
    return tuple(sorted(tuples, reverse=True))


def _basis(lam, k, variant, nu):
    # differential reads its bases here, so that a trace of
    # enumerate_bar_basis counts each basis a builder asks for once
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if k < 0:
        raise ValueError("degree must be non-negative")
    lam = _normalize(lam)
    if nu is not None:
        nu = tuple(nu)
    if k >= max_chain_length(len(lam), sum(lam)):
        return ()
    return _bar_basis(lam, k, variant, nu)


def enumerate_bar_basis(lam, k, variant="borel", nu=None):
    """Degree-k tuple basis, canonical order; empty above the chain bound.

    With nu, only the weight block: the tuples whose leading matrix has row
    sums nu, in the order they have in the whole basis.
    """
    return _basis(lam, k, variant, nu)


def differential(lam, k, variant="borel", nu=None):
    """Matrix of the degree-k differential (k >= 1) on tuple bases.

    Products keep the row sums of the left factor, so the differential
    preserves the leading row sums; with nu it is the diagonal block of the
    whole differential on the nu weight block.
    """
    if k < 1:
        raise ValueError("the tuple differential starts at degree 1")
    cur = _basis(lam, k, variant, nu)
    prev = _basis(lam, k - 1, variant, nu)
    index = {lab: i for i, lab in enumerate(prev)}
    columns = []
    for tup in cur:
        col = {}
        for t in range(k):
            sign = -1 if t % 2 else 1
            for key, c in structure_constants(tup[t], tup[t + 1]):
                i = index[tup[:t] + (key,) + tup[t + 2:]]
                col[i] = col.get(i, 0) + sign * c
        columns.append(col)
    return Matrix.from_columns(len(prev), columns)


def augmentation_row(lam):
    """Borel degree-0 differential onto the rank-one module: a tuple maps to
    1 exactly when its matrix is the diagonal of the resolved composition."""
    lam = _normalize(lam)
    basis = enumerate_bar_basis(lam, 0, "borel")
    target = diagonal_matrix(lam)
    return Matrix.from_columns(1, [{0: 1} if w0 == target else {} for (w0,) in basis])


def homotopy(lam, k):
    """Borel contracting homotopy from degree k to degree k + 1 (k >= -1)."""
    lam = _normalize(lam)
    nxt = enumerate_bar_basis(lam, k + 1, "borel")
    index = {lab: i for i, lab in enumerate(nxt)}
    if k == -1:
        return Matrix.from_columns(len(nxt), [{index[(diagonal_matrix(lam),)]: 1}])
    columns = []
    for tup in enumerate_bar_basis(lam, k, "borel"):
        w0 = tup[0]
        if is_diagonal(w0):
            columns.append({})
        else:
            columns.append({index[(diagonal_matrix(matrix_marginal(w0, 2)),) + tup]: 1})
    return Matrix.from_columns(len(nxt), columns)


def _bases(lam, variant, nu=None):
    """Bases of every nonempty degree; the first empty degree ends them."""
    labels = {}
    k = 0
    while basis := enumerate_bar_basis(lam, k, variant, nu):
        labels[k] = basis
        k += 1
    return labels


def build_borel_resolution(lam):
    """Augmented bar resolution of the rank-one module over the Borel
    subalgebra, with differentials and contracting homotopies."""
    lam = _normalize(lam)
    labels = {-1: ((),), **_bases(lam, "borel")}
    hi = max(labels)
    diffs = {0: augmentation_row(lam)}
    for k in range(1, hi + 1):
        diffs[k] = differential(lam, k, "borel")
    homotopies = {k: homotopy(lam, k) for k in range(-1, hi)}
    cx = ChainComplex(labels, diffs, homotopies)
    cx.check_complex()
    return cx


def build_weyl_resolution(lam, nu=None):
    """Induced resolution over the full algebra, degrees >= 0.

    The resolved module is not given a stored basis; it is the degree-0
    cokernel, with exactness guaranteed when the composition is a partition.
    With nu, only the nu weight block, a direct summand of the complex.
    """
    lam = _normalize(lam)
    labels = _bases(lam, "full", nu)
    diffs = {k: differential(lam, k, "full", nu) for k in range(1, max(labels) + 1)}
    cx = ChainComplex(labels, diffs)
    cx.check_complex()
    return cx

