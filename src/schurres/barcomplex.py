"""Reduced bar resolutions over the Borel subalgebra and their induction.

Basis elements in degree k are tuples (w0, w1, ..., wk) of weight matrices:
w1..wk are upper triangular of filtration degree >= 1, consecutive matrices
are chained by "column sums of the left = row sums of the right", and the
column sums of wk equal the resolved composition.  The Borel variant also
requires w0 upper triangular; the induced (full) variant lets w0 range over
all weight matrices.

Bases are in canonical order (descending on the row-major entries), built
rather than sorted.  A tuple compares by its first matrix, then by the
rest, so the tails (w1, ..., wk) are grown leftwards from (), one matrix a
round, and kept in one descending list per row sums of their first matrix:
a round sorts the new first matrices of each row sums and puts each before
every tail of the list that its column sums name.  The heads w0, sorted all
together, go in front the same way.  Only matrices are sorted, never labels.

The differential is the alternating sum over adjacent positions of the
algebra product, re-expanded in the lower-degree tuple basis: it is
`complexes.alternating_differential` with the structure constants as both
its head and its tail product.  A builder enumerates each degree's basis once, through
`complexes.bases`, and hands the bases to the differentials and homotopies;
bases are not cached, so a dropped complex frees them, and d o d is left
to the code that judges the complex.  The Borel variant carries an explicit
contracting homotopy: prepend the diagonal idempotent matching the row sums
of w0, killing tuples whose w0 is already diagonal.
"""

from .combinatorics import (
    diagonal_matrix,
    enumerate_weight_matrices,
    is_diagonal,
    matrix_marginal,
    max_chain_length,
)
from .complexes import ChainComplex, Matrix, alternating_differential, bases
from .schur import structure_constants

VARIANTS = ("borel", "full")


def _normalize(lam):
    lam = tuple(lam)
    if any(v < 0 for v in lam):
        raise ValueError("composition parts must be non-negative")
    return lam


def enumerate_bar_basis(lam, k, variant="borel", nu=None):
    """Degree-k tuple basis, canonical order; empty above the chain bound.

    With nu, a composition of r into n parts, only the weight block: the
    tuples whose leading matrix has row sums nu, in their whole-basis order.
    The order is built, not sorted (see the module docstring): the tails
    are kept per row sums of their first matrix, and only matrices are sorted.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if k < 0:
        raise ValueError("degree must be non-negative")
    lam = _normalize(lam)
    n, r = len(lam), sum(lam)
    if nu is not None:
        nu = tuple(nu)
        if len(nu) != n or sum(nu) != r or any(v < 0 for v in nu):
            raise ValueError(f"weight {nu} is not a composition of {r} into {n} parts")
    if k >= max_chain_length(n, r):
        return ()
    tails = {lam: [()]}
    for _ in range(k):
        # the new first matrices by their row sums, each with its column sums
        firsts = {}
        for mu in tails:
            for w in enumerate_weight_matrices(n, r, col_sums=mu, min_degree=1):
                firsts.setdefault(matrix_marginal(w, 2), []).append((w, mu))
        tails = {rows: [(w,) + tail for w, mu in sorted(ws, reverse=True) for tail in tails[mu]]
                 for rows, ws in firsts.items()}
    heads = sorted(((w0, mu) for mu in tails
                    for w0 in enumerate_weight_matrices(n, r, col_sums=mu, row_sums=nu,
                                                        upper_triangular=variant == "borel")),
                   reverse=True)
    return tuple((w0,) + tail for w0, mu in heads for tail in tails[mu])


def differential(cur, prev):
    """Matrix of the differential from the tuple basis cur of a degree
    k >= 1 to the basis prev of degree k - 1.

    Products keep the row sums of the left factor, so the differential
    preserves the leading row sums; on the bases of a weight block it is the
    diagonal block of the whole differential on that block.
    """
    return alternating_differential(cur, prev, structure_constants, structure_constants)


def augmentation_row(basis0):
    """Borel degree-0 differential onto the rank-one module: a tuple of the
    degree-0 basis maps to 1 exactly when its matrix is diagonal, that is,
    the diagonal of the resolved composition."""
    return Matrix.from_columns(1, [{0: 1} if is_diagonal(w0) else {} for (w0,) in basis0])


def homotopy(cur, nxt):
    """Borel contracting homotopy from the basis cur of a degree k >= -1 to
    the basis nxt of degree k + 1; the degree -1 basis is ((),).

    A tuple whose leading matrix is not diagonal gains in front the diagonal
    matrix of that leading matrix's row sums; a tuple whose leading matrix
    is diagonal maps to zero.  The generator () of degree -1 maps to the
    degree-0 tuple whose matrix is diagonal.
    """
    index = {lab: i for i, lab in enumerate(nxt)}
    columns = []
    for tup in cur:
        if not tup:
            columns.append({i: 1 for i, (w0,) in enumerate(nxt) if is_diagonal(w0)})
        elif is_diagonal(tup[0]):
            columns.append({})
        else:
            columns.append({index[(diagonal_matrix(matrix_marginal(tup[0], 2)),) + tup]: 1})
    return Matrix.from_columns(len(nxt), columns)


def build_borel_resolution(lam):
    """Augmented bar resolution of the rank-one module over the Borel
    subalgebra, with differentials and contracting homotopies."""
    lam = _normalize(lam)
    labels = {-1: ((),), **bases(lambda k: enumerate_bar_basis(lam, k, "borel"))}
    hi = max(labels)
    diffs = {0: augmentation_row(labels[0])}
    for k in range(1, hi + 1):
        diffs[k] = differential(labels[k], labels[k - 1])
    homotopies = {k: homotopy(labels[k], labels[k + 1]) for k in range(-1, hi)}
    return ChainComplex(labels, diffs, homotopies)


def build_weyl_resolution(lam, nu=None):
    """Induced resolution over the full algebra, degrees >= 0.

    The resolved module is not given a stored basis; it is the degree-0
    cokernel, with exactness guaranteed when the composition is a partition.
    With nu, only the nu weight block, a direct summand of the complex.
    """
    lam = _normalize(lam)
    labels = bases(lambda k: enumerate_bar_basis(lam, k, "full", nu))
    diffs = {k: differential(labels[k], labels[k - 1]) for k in range(1, len(labels))}
    return ChainComplex(labels, diffs)
