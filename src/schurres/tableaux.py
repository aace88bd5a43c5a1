"""Permutation-module homomorphisms and the Boltje-Hartmann complex of a
partition.

The permutation module of a composition `shape` of r into n >= r parts has
one basis element per word: a multi-index of length r whose letter v is the
row (1..n) that holds v + 1.  Its basis is the weight matrices of
`_functionals(shape)` (row sums shape, column sums the multilinear weight;
entry (s, v) is 1 when row s holds v + 1), and `multilinear_words(shape)`
reads the i-th word off the i-th of them, so a word and a functional of one
index name one basis element.  A weight matrix omega with row sums lam and
column sums mu names the homomorphism from the module of mu to that of lam
whose matrix on the words has entry (g, f) equal to 1 exactly when
`pair_weight(g, f, n) == omega`, and 0 otherwise: the image of f is the sum
of the words that put omega[s][t] letters s + 1 on the positions where f
has the letter t + 1.  It is the homomorphism attached to the
row-semistandard tableau whose row s lists t + 1 omega[s][t] times.

The complex of a partition has, in degree k, one tensor factor chain per
strict dominance chain above the partition: a dual-basis functional on the
first permutation module followed by k homomorphisms with upper-triangular
matrices.  As in every complex, labels are weight matrices.  The bases and
the alternating-sum differential come from `complexes.bases` and
`complexes.alternating_differential`, as for the bar complexes; only the
two products are this module's own, and they never read the weight-matrix
structure constants, so the comparison with the idempotent-truncated
resolution is a genuine two-route check.  The head product precomposes the
functional with the first homomorphism, whose matrix is read into rows once
per build of a complex (row i is functional i, by the construction of the
words); the tail product composes adjacent homomorphisms and re-expands the
composition from one of its columns; adjacent factors of a label compose by
construction, so neither product tests for it.  An equivariant map is
determined by its image of one source word f, and the target words g of one
`pair_weight(g, f)` are one orbit of the stabiliser of f, so they carry one
coefficient: the coefficient of the homomorphism of that weight matrix.
This holds for every f, so the column read is column 0, the only one formed
(the left homomorphism applied to the right one's column 0).  Each distinct
adjacent pair is composed, checked and expanded once per build; the
expansions live in a cache owned by that build.

The comparison with the truncation relabels each truncation column through
the basis bijection (a kept bar tuple names the label whose functional is
its transposed leading matrix), sorts it and compares it with the matching
column of the complex; no triplet sets are formed, and each leading matrix
is transposed once per comparison.  Like every builder, `build_bh_complex`
does not walk d o d; the comparison checks the truncation's d o d once,
and equal matrices under a bijective relabelling carry it over to the
complex.

Homomorphism matrices are cached by weight matrix: `tableau_hom(omega)` is
the one builder, and it hands out the cached `Matrix` itself, which no
caller can change.  A column is built from its source word f: the positions
of f holding t + 1 take one arrangement of the letters of column t of
omega, from `multiset_arrangements`, which is cached by the letter counts.
The arrangements are combined once per weight matrix and placed on every
source's positions.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product as _product

from .combinatorics import (
    enumerate_dominance_chains,
    enumerate_weight_matrices,
    is_partition,
    is_upper_triangular,
    matrix_marginal,
    multiset_arrangements,
    pair_weight,
    transpose_matrix,
)
from .complexes import ChainComplex, Matrix, alternating_differential, bases
from .homology import homology
from .schurfunctor import multilinear_weight, truncated_resolution

# ---------------------------------------------------------------------------
# words and tableau homomorphisms

def _functionals(shape):
    """Weight matrices of the basis of the permutation module of `shape`,
    in canonical order."""
    n, r = len(shape), sum(shape)
    return enumerate_weight_matrices(n, r, col_sums=multilinear_weight(n, r), row_sums=shape)


@lru_cache(maxsize=None)
def multilinear_words(shape):
    """The words of the basis of the permutation module of `shape`, in the
    order of `_functionals(shape)`: letter v of the i-th word is the row of
    the 1 in column v of the i-th functional.  Only the first r columns are
    read; when n > r the others are zero."""
    r = sum(shape)
    return tuple(tuple(col.index(1) + 1 for col in transpose_matrix(fun)[:r])
                 for fun in _functionals(shape))


@lru_cache(maxsize=None)
def tableau_hom(omega):
    """Matrix of the homomorphism attached to a weight matrix: entry (g, f)
    is 1 when `pair_weight(g, f, n) == omega`, else 0.

    Columns run over the words of the column-sum shape, rows over those of
    the row-sum shape.  The matrix is cached and immutable.
    """
    index = {g: i for i, g in enumerate(multilinear_words(matrix_marginal(omega, 2)))}
    # an image of f puts one arrangement of column t of omega on the
    # positions of f holding t + 1; the arrangements, concatenated over t,
    # fill the positions of f sorted by (letter, position)
    fills = [sum(parts, ()) for parts in _product(*map(multiset_arrangements, zip(*omega)))]
    columns = []
    for f in multilinear_words(matrix_marginal(omega, 1)):
        slot = [0] * len(f)  # slot[v]: where position v comes in that order
        for k, v in enumerate(sorted(range(len(f)), key=f.__getitem__)):
            slot[v] = k
        columns.append({index[tuple([fill[k] for k in slot])]: 1 for fill in fills})
    return Matrix.from_columns(len(index), columns)


def expand_canonical_column(column, target_shape, source_shape):
    """Write an equivariant map between permutation modules as a combination
    of tableau homomorphisms, from its column 0.

    `column` is the map's image of the first word f of the source shape, as
    the (row, value) pairs of a `Matrix` column over the words of the target
    shape.  The coefficients are grouped by `pair_weight(g, f)` of their
    words g; equivariance forces each group to carry one coefficient, which
    is asserted.  Returns {weight matrix: coefficient}.
    """
    n = len(target_shape)
    first = multilinear_words(source_shape)[0]
    values = dict(column)
    by_weight = {}
    for i, word in enumerate(multilinear_words(target_shape)):
        by_weight.setdefault(pair_weight(word, first, n), []).append(values.get(i, 0))
    out = {}
    for omega, coeffs in by_weight.items():
        if len(set(coeffs)) != 1:
            raise ValueError("map is not equivariant: pair-weight class with "
                             "mixed coefficients")
        if coeffs[0]:
            out[omega] = coeffs[0]
    return out


def _composition_at_canonical_column(left, right):
    """Expansion of hom(left) o hom(right) over weight matrices.

    Only the product's column 0 is formed: hom(left) applied to column 0 of
    hom(right).
    """
    right_hom = tableau_hom(right)
    product = tableau_hom(left) @ Matrix(right_hom.nrows, 1, right_hom.columns[:1])
    return expand_canonical_column(product.columns[0], matrix_marginal(left, 2),
                                   matrix_marginal(right, 1))


# ---------------------------------------------------------------------------
# the permutation-module complex

def _basis_labels(lam, k):
    """Degree-k labels: (functional, hom 1, ..., hom k) weight matrices
    running over dominance chains above lam, in canonical chain order."""
    n, r = len(lam), sum(lam)
    labels = []
    for chain in enumerate_dominance_chains(lam, k):
        shapes = chain + (lam,)
        homs = (enumerate_weight_matrices(n, r, col_sums=shapes[i + 1], row_sums=shapes[i],
                                          min_degree=1) for i in range(k))
        labels.extend(_product(_functionals(shapes[0]), *homs))
    return tuple(labels)


def _resolve_first_hom(hom):
    """hom(`hom`) by rows: {functional on its codomain: its row, as
    (functional on its domain, coefficient) pairs}.  Row and column i of
    the hom are word i, read off functional i."""
    codomain = _functionals(matrix_marginal(hom, 2))
    rows = [[] for _ in codomain]
    for fun, col in zip(_functionals(matrix_marginal(hom, 1)), tableau_hom(hom).columns,
                        strict=True):
        for i, c in col:
            rows[i].append((fun, c))
    return dict(zip(codomain, map(tuple, rows)))


def build_bh_complex(lam):
    """Permutation-module complex of a partition lam with n = len(lam)
    parts, n >= r, in degrees >= 0; d o d is left to
    `ChainComplex.check_complex`.

    Degree -1 (the co-Specht module) is presented as the cokernel of the
    degree-1 differential rather than stored with a basis.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("the complex is built for partitions")
    if len(lam) < sum(lam):
        raise ValueError("needs n >= r for multilinear content")
    # caches owned by this build, so a dropped complex frees them
    resolved = lru_cache(maxsize=None)(_resolve_first_hom)

    def precompose(functional, hom):
        return resolved(hom)[functional]

    @lru_cache(maxsize=None)
    def compose(left, right):
        expansion = _composition_at_canonical_column(left, right)
        if not all(map(is_upper_triangular, expansion)):
            raise ValueError("composition left the upper-triangular span")
        return tuple(expansion.items())

    labels = bases(lambda k: _basis_labels(lam, k))
    diffs = {k: alternating_differential(labels[k], labels[k - 1], precompose, compose)
             for k in range(1, len(labels))}
    return ChainComplex(labels, diffs)


# ---------------------------------------------------------------------------
# comparison with the idempotent-truncated resolution

class ComparisonReport(namedtuple(
        "ComparisonReport", "lam degree_match matrices_equal cokernel_ranks standard_count")):
    """Degreewise matrix comparison of the two complexes under the basis
    bijection, plus the cokernel rank check at the bottom: matrices_equal
    maps each degree to a bool, and cokernel_ranks is (truncation, BH),
    with -1 where the cokernel has torsion."""

    __slots__ = ()

    @property
    def ok(self):
        return (self.degree_match and all(self.matrices_equal.values())
                and len(set(self.cokernel_ranks)) == 1
                and self.cokernel_ranks[0] == self.standard_count)


def _columns_agree(fb_d, bh_d, rows, cols):
    """Whether bh_d is fb_d with row i moved to rows[i] and column j to
    cols[j]: each column of fb_d is relabelled, sorted and compared with its
    image column, stopping at the first difference."""
    bh_columns = bh_d.columns
    return all(tuple(sorted((rows[i], v) for i, v in col)) == bh_columns[j]
               for col, j in zip(fb_d.columns, cols))


def compare_with_schur_functor(lam, fb=None, bh=None):
    """Check the two complexes of lam, n = len(lam), agree entrywise under
    the basis bijection.

    Only the truncation's d o d is checked, once, whether fb is supplied
    or built here; an fb that is not a complex raises ValueError.  The BH
    complex is not checked: differentials equal to the truncation's under a
    bijective relabelling make it a complex too, and differing ones fail
    the report.  The cokernel of the BH complex is computed only when the
    matrices differ; otherwise it is the truncation's.  The BH complex is
    built first, so a lam that is not a partition with n >= r is refused
    before any bar basis is enumerated.
    """
    lam = tuple(lam)
    if bh is None:
        bh = build_bh_complex(lam)
    if fb is None:
        fb = truncated_resolution(lam)
    fb.check_complex()

    degree_match = (fb.lo, fb.hi) == (bh.lo, bh.hi) and all(
        fb.rank(k) == bh.rank(k) for k in fb.degrees())
    matrices_equal = {}
    if degree_match:
        heads = {}  # leading matrix -> its transpose, the functional

        def positions(k):
            # where each truncation label of degree k sits among the BH
            # labels, None unless that relabelling is bijective: a kept bar
            # tuple names the BH label whose functional is its transposed
            # leading matrix and whose homs are its tail matrices, and a
            # label with no BH counterpart leaves it not bijective
            index = {lab: i for i, lab in enumerate(bh.labels[k])}
            out = []
            for tup in fb.labels[k]:
                head = heads.get(tup[0])
                if head is None:
                    head = heads[tup[0]] = transpose_matrix(tup[0])
                out.append(index.get((head,) + tup[1:]))
            return out if None not in out and len(set(out)) == len(out) else None

        rows = positions(fb.lo)
        for k in range(fb.lo + 1, fb.hi + 1):
            cols = positions(k)
            matrices_equal[k] = (rows is not None and cols is not None and _columns_agree(
                fb.differential(k), bh.differential(k), rows, cols))
            rows = cols

    def cokernel_rank(cx):
        h = homology(cx, cx.lo)
        return h.free_rank if h.is_free else -1  # torsion: not a free cokernel

    fb_rank = cokernel_rank(fb)
    isomorphic = degree_match and all(matrices_equal.values())
    return ComparisonReport(
        lam, degree_match, matrices_equal,
        (fb_rank, fb_rank if isomorphic else cokernel_rank(bh)),
        standard_tableau_count(lam))


# ---------------------------------------------------------------------------
# the tableau counting oracle: direct backtracking over fillings, independent
# of weight matrices and of every complex it is compared with

def semistandard_tableau_count(lam, n, content=None):
    """Number of fillings of shape lam by 1..n with weakly increasing rows
    and strictly increasing columns, by direct backtracking.

    With content (n parts), only the fillings with content[v-1] entries v:
    the Kostka number K(lam, content), the rank of the content weight space
    of the Weyl module.  The backtracking spends a per-value budget, which
    without content lets every value fill every cell.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError("semistandard counting needs a partition")
    r = sum(lam)
    if content is None:
        left = [r] * n
    else:
        left = list(content)
        if len(left) != n or any(v < 0 for v in left):
            raise ValueError(f"content must be {n} non-negative parts")
        if sum(left) != r:
            return 0
    cells = [(s, t) for s, length in enumerate(lam) for t in range(length)]
    return _count_fillings(cells, 0, {}, left, n)


def _count_fillings(cells, idx, filling, left, n):
    """Number of ways to fill cells[idx:] after filling, spending the
    per-value budget left (restored on return)."""
    if idx == len(cells):
        return 1
    s, t = cells[idx]
    lo = 1
    if t:
        lo = max(lo, filling[s, t - 1])
    if s:
        lo = max(lo, filling[s - 1, t] + 1)
    total = 0
    for v in range(lo, n + 1):
        if left[v - 1]:
            left[v - 1] -= 1
            filling[s, t] = v
            total += _count_fillings(cells, idx + 1, filling, left, n)
            left[v - 1] += 1
    return total


def standard_tableau_count(lam):
    """Number of bijective fillings by 1..r increasing along rows and down
    columns: the semistandard count with content (1^r)."""
    r = sum(lam)
    return semistandard_tableau_count(lam, r, (1,) * r)
