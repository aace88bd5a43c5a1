"""Row-semistandard tableaux, permutation-module homomorphisms, and the
Boltje-Hartmann complex of a partition.

A tableau is a tuple of n rows (possibly empty) of positive integers; it is
row semistandard when every row is weakly increasing.  Row-semistandard
tableaux of shape lam and content mu biject with weight matrices whose row
sums are lam and column sums mu: entry (s, t) counts the t's in row s.

Tableaux of multilinear content (each of 1..r exactly once) index the
permutation module of their shape.  The homomorphism attached to a tableau
T of shape lam and content mu sends a multilinear tableau to the sum of
those multilinear tableaux of shape lam whose row s picks exactly
matrix(T)[s][t] entries out of row t of the argument; its matrix on the
tableau bases is 0/1.

The complex of a partition has, in degree k, one tensor factor chain per
strict dominance chain above the partition: a dual-basis functional on the
first permutation module followed by k homomorphisms with upper-triangular
matrices.  As in every complex, labels are weight matrices (a factor's
tableau appears as its matrix); tableaux are used only inside the
homomorphism kernel.  The bases and the alternating-sum differential come
from `complexes.bases` and `complexes.alternating_differential`, as for the
bar complexes; only the product is this module's own, and it never reads
the weight-matrix structure constants, so the comparison with the
idempotent-truncated resolution is a genuine two-route check.  At t = 0 the
product precomposes the functional with the first homomorphism, whose
matrix is read into rows once per build of a complex; at t >= 1 it composes
adjacent homomorphisms and re-expands the composition over tableau
homomorphisms by evaluating at the canonical (row-filling) tableau.  Basis
tableaux come in descending order of their weight matrices, and the
canonical tableau, which fills each row with the smallest entries left, is
always the first of them, so its column is column 0.  Only that one column
of a composition is formed (the left homomorphism applied to the right
one's column 0), and each distinct adjacent pair is composed, checked and
expanded once per build; the expansions live in a dict owned by that build.

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
caller can change.  A matrix is built from the ways to split each row of a
source tableau into blocks: these are taken from a cached table of position
splits, keyed by row length and block sizes, combined once per weight
matrix and read against every source.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as _product

from .combinatorics import (
    enumerate_dominance_chains,
    enumerate_weight_matrices,
    is_partition,
    is_upper_triangular,
    matrix_marginal,
    transpose_matrix,
)
from .complexes import ChainComplex, Matrix, alternating_differential, bases
from .homology import homology
from .schurfunctor import multilinear_weight, truncated_resolution

# ---------------------------------------------------------------------------
# tableaux and the matrix correspondence

def tableau_of_matrix(omega):
    """Row s lists t repeated omega[s][t] times, increasing in t."""
    n = len(omega)
    return tuple(tuple(t + 1 for t in range(n) for _ in range(omega[s][t]))
                 for s in range(n))


def row_semistandard_tableaux(lam, mu):
    """All row-semistandard tableaux of shape lam and content mu, ordered by
    their weight matrices (canonical order)."""
    lam, mu = tuple(lam), tuple(mu)
    n = len(lam)
    mats = enumerate_weight_matrices(n, sum(lam), col_sums=mu, row_sums=lam)
    return tuple(tableau_of_matrix(w) for w in mats)


@lru_cache(maxsize=None)
def multilinear_tableaux(shape):
    """Basis tableaux of the permutation module: content all ones."""
    shape = tuple(shape)
    n = len(shape)
    return row_semistandard_tableaux(shape, multilinear_weight(n, sum(shape)))


def canonical_tableau(shape):
    """Rows filled with consecutive integers: 1..s1, s1+1..s1+s2, ..."""
    rows = []
    start = 1
    for length in shape:
        rows.append(tuple(range(start, start + length)))
        start += length
    return tuple(rows)


# ---------------------------------------------------------------------------
# tableau homomorphisms

@lru_cache(maxsize=None)
def _position_splits(length, sizes):
    """Partitions of the positions 0..length-1 into labeled blocks of the
    given sizes (which sum to length), each block increasing."""
    if not sizes:
        return ((),)
    out = []
    for chosen in combinations(range(length), sizes[0]):
        rest = [i for i in range(length) if i not in chosen]
        for tail in _position_splits(len(rest), sizes[1:]):
            out.append((chosen,) + tuple(tuple(rest[i] for i in block) for block in tail))
    return tuple(out)


@lru_cache(maxsize=None)
def tableau_hom(omega):
    """Matrix of the homomorphism attached to a weight matrix (the tableau
    `tableau_of_matrix(omega)`).

    Columns run over the multilinear tableaux of the content shape, rows
    over those of the tableau's shape; every entry is 0 or 1.  The matrix
    is cached and immutable.
    """
    n = len(omega)
    lam = matrix_marginal(omega, 2)
    mu = matrix_marginal(omega, 1)
    domain = multilinear_tableaux(mu)
    codomain = multilinear_tableaux(lam)
    cod_index = {tab: i for i, tab in enumerate(codomain)}
    # split row t of the source into blocks of sizes omega[.][t]; row s of
    # the image collects the s-blocks.  The splits depend only on omega, so
    # they are formed once, on positions in the source read row by row.
    starts = [sum(mu[:t]) for t in range(n)]
    per_row = [_position_splits(mu[t], tuple(omega[s][t] for s in range(n)))
               for t in range(n)]
    gathers = [tuple(tuple(starts[t] + i for t in range(n) for i in split[t][s])
                     for s in range(n))
               for split in _product(*per_row)]
    columns = []
    for source in domain:
        values = [v for row in source for v in row]
        col = {}
        for gather in gathers:
            i = cod_index[tuple(tuple(sorted([values[g] for g in block])) for block in gather)]
            col[i] = col.get(i, 0) + 1
        columns.append(col)
    return Matrix.from_columns(len(codomain), columns)


def _intersection_profile(tab, blocks):
    """Matrix counting row-of-tab against membership in the given blocks."""
    n = len(blocks)
    where = {}
    for t, block in enumerate(blocks):
        for v in block:
            where[v] = t
    m = [[0] * n for _ in range(n)]
    for s, row in enumerate(tab):
        for v in row:
            m[s][where[v]] += 1
    return tuple(tuple(row) for row in m)


def expand_canonical_column(column, target_shape, source_shape):
    """Write an equivariant map between permutation modules as a combination
    of tableau homomorphisms, from its image of the canonical tableau.

    `column` is that image, the map's column 0, as the (row, value) pairs of
    a `Matrix` column over the multilinear tableaux of the target shape.
    The coefficients are grouped by the tableaux's intersection profile with
    the rows of the canonical tableau of the source shape; equivariance
    forces each profile class to carry one coefficient, which is asserted.
    Returns {weight matrix of the tableau: coefficient}.
    """
    blocks = canonical_tableau(source_shape)
    values = dict(column)
    by_profile = {}
    for i, image_tab in enumerate(multilinear_tableaux(target_shape)):
        profile = _intersection_profile(image_tab, blocks)
        by_profile.setdefault(profile, []).append(values.get(i, 0))
    out = {}
    for profile, coeffs in by_profile.items():
        if len(set(coeffs)) != 1:
            raise ValueError("map is not equivariant: profile class with "
                             "mixed coefficients")
        if coeffs[0]:
            out[profile] = coeffs[0]
    return out


def _composition_at_canonical_column(left, right):
    """Expansion of hom(left) o hom(right) over weight matrices.

    Only the product's column at the canonical tableau of the source shape
    is formed: hom(left) applied to column 0 of hom(right).
    """
    right_hom = tableau_hom(right)
    product = tableau_hom(left) @ Matrix(right_hom.nrows, 1, right_hom.columns[:1])
    return expand_canonical_column(product.columns[0], matrix_marginal(left, 2),
                                   matrix_marginal(right, 1))


# ---------------------------------------------------------------------------
# the permutation-module complex

def _functionals(shape):
    """Weight matrices of the multilinear tableaux of `shape`, in their order."""
    n, r = len(shape), sum(shape)
    return enumerate_weight_matrices(n, r, col_sums=multilinear_weight(n, r), row_sums=shape)


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
    (functional on its domain, coefficient) pairs}."""
    domain = _functionals(matrix_marginal(hom, 1))
    rows = tableau_hom(hom).transpose().columns
    return {fun: tuple((domain[j], c) for j, c in row)
            for fun, row in zip(_functionals(matrix_marginal(hom, 2)), rows, strict=True)}


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
    # owned by this build: each first hom read by rows, and each adjacent
    # pair (left, right) of homs composed, as (merged hom, coefficient) pairs
    first_homs, compositions = {}, {}

    def product(t, left, right):
        if t == 0:
            # precompose the functional `left` with the first hom `right`
            rows = first_homs.get(right)
            if rows is None:
                rows = first_homs[right] = _resolve_first_hom(right)
            return rows[left]
        terms = compositions.get((left, right))
        if terms is None:
            expansion = _composition_at_canonical_column(left, right)
            if not all(map(is_upper_triangular, expansion)):
                raise ValueError("composition left the upper-triangular span")
            terms = compositions[left, right] = tuple(expansion.items())
        return terms

    labels = bases(lambda k: _basis_labels(lam, k))
    diffs = {k: alternating_differential(labels[k], labels[k - 1], product)
             for k in range(1, len(labels))}
    return ChainComplex(labels, diffs)


# ---------------------------------------------------------------------------
# comparison with the idempotent-truncated resolution

@dataclass(frozen=True)
class ComparisonReport:
    """Degreewise matrix comparison of the two complexes under the basis
    bijection, plus the cokernel rank check at the bottom."""

    lam: tuple
    degree_match: bool
    matrices_equal: dict  # degree -> bool
    cokernel_ranks: tuple  # (truncation, BH); -1 where the cokernel has torsion
    standard_count: int

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
    the tableau bijection.

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
    filling = {}

    def count(idx):
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
                total += count(idx + 1)
                left[v - 1] += 1
        return total

    return count(0)


def standard_tableau_count(lam):
    """Number of bijective fillings by 1..r increasing along rows and down
    columns: the semistandard count with content (1^r)."""
    r = sum(lam)
    return semistandard_tableau_count(lam, r, (1,) * r)
