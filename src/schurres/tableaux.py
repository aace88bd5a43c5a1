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
matrices.  The differential composes adjacent factors with alternating
signs; compositions are re-expanded in the tableau basis by evaluating at
the canonical (row-filling) tableau, with no reference to the weight-matrix
structure constants, so the comparison with the idempotent-truncated
resolution is a genuine two-route check.  Only that one column of a
composition is formed (the left homomorphism applied to the right one's
column at the canonical tableau), and each distinct adjacent pair is
composed, checked and expanded once per build of a complex; the expansions
live in a dict owned by that build.  Likewise each distinct first
homomorphism's matrix is transposed into sparse rows once per build, and
each functional's row in it is found through a dict.

Homomorphism matrices are cached; `tableau_hom` hands out the cached
`Matrix` itself, which no caller can change.
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
from .complexes import ChainComplex, Matrix
from .homology import homology
from .schurfunctor import multilinear_weight

# ---------------------------------------------------------------------------
# tableaux and the matrix correspondence

def tableau_shape(tab):
    return tuple(len(row) for row in tab)


def tableau_content(tab, n):
    counts = [0] * n
    for row in tab:
        for v in row:
            if not 1 <= v <= n:
                raise ValueError(f"tableau entry {v} outside 1..{n}")
            counts[v - 1] += 1
    return tuple(counts)


def is_row_semistandard(tab):
    return all(all(row[i] <= row[i + 1] for i in range(len(row) - 1)) for row in tab)


def tableau_of_matrix(omega):
    """Row s lists t repeated omega[s][t] times, increasing in t."""
    n = len(omega)
    return tuple(tuple(t + 1 for t in range(n) for _ in range(omega[s][t]))
                 for s in range(n))


def matrix_of_tableau(tab):
    """Inverse correspondence; requires a row-semistandard filling."""
    if not is_row_semistandard(tab):
        raise ValueError("tableau is not row semistandard")
    n = len(tab)
    m = [[0] * n for _ in range(n)]
    for s, row in enumerate(tab):
        for v in row:
            if not 1 <= v <= n:
                raise ValueError(f"tableau entry {v} outside 1..{n}")
            m[s][v - 1] += 1
    return tuple(tuple(row) for row in m)


@lru_cache(maxsize=None)
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


def act(sigma, tab):
    """Symmetric-group action on multilinear tableaux: relabel entries by
    sigma, then re-sort every row."""
    return tuple(tuple(sorted(sigma[v - 1] for v in row)) for row in tab)


# ---------------------------------------------------------------------------
# tableau homomorphisms

def _row_splits(row, sizes):
    """Partitions of a set row into labeled blocks of the given sizes."""
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for chosen in combinations(row, first):
        remaining = tuple(v for v in row if v not in chosen)
        for tail in _row_splits(remaining, rest):
            yield (chosen,) + tail


def tableau_hom(tab):
    """Matrix of the homomorphism attached to a row-semistandard tableau.

    Columns run over the multilinear tableaux of the content shape, rows
    over those of the tableau's shape; every entry is 0 or 1.  The matrix
    is cached and immutable.
    """
    return _tableau_hom_matrix(matrix_of_tableau(tab))


@lru_cache(maxsize=None)
def _tableau_hom_matrix(omega):
    """Matrix of the homomorphism attached to a weight matrix."""
    n = len(omega)
    lam = matrix_marginal(omega, 2)
    mu = matrix_marginal(omega, 1)
    domain = multilinear_tableaux(mu)
    codomain = multilinear_tableaux(lam)
    cod_index = {tab: i for i, tab in enumerate(codomain)}
    columns = []
    for source in domain:
        col = {}
        # independently split row t of the source into blocks of sizes
        # omega[.][t]; row s of the image collects the s-blocks
        per_row = [list(_row_splits(source[t], tuple(omega[s][t] for s in range(n))))
                   for t in range(n)]
        for split in _product(*per_row):
            rows = []
            for s in range(n):
                merged = []
                for t in range(n):
                    merged.extend(split[t][s])
                rows.append(tuple(sorted(merged)))
            i = cod_index[tuple(rows)]
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


def expand_in_tableau_basis(mat, target_shape, source_shape):
    """Write an equivariant map between permutation modules as a combination
    of tableau homomorphisms.

    Reads the matrix's column at the canonical tableau of the source shape
    and expands it with `expand_canonical_column`.  Returns {weight matrix
    of the tableau: coefficient}.
    """
    col = multilinear_tableaux(source_shape).index(canonical_tableau(source_shape))
    column = [0] * mat.nrows
    for i, v in mat.columns[col]:
        column[i] = v
    return expand_canonical_column(column, target_shape, source_shape)


def expand_canonical_column(column, target_shape, source_shape):
    """Expand an equivariant map from its image of the canonical tableau.

    `column` lists that image's coefficients on the multilinear tableaux of
    the target shape.  They are grouped by their intersection profile with
    the rows of the canonical tableau of the source shape; equivariance
    forces each profile class to carry one coefficient, which is asserted.
    Returns {weight matrix of the tableau: coefficient}.
    """
    codomain = multilinear_tableaux(target_shape)
    blocks = canonical_tableau(source_shape)
    by_profile = {}
    for image_tab, c in zip(codomain, column, strict=True):
        profile = _intersection_profile(image_tab, blocks)
        by_profile.setdefault(profile, []).append(c)
    out = {}
    for profile, coeffs in by_profile.items():
        if len(set(coeffs)) != 1:
            raise ValueError("map is not equivariant: profile class with "
                             "mixed coefficients")
        if coeffs[0]:
            out[profile] = coeffs[0]
    return out


def _composition_at_canonical_column(left, right, n):
    """Expansion of hom(left) o hom(right) over tableau homomorphisms.

    Only the product's column at the canonical tableau of the source shape
    is formed: hom(left) applied to that one column of hom(right).
    """
    source_shape = tableau_content(right, n)
    col = multilinear_tableaux(source_shape).index(canonical_tableau(source_shape))
    left_hom = _tableau_hom_matrix(matrix_of_tableau(left))
    column = [0] * left_hom.nrows
    for k, v in _tableau_hom_matrix(matrix_of_tableau(right)).columns[col]:
        for i, a in left_hom.columns[k]:
            column[i] += a * v
    return expand_canonical_column(column, tableau_shape(left), source_shape)


# ---------------------------------------------------------------------------
# the permutation-module complex

def _basis_labels(lam, n, k):
    """Degree-k labels: (functional tableau, hom tableau 1, ..., hom tableau k)
    running over dominance chains above lam, in canonical chain order."""
    r = sum(lam)
    labels = []
    for chain in enumerate_dominance_chains(lam, k):
        shapes = chain + (lam,)
        factor_choices = [multilinear_tableaux(shapes[0])]
        for i in range(k):
            mats = enumerate_weight_matrices(
                n, r, col_sums=shapes[i + 1], row_sums=shapes[i], min_degree=1)
            factor_choices.append(tuple(tableau_of_matrix(w) for w in mats))
        for combo in _product(*factor_choices):
            labels.append(combo)
    return tuple(labels)


def _resolve_first_hom(hom, n):
    """Rows of hom(`hom`) as sparse (column, value) tuples, one per
    functional on its codomain, and the multilinear tableaux its columns run
    over."""
    return (_tableau_hom_matrix(matrix_of_tableau(hom)).transpose().columns,
            multilinear_tableaux(tableau_content(hom, n)))


def _bh_differential(labels_k, labels_km1, k, n, compositions, first_homs):
    """Degree-k differential.  `compositions` maps each adjacent pair (left,
    right) of hom tableaux already composed in this build to its expansion,
    a tuple of (merged tableau, coefficient); `first_homs` maps each first
    hom tableau already resolved in this build to `_resolve_first_hom`."""
    index = {lab: i for i, lab in enumerate(labels_km1)}
    position = {fun: multilinear_tableaux(tableau_shape(fun)).index(fun)
                for fun in {lab[0] for lab in labels_k}}
    columns = []
    for lab in labels_k:
        functional, homs = lab[0], lab[1:]
        col = {}
        # t = 0: precompose the functional with the first homomorphism
        first = first_homs.get(homs[0])
        if first is None:
            first = first_homs[homs[0]] = _resolve_first_hom(homs[0], n)
        rows, next_domain = first
        for j, c in rows[position[functional]]:
            i = index[(next_domain[j],) + homs[1:]]
            col[i] = col.get(i, 0) + c
        # t >= 1: compose adjacent homomorphisms, re-expanded over tableaux
        for t in range(1, k):
            sign = -1 if t % 2 else 1
            pair = homs[t - 1], homs[t]
            terms = compositions.get(pair)
            if terms is None:
                expansion = _composition_at_canonical_column(*pair, n)
                if not all(map(is_upper_triangular, expansion)):
                    raise ValueError("composition left the upper-triangular span")
                terms = compositions[pair] = tuple(
                    (tableau_of_matrix(omega), c) for omega, c in expansion.items())
            for merged, c in terms:
                i = index[(functional,) + homs[:t - 1] + (merged,) + homs[t + 1:]]
                col[i] = col.get(i, 0) + sign * c
        columns.append(col)
    return Matrix.from_columns(len(labels_km1), columns)


def build_bh_complex(lam, n=None):
    """Permutation-module complex of a partition, degrees >= 0.

    Degree -1 (the co-Specht module) is presented as the cokernel of the
    degree-1 differential rather than stored with a basis.
    """
    lam = tuple(lam)
    if n is None:
        n = len(lam)
    if len(lam) < n:
        lam = lam + (0,) * (n - len(lam))
    if not is_partition(lam):
        raise ValueError("the complex is built for partitions")
    r = sum(lam)
    if n < r:
        raise ValueError("needs n >= r for multilinear content")
    labels = {}
    k = 0
    while True:
        basis = _basis_labels(lam, n, k)
        if not basis:
            break
        labels[k] = basis
        k += 1
    hi = k - 1
    compositions = {}
    first_homs = {}
    diffs = {}
    for k in range(1, hi + 1):
        diffs[k] = _bh_differential(labels[k], labels[k - 1], k, n, compositions,
                                    first_homs)
    cx = ChainComplex(labels, diffs,
                      meta={"n": n, "r": r, "lam": lam, "variant": "bh"})
    cx.check_complex()
    return cx


# ---------------------------------------------------------------------------
# comparison with the idempotent-truncated resolution

def bh_label_of_bar_tuple(tup):
    """Translate a kept bar tuple into a complex label: the leading matrix
    transposes into the functional tableau, the tail matrices are the hom
    tableaux."""
    head = tableau_of_matrix(transpose_matrix(tup[0]))
    return (head,) + tuple(tableau_of_matrix(w) for w in tup[1:])


def _bh_relabelling():
    """`bh_label_of_bar_tuple` converting each distinct weight matrix once,
    for as long as the returned function lives."""
    head = lru_cache(maxsize=None)(lambda w: tableau_of_matrix(transpose_matrix(w)))
    tail = lru_cache(maxsize=None)(tableau_of_matrix)

    def label(tup):
        return (head(tup[0]),) + tuple(map(tail, tup[1:]))
    return label


@dataclass(frozen=True)
class ComparisonReport:
    """Degreewise matrix comparison of the two complexes under the basis
    bijection, plus the cokernel rank check at the bottom."""

    lam: tuple
    n: int
    degree_match: bool
    matrices_equal: dict  # degree -> bool
    cokernel_ranks: tuple  # (truncation, BH); -1 where the cokernel has torsion
    standard_count: int

    @property
    def ok(self):
        return (self.degree_match and all(self.matrices_equal.values())
                and len(set(self.cokernel_ranks)) == 1
                and self.cokernel_ranks[0] == self.standard_count)


def compare_with_schur_functor(lam, n=None, fb=None, bh=None):
    """Check the two complexes agree entrywise under the tableau bijection."""
    from .schurfunctor import truncated_resolution

    lam = tuple(lam)
    if n is None:
        n = len(lam)
    if len(lam) < n:
        lam = lam + (0,) * (n - len(lam))
    if fb is None:
        fb = truncated_resolution(lam)
    if bh is None:
        bh = build_bh_complex(lam, n)

    degree_match = (fb.lo, fb.hi) == (bh.lo, bh.hi) and all(
        fb.rank(k) == bh.rank(k) for k in fb.degrees())
    matrices_equal = {}
    if degree_match:
        # under bijective relabelling, equal nonzero entries mean equal matrices
        position, bijective = {}, {}
        relabel = _bh_relabelling()
        for k in fb.degrees():
            bh_index = {lab: i for i, lab in enumerate(bh.labels[k])}
            position[k] = [bh_index[relabel(tup)] for tup in fb.labels[k]]
            bijective[k] = len(set(position[k])) == bh.rank(k)
        for k in range(fb.lo + 1, fb.hi + 1):
            pr, pc = position[k - 1], position[k]
            matrices_equal[k] = (
                bijective[k - 1] and bijective[k]
                and {(pr[i], pc[j], v) for i, j, v in fb.differential(k).entries()}
                == set(bh.differential(k).entries()))

    def cokernel_rank(cx):
        h = homology(cx, cx.lo)
        return h.free_rank if h.is_free else -1  # torsion: not a free cokernel

    return ComparisonReport(
        lam, n, degree_match, matrices_equal,
        (cokernel_rank(fb), cokernel_rank(bh)),
        standard_tableau_count(lam))


# ---------------------------------------------------------------------------
# independent tableau counting oracles

def semistandard_tableau_count(lam, n):
    """Number of fillings by 1..n with weakly increasing rows and strictly
    increasing columns, by direct backtracking."""
    lam = tuple(v for v in lam)
    rows = [v for v in lam if v]
    if not is_partition(lam):
        raise ValueError("semistandard counting needs a partition")
    cells = [(s, t) for s, length in enumerate(rows) for t in range(length)]
    filling = {}
    count = 0

    def backtrack(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        s, t = cells[idx]
        lo = 1
        if t > 0:
            lo = max(lo, filling[(s, t - 1)])
        if s > 0:
            lo = max(lo, filling[(s - 1, t)] + 1)
        for v in range(lo, n + 1):
            filling[(s, t)] = v
            backtrack(idx + 1)
        filling.pop((s, t), None)

    backtrack(0)
    return count


def standard_tableau_count(lam):
    """Number of bijective fillings by 1..r increasing along rows and down
    columns, by direct backtracking."""
    rows = [v for v in lam if v]
    if not is_partition(tuple(lam)):
        raise ValueError("standard counting needs a partition")
    r = sum(rows)
    cells = [(s, t) for s, length in enumerate(rows) for t in range(length)]
    filling = {}
    used = [False] * (r + 1)
    count = 0

    def backtrack(idx):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        s, t = cells[idx]
        lo = 1
        if t > 0:
            lo = max(lo, filling[(s, t - 1)] + 1)
        if s > 0:
            lo = max(lo, filling[(s - 1, t)] + 1)
        for v in range(lo, r + 1):
            if not used[v]:
                used[v] = True
                filling[(s, t)] = v
                backtrack(idx + 1)
                used[v] = False
        filling.pop((s, t), None)

    backtrack(0)
    return count
