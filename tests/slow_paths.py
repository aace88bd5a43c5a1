"""The per-call forms of seven fast paths of the package, kept as references
that the fast paths are tested against.

* `per_call_gl_action` builds the image of every column of the monomial on
  every call; `dividedpowers.gl_action` caches it per (g, column).
* `per_candidate_green_convolution` tests both pair weights of every middle
  word for every candidate key; `oracles.green_convolution` tests the left
  one once per middle word.
* `nested_pair_weight` counts into a list of rows;
  `combinatorics.pair_weight` counts into one flat list.
* `regrouping_product` groups the right factor's terms by row sums on
  every call and scans every left term; `AlgebraElement.__mul__` keeps the
  left factor's grouping by column sums and walks the right factor.
* `per_label_alternating_differential` rebuilds and looks up every target
  label of every term, calling the head product (position 0) or the tail
  product (the other positions) once per label, position and term;
  `complexes.alternating_differential` expands the head product once per
  pair and the tail products once per tail, on integer ids.
* `unpruned_weight_matrices` follows every branch of the row-by-row
  recursion to the last row; `combinatorics.unsorted_weight_matrices` stops
  a branch that cannot meet the column sums.
* `regrowing_bar_basis` regrows every tail of a degree from w_k, reads the
  row sums of each tail's first matrix, and sorts the whole degree's
  labels; `barcomplex.enumerate_bar_basis` keeps the tails per row sums
  and builds the labels in order.
"""

from itertools import product

from schurres.barcomplex import VARIANTS
from schurres.combinatorics import (
    _row_candidates,
    enumerate_weight_matrices,
    matrix_marginal,
    max_chain_length,
    multiset_arrangements,
)
from schurres.complexes import Matrix
from schurres.dividedpowers import divided_power_of_vector, divided_product
from schurres.oracles import orbit
from schurres.schur import AlgebraElement, structure_constants


def per_call_gl_action(g, pi):
    """The action of g on the basis monomial pi, {weight matrix: coefficient}."""
    n = len(pi)
    if len(g) != n:
        raise ValueError("matrix size mismatch")
    per_column = []
    for t in range(n):
        factor = {tuple([0] * n): 1}
        for s in range(n):
            k = pi[s][t]
            if k:
                image = divided_power_of_vector(tuple(g[q][s] for q in range(n)), k)
                factor = divided_product(factor, image)
        per_column.append(factor)
    out = {}
    for picks in product(*(f.items() for f in per_column)):
        coeff = 1
        columns = []
        for key, c in picks:
            coeff *= c
            columns.append(key)
        matrix = tuple(tuple(columns[t][s] for t in range(n)) for s in range(n))
        if coeff:
            out[matrix] = out.get(matrix, 0) + coeff
    return {k: c for k, c in out.items() if c}


def nested_pair_weight(i, j, n):
    """Weight matrix of a pair of multi-indices (position-by-position count)."""
    if len(i) != len(j):
        raise ValueError("multi-index length mismatch")
    m = [[0] * n for _ in range(n)]
    for a, b in zip(i, j):
        m[a - 1][b - 1] += 1
    return tuple(tuple(row) for row in m)


def per_candidate_green_convolution(omega, pi):
    """The convolution product, counting for each candidate key tau the
    middle words k with both pair weights (i, k) = omega and (k, j) = pi, at
    the representative (i, j) = orbit(tau)[0]."""
    n = len(omega)
    r = sum(map(sum, omega))
    content = matrix_marginal(omega, 1)
    if content != matrix_marginal(pi, 2):
        return AlgebraElement(n, r, {})
    candidates = enumerate_weight_matrices(
        n, r, col_sums=matrix_marginal(pi, 1), row_sums=matrix_marginal(omega, 2))
    middles = multiset_arrangements(content)
    terms = {}
    for tau in candidates:
        i, j = orbit(tau)[0]
        count = 0
        for k in middles:
            if nested_pair_weight(i, k, n) == omega and nested_pair_weight(k, j, n) == pi:
                count += 1
        if count:
            terms[tau] = count
    return AlgebraElement(n, r, terms)


def regrouping_product(x, y):
    """x * y, pairing each left term with the right terms it composes with,
    found by grouping the right factor's terms by row sums on this call."""
    if (x.n, x.r) != (y.n, y.r):
        raise ValueError("algebra size mismatch")
    by_row_sums = {}
    for b, cb in y.terms.items():
        by_row_sums.setdefault(matrix_marginal(b, 2), []).append((b, cb))
    terms = {}
    for a, ca in x.terms.items():
        for b, cb in by_row_sums.get(matrix_marginal(a, 1), ()):
            c = ca * cb
            for key, m in structure_constants(a, b):
                terms[key] = terms.get(key, 0) + c * m
    return AlgebraElement(x.n, x.r, terms)


def per_label_alternating_differential(cur, prev, head_product, tail_product):
    """Matrix of the bar-type differential from cur to prev: each term's
    target label is built whole and looked up in an index of prev."""
    index = {lab: i for i, lab in enumerate(prev)}

    def columns():
        for lab in cur:
            col = {}
            for t in range(len(lab) - 1):
                sign = -1 if t % 2 else 1
                product = tail_product if t else head_product
                for key, c in product(lab[t], lab[t + 1]):
                    i = index[lab[:t] + (key,) + lab[t + 2:]]
                    col[i] = col.get(i, 0) + sign * c
            yield col
    return Matrix.from_columns(len(prev), columns())


def unpruned_weight_matrices(n, r, col_sums=None, row_sums=None, upper_triangular=False):
    """The n x n weight matrices of total r with the given margins, in the
    order of the row-by-row recursion, every branch followed to the end."""
    if col_sums is not None and (len(col_sums) != n or sum(col_sums) != r):
        return []
    if row_sums is not None and (len(row_sums) != n or sum(row_sums) != r):
        return []
    results = []

    def fill(s, remaining, col_rem, acc):
        if s == n:
            if remaining == 0 and (col_rem is None or not any(col_rem)):
                results.append(acc)
            return
        masses = (row_sums[s],) if row_sums is not None else range(remaining + 1)
        for mass in masses:
            if mass > remaining:
                continue
            for row in _row_candidates(n, mass, col_rem, s if upper_triangular else 0):
                nxt = None if col_rem is None else tuple(c - v for c, v in zip(col_rem, row))
                fill(s + 1, remaining - mass, nxt, acc + (row,))

    fill(0, r, None if col_sums is None else tuple(col_sums), ())
    return results


def regrowing_bar_basis(lam, k, variant="borel", nu=None):
    """The degree-k bar basis of `barcomplex.enumerate_bar_basis`, its
    tails regrown from w_k on every call and its labels sorted whole."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    lam = tuple(lam)
    if nu is not None:
        nu = tuple(nu)
    n, r = len(lam), sum(lam)
    if k >= max_chain_length(n, r):
        return ()
    upper = variant == "borel"
    if k == 0:
        heads = enumerate_weight_matrices(n, r, col_sums=lam, row_sums=nu,
                                          upper_triangular=upper)
        return tuple((w0,) for w0 in heads)
    # the chains (w_1, ..., w_k), grown leftwards from w_k: each new first
    # matrix has the row sums of the one it precedes as its column sums
    tails = [(wk,) for wk in enumerate_weight_matrices(n, r, col_sums=lam, min_degree=1)]
    for _ in range(k - 1):
        tails = [(w,) + tail for tail in tails
                 for w in enumerate_weight_matrices(n, r, col_sums=matrix_marginal(tail[0], 2),
                                                    min_degree=1)]
    tuples = []
    for tail in tails:
        mu = matrix_marginal(tail[0], 2)
        for w0 in enumerate_weight_matrices(n, r, col_sums=mu, row_sums=nu,
                                            upper_triangular=upper):
            tuples.append((w0,) + tail)
    # tuples of equally sized matrices compare like their row-major flattenings
    return tuple(sorted(tuples, reverse=True))
