"""Combinatorial index families for tensor-power weights.

Conventions used across the package:

* A composition of r into n parts is a tuple of n non-negative integers
  summing to r; it is a partition when weakly decreasing.
* A multi-index is a tuple of length r with entries in 1..n.
* A weight matrix is an n x n nested tuple of non-negative integers with
  total sum r.  Marginal axis 1 is the tuple of column sums, axis 2 the
  tuple of row sums.
* A weight tensor is an n x n x n nested tuple indexed [s][t][q]; marginal
  axes 1, 2, 3 sum out s, t and q respectively.

All values are plain immutable tuples and all functions are pure, so they
are safe to share and cache.  Enumerations come back in a fixed canonical
order: descending lexicographic on the row-major flattened entries.  For
nested tuples of one shape that is Python's own tuple comparison, so
canonical sorts compare the values themselves and never flatten them.  Every
matrix assembled downstream inherits its row/column order from here, which
keeps serialized output reproducible byte for byte.
"""

from functools import lru_cache
from itertools import product as _product
from math import comb


def flatten(nested):
    """Row-major flattening of a nested tuple of integers."""
    if isinstance(nested, int):
        return (nested,)
    out = []
    for part in nested:
        out.extend(flatten(part))
    return tuple(out)


def canonical_sort(items):
    """Sort equally shaped nested tuples into the canonical order."""
    return tuple(sorted(items, reverse=True))


def multinomial(parts):
    """(sum parts)! / prod(parts!), computed without large factorials."""
    total = 0
    result = 1
    for p in parts:
        if p < 0:
            raise ValueError("negative multinomial argument")
        total += p
        result *= comb(total, p)
    return result


# ---------------------------------------------------------------------------
# weights and marginals

def weight(u, n):
    """Content of a multi-index: entry x counts positions equal to x."""
    counts = [0] * n
    for v in u:
        if not 1 <= v <= n:
            raise ValueError(f"multi-index entry {v} outside 1..{n}")
        counts[v - 1] += 1
    return tuple(counts)


def pair_weight(i, j, n):
    """Weight matrix of a pair of multi-indices (position-by-position count)."""
    if len(i) != len(j):
        raise ValueError("multi-index length mismatch")
    m = [[0] * n for _ in range(n)]
    for a, b in zip(i, j):
        m[a - 1][b - 1] += 1
    return tuple(tuple(row) for row in m)


def triple_weight(i, j, k, n):
    """Weight tensor of a triple of multi-indices."""
    if not len(i) == len(j) == len(k):
        raise ValueError("multi-index length mismatch")
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, c in zip(i, j, k):
        t[a - 1][b - 1][c - 1] += 1
    return tuple(tuple(tuple(fib) for fib in row) for row in t)


def matrix_marginal(omega, axis):
    """Marginal composition: axis 1 = column sums, axis 2 = row sums."""
    n = len(omega)
    if axis == 1:
        return tuple(sum(omega[s][t] for s in range(n)) for t in range(n))
    if axis == 2:
        return tuple(sum(row) for row in omega)
    raise ValueError("matrix axis must be 1 or 2")


def tensor_marginal(theta, axis):
    """Marginal weight matrix of a tensor; axis selects the summed index."""
    n = len(theta)
    rng = range(n)
    if axis == 1:
        return tuple(tuple(sum(theta[s][t][q] for s in rng) for q in rng) for t in rng)
    if axis == 2:
        return tuple(tuple(sum(theta[s][t][q] for t in rng) for q in rng) for s in rng)
    if axis == 3:
        return tuple(tuple(sum(theta[s][t][q] for q in rng) for t in rng) for s in rng)
    raise ValueError("tensor axis must be 1, 2 or 3")


def is_partition(c):
    return all(c[i] >= c[i + 1] for i in range(len(c) - 1))


def diagonal_matrix(lam):
    n = len(lam)
    return tuple(tuple(lam[s] if s == t else 0 for t in range(n)) for s in range(n))


def is_diagonal(omega):
    return all(v == 0 for s, row in enumerate(omega) for t, v in enumerate(row) if s != t)


def transpose_matrix(omega):
    n = len(omega)
    return tuple(tuple(omega[t][s] for t in range(n)) for s in range(n))


def is_upper_triangular(omega):
    return all(omega[s][t] == 0 for s in range(len(omega)) for t in range(s))


def filtration_degree(omega):
    """Sum of (col - row) over the upper triangle; 0 exactly on diagonals."""
    if not is_upper_triangular(omega):
        raise ValueError("filtration degree requires an upper-triangular matrix")
    n = len(omega)
    return sum((t - s) * omega[s][t] for s in range(n) for t in range(s, n))


# ---------------------------------------------------------------------------
# enumerations

@lru_cache(maxsize=None)
def enumerate_compositions(n, r):
    """All compositions of r into n parts, canonical (descending lex) order."""
    if n < 0 or r < 0:
        raise ValueError("sizes must be non-negative")
    if n == 0:
        return ((),) if r == 0 else ()
    out = []
    for first in range(r, -1, -1):
        for rest in enumerate_compositions(n - 1, r - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_partitions(n, r):
    return tuple(c for c in enumerate_compositions(n, r) if is_partition(c))


@lru_cache(maxsize=None)
def enumerate_multi_indices(n, r):
    """All multi-indices; scan order is not part of the canonical contract."""
    return tuple(_product(range(1, n + 1), repeat=r))


def _row_candidates(n, mass, caps, first_col):
    rows = []

    def fill(j, remaining, acc):
        if j == n:
            if remaining == 0:
                rows.append(tuple(acc))
            return
        if j < first_col:
            if remaining >= 0:
                fill(j + 1, remaining, acc + [0])
            return
        hi = remaining if caps is None else min(remaining, caps[j])
        for v in range(hi, -1, -1):
            fill(j + 1, remaining - v, acc + [v])

    fill(0, mass, [])
    return rows


def enumerate_weight_matrices(n, r, col_sums=None, row_sums=None,
                              upper_triangular=False, min_degree=None):
    """All n x n weight matrices of total r meeting the given constraints.

    col_sums constrains the axis-1 marginal, row_sums the axis-2 marginal.
    min_degree filters by filtration degree and forces upper_triangular.
    """
    if col_sums is not None:
        col_sums = tuple(col_sums)
    if row_sums is not None:
        row_sums = tuple(row_sums)
    return _enumerate_weight_matrices(n, r, col_sums, row_sums,
                                      bool(upper_triangular), min_degree)


@lru_cache(maxsize=None)
def _enumerate_weight_matrices(n, r, col_sums, row_sums, upper_triangular, min_degree):
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if min_degree is not None:
        upper_triangular = True
    if col_sums is not None and (len(col_sums) != n or sum(col_sums) != r):
        return ()
    if row_sums is not None and (len(row_sums) != n or sum(row_sums) != r):
        return ()

    results = []

    def fill_rows(s, remaining, col_rem, acc):
        if s == n:
            if remaining == 0 and (col_rem is None or all(v == 0 for v in col_rem)):
                results.append(tuple(acc))
            return
        masses = (row_sums[s],) if row_sums is not None else range(remaining + 1)
        first = s if upper_triangular else 0
        for mass in masses:
            if mass > remaining:
                continue
            for row in _row_candidates(n, mass, col_rem, first):
                nxt = None if col_rem is None else [c - v for c, v in zip(col_rem, row)]
                fill_rows(s + 1, remaining - mass, nxt, acc + [row])

    fill_rows(0, r, list(col_sums) if col_sums is not None else None, [])
    if min_degree is not None:
        results = [m for m in results if filtration_degree(m) >= min_degree]
    return canonical_sort(results)


def enumerate_weight_tensors(omega, pi):
    """All weight tensors with axis-3 marginal omega and axis-1 marginal pi.

    Empty when the inner marginals disagree (the product-vanishing case).
    The tensor splits into independent middle-index slices: slice t is an
    n x n matrix with row sums the t-th column of omega and column sums the
    t-th row of pi.
    """
    n = len(omega)
    if matrix_marginal(omega, 1) != matrix_marginal(pi, 2):
        return ()
    per_slice = []
    for t in range(n):
        rs = tuple(omega[s][t] for s in range(n))
        per_slice.append(enumerate_weight_matrices(n, sum(rs), col_sums=pi[t], row_sums=rs))
    tensors = []
    for slices in _product(*per_slice):
        theta = tuple(tuple(tuple(slices[t][s][q] for q in range(n)) for t in range(n))
                      for s in range(n))
        tensors.append(theta)
    return canonical_sort(tensors)


# ---------------------------------------------------------------------------
# dominance order

def dominates(nu, mu, strict=False):
    """Prefix-sum dominance; strict additionally requires nu != mu."""
    if len(nu) != len(mu) or sum(nu) != sum(mu):
        raise ValueError("dominance compares compositions of equal size")
    acc_n = acc_m = 0
    for a, b in zip(nu, mu):
        acc_n += a
        acc_m += b
        if acc_n < acc_m:
            return False
    if strict and nu == mu:
        return False
    return True


@lru_cache(maxsize=None)
def _strict_dominators(lam):
    n, r = len(lam), sum(lam)
    return tuple(c for c in enumerate_compositions(n, r) if dominates(c, lam, strict=True))


def enumerate_dominance_chains(lam, k):
    """All chains mu1 > mu2 > ... > muk > lam in strict dominance order."""
    if k < 0:
        raise ValueError("chain length must be non-negative")

    def ending_at(bottom, length):
        if length == 0:
            return [()]
        chains = []
        for mu in _strict_dominators(bottom):
            for rest in ending_at(mu, length - 1):
                chains.append(rest + (mu,))
        return chains

    return canonical_sort(ending_at(lam, k))


@lru_cache(maxsize=None)
def max_chain_length(n, r):
    """Number of elements in the longest strictly decreasing dominance chain."""
    universe = enumerate_compositions(n, r)
    below = {c: tuple(d for d in universe if dominates(c, d, strict=True)) for c in universe}
    memo = {}

    def down(c):
        if c not in memo:
            memo[c] = 1 + max((down(d) for d in below[c]), default=0)
        return memo[c]

    return max((down(c) for c in universe), default=0)
