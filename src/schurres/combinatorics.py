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


@lru_cache(maxsize=None)
def multiset_arrangements(sizes):
    """The distinct words holding each letter s + 1 exactly sizes[s] times,
    in increasing order; there are multinomial(sizes) of them."""
    if not any(sizes):
        return ((),)
    return tuple((s + 1,) + tail for s, size in enumerate(sizes) if size
                 for tail in multiset_arrangements(sizes[:s] + (size - 1,) + sizes[s + 1:]))


# ---------------------------------------------------------------------------
# weights and marginals

def pair_weight(i, j, n):
    """Weight matrix of a pair of multi-indices (position-by-position count)."""
    if len(i) != len(j):
        raise ValueError("multi-index length mismatch")
    m = [0] * (n * n)
    for a, b in zip(i, j):
        m[(a - 1) * n + b - 1] += 1
    return tuple(zip(*[iter(m)] * n))  # n zipped copies of one iterator: rows of n


def matrix_marginal(omega, axis):
    """Marginal composition: axis 1 = column sums, axis 2 = row sums."""
    if axis == 1:
        return tuple(map(sum, zip(*omega)))
    if axis == 2:
        return tuple(map(sum, omega))
    raise ValueError("matrix axis must be 1 or 2")


@lru_cache(maxsize=None)
def margins(omega):
    """(column sums, row sums, total) of a weight matrix, cached per matrix."""
    rows = tuple(map(sum, omega))
    return tuple(map(sum, zip(*omega))), rows, sum(rows)


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
def _row_candidates(n, mass, caps, first_col):
    """Rows of n entries summing to mass, zero before first_col and at most
    caps (a tuple, or None for no cap) entrywise, in descending order."""
    rows = []
    _fill_row(n, caps, first_col, 0, mass, (), rows)
    return tuple(rows)


def _fill_row(n, caps, first_col, j, remaining, acc, rows):
    """Append to rows every completion of the first j entries acc."""
    if j == n:
        if remaining == 0:
            rows.append(acc)
        return
    if j < first_col:
        _fill_row(n, caps, first_col, j + 1, remaining, acc + (0,), rows)
        return
    hi = remaining if caps is None else min(remaining, caps[j])
    for v in range(hi, -1, -1):
        _fill_row(n, caps, first_col, j + 1, remaining - v, acc + (v,), rows)


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
    results = unsorted_weight_matrices(n, r, col_sums, row_sums, upper_triangular)
    if min_degree is not None:
        results = [m for m in results if filtration_degree(m) >= min_degree]
    return canonical_sort(results)


def unsorted_weight_matrices(n, r, col_sums=None, row_sums=None,
                             upper_triangular=False):
    """The matrices of `enumerate_weight_matrices` in no promised order and
    without caching the result, for callers that keep their own digest of
    it.  Rows come from `_row_candidates`, cached on the partial state, and
    a branch that cannot meet the column sums stops early."""
    if r < 0 or col_sums is not None and (len(col_sums) != n or sum(col_sums) != r):
        return []
    if row_sums is not None and (len(row_sums) != n or sum(row_sums) != r):
        return []
    results = []
    _fill_rows(n, row_sums, upper_triangular, 0, r,
               None if col_sums is None else tuple(col_sums), (), results)
    return results


def _fill_rows(n, row_sums, upper_triangular, s, remaining, col_rem, acc, results):
    """Append to results every completion of the first s rows acc."""
    if s == n:
        if remaining == 0 and (col_rem is None or not any(col_rem)):
            results.append(acc)
        return
    if col_rem is not None:
        # Two kinds of branch that cannot meet the column sums stop here.
        # Upper triangular rows from s on are zero in column s - 1, so that
        # column must be used up before row s.  The last row can only be
        # what the columns still need, col_rem, which sums to remaining; it
        # is taken when that is the row's own sum (upper triangular, the
        # first prune has already left col_rem zero before s).
        if upper_triangular and s and col_rem[s - 1]:
            return
        if s == n - 1:
            if row_sums is None or row_sums[s] == remaining:
                results.append(acc + (col_rem,))
            return
    masses = (row_sums[s],) if row_sums is not None else range(remaining + 1)
    first = s if upper_triangular else 0
    for mass in masses:
        if mass > remaining:
            continue
        for row in _row_candidates(n, mass, col_rem, first):
            nxt = None if col_rem is None else tuple(c - v for c, v in zip(col_rem, row))
            _fill_rows(n, row_sums, upper_triangular, s + 1, remaining - mass, nxt,
                       acc + (row,), results)


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

    chains = [()]
    for _ in range(k):  # grow each chain upwards from lam, one step a round
        chains = [(mu,) + chain for chain in chains
                  for mu in _strict_dominators(chain[0] if chain else lam)]
    return canonical_sort(chains)


def max_chain_length(n, r):
    """Number of elements in the longest strictly decreasing dominance chain
    of compositions of r into n parts: r(n-1) + 1.

    Dominance is the componentwise order on the partial sums s_1, ..., s_(n-1)
    (s_n = r), so a strict step lowers their total, which runs from r(n-1)
    at (r, 0, ..., 0) down to 0 at (0, ..., 0, r); lowering the first
    nonzero partial sum by one is a step that lowers it by exactly one.
    With no parts there is one composition of 0 and none of r > 0.
    """
    if n == 0:
        return 1 if r == 0 else 0
    return r * (n - 1) + 1
