"""Multi-indices and the weight-tensor route to the Schur-algebra product,
kept as test oracles.

A multi-index is a tuple of length r with entries in 1..n; its weight
counts the positions holding each value.  A weight tensor is an n x n x n
nested tuple indexed [s][t][q]; marginal axes 1, 2, 3 sum out s, t and q
respectively.  The product of the basis elements of omega and pi sums, over
the tensors with axis-3 marginal omega and axis-1 marginal pi, the tensor's
multiplicity times the basis element of its axis-2 marginal.  `reference_structure_constants` is the former
`schur.structure_constants` body, a Cartesian product over all middle-index
slices, which the slice-by-slice fold replaced.
"""

from functools import lru_cache
from itertools import product as _product

from schurres.combinatorics import (
    canonical_sort,
    enumerate_weight_matrices,
    matrix_marginal,
    multinomial,
)


@lru_cache(maxsize=None)
def enumerate_multi_indices(n, r):
    """All multi-indices; scan order is not part of the canonical contract."""
    return tuple(_product(range(1, n + 1), repeat=r))


def weight(u, n):
    """Content of a multi-index: entry x counts positions equal to x."""
    counts = [0] * n
    for v in u:
        if not 1 <= v <= n:
            raise ValueError(f"multi-index entry {v} outside 1..{n}")
        counts[v - 1] += 1
    return tuple(counts)


def triple_weight(i, j, k, n):
    """Weight tensor of a triple of multi-indices."""
    if not len(i) == len(j) == len(k):
        raise ValueError("multi-index length mismatch")
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, c in zip(i, j, k):
        t[a - 1][b - 1][c - 1] += 1
    return tuple(tuple(tuple(fib) for fib in row) for row in t)


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


def _slices(omega, pi):
    """Per middle index t, the matrices with row sums the t-th column of
    omega and column sums the t-th row of pi."""
    n = len(omega)
    per_slice = []
    for t in range(n):
        rs = tuple(omega[s][t] for s in range(n))
        per_slice.append(enumerate_weight_matrices(n, sum(rs), col_sums=pi[t], row_sums=rs))
    return per_slice


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
    tensors = []
    for slices in _product(*_slices(omega, pi)):
        theta = tuple(tuple(tuple(slices[t][s][q] for q in range(n)) for t in range(n))
                      for s in range(n))
        tensors.append(theta)
    return canonical_sort(tensors)


def tensor_multiplicity(theta):
    """Number of middle multi-indices realizing a weight tensor.

    Equals the product over (first, last) index pairs of the multinomial
    coefficient of the middle-index fiber.
    """
    n = len(theta)
    result = 1
    for s in range(n):
        for q in range(n):
            result *= multinomial(tuple(theta[s][t][q] for t in range(n)))
    return result


def reference_structure_constants(omega, pi):
    """Expansion of a basis product as ((key, coefficient), ...), by the
    Cartesian product of all middle-index slices."""
    n = len(omega)
    if matrix_marginal(omega, 1) != matrix_marginal(pi, 2):
        return ()
    acc = {}
    for slices in _product(*_slices(omega, pi)):
        coeff = 1
        key = []
        for s in range(n):
            row = []
            for q in range(n):
                fiber = tuple(slices[t][s][q] for t in range(n))
                coeff *= multinomial(fiber)
                row.append(sum(fiber))
            key.append(tuple(row))
        key = tuple(key)
        acc[key] = acc.get(key, 0) + coeff
    return tuple(sorted(acc.items(), reverse=True))
