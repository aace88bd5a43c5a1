"""Maps between tableaux, weight matrices and permutations that only the
tests use: the package reads tableaux off weight matrices, never the other
way, and never acts on a tableau by a permutation.
"""

from schurres.combinatorics import matrix_marginal
from schurres.schurfunctor import multilinear_weight


def is_row_semistandard(tab):
    return all(all(row[i] <= row[i + 1] for i in range(len(row) - 1)) for row in tab)


def matrix_of_tableau(tab):
    """Inverse of `tableaux.tableau_of_matrix`; requires a row-semistandard
    filling."""
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


def act(sigma, tab):
    """Symmetric-group action on multilinear tableaux: relabel entries by
    sigma, then re-sort every row."""
    return tuple(tuple(sorted(sigma[v - 1] for v in row)) for row in tab)


def weight_matrix_permutation(omega):
    """Inverse of `schurfunctor.permutation_weight_matrix`; both marginals
    must be multilinear."""
    n = len(omega)
    col = matrix_marginal(omega, 1)
    row = matrix_marginal(omega, 2)
    r = sum(col)
    delta = multilinear_weight(n, r) if n >= r else None
    if delta is None or col != delta or row != delta:
        raise ValueError("marginals are not the multilinear weight")
    images = []
    for t in range(r):
        images.append(next(s + 1 for s in range(n) if omega[s][t] == 1))
    return tuple(images)
