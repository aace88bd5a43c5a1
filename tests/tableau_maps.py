"""Maps between tableaux, words, weight matrices and permutations that only
the tests use: the package's permutation modules have words as their basis,
and it never forms a tableau or acts on one by a permutation.  The tableau
side is kept here as an independent reference for the symmetric-group
action and the Boltje-Hartmann differential.
"""

from schurres.combinatorics import matrix_marginal
from schurres.schurfunctor import multilinear_weight
from schurres.tableaux import multilinear_words


def is_row_semistandard(tab):
    return all(all(row[i] <= row[i + 1] for i in range(len(row) - 1)) for row in tab)


def tableau_of_matrix(omega):
    """Row s lists t + 1 repeated omega[s][t] times, increasing in t."""
    n = len(omega)
    return tuple(tuple(t + 1 for t in range(n) for _ in range(omega[s][t]))
                 for s in range(n))


def matrix_of_tableau(tab):
    """Inverse of `tableau_of_matrix`; requires a row-semistandard filling."""
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


def tableau_of_word(word, n):
    """The multilinear tableau with n rows whose row s holds the v + 1 with
    word[v] = s + 1."""
    return tuple(tuple(v + 1 for v, s in enumerate(word) if s == row)
                 for row in range(1, n + 1))


def word_of_tableau(tab):
    """Inverse of `tableau_of_word`: letter v is the row holding v + 1."""
    where = {v: s + 1 for s, row in enumerate(tab) for v in row}
    return tuple(where[v] for v in range(1, len(where) + 1))


def multilinear_tableaux(shape):
    """The basis of the permutation module of `shape` as tableaux, in the
    order of `tableaux.multilinear_words`."""
    return tuple(tableau_of_word(word, len(shape)) for word in multilinear_words(shape))


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


def weight_matrix_permutation(omega):
    """Inverse of sigma -> `pair_weight(sigma, (1, ..., r), n)`; both
    marginals must be multilinear."""
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
