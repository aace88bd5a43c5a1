"""Dense matrix builders, views and the transpose, the Euler characteristic
of a complex, and the dense Smith normal form that the sparse one is checked
against, kept for the tests: the package itself builds matrices from
columns, reduces them sparsely and never needs these.

The builders and `transpose` hand their columns to `Matrix.from_columns`, as
the package's own builders do, so their results share equal (row, value)
pairs too.
"""

from schurres.complexes import Matrix
from schurres.homology import SmithForm


def from_rows(rows, ncols=None):
    """Matrix from a list of equal-length rows; an empty list needs ncols."""
    rows = [tuple(row) for row in rows]
    if not rows and ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    width = len(rows[0]) if rows else ncols
    if any(len(row) != width for row in rows) or ncols not in (None, width):
        raise ValueError("matrix shape mismatch")
    return Matrix.from_columns(len(rows), ({i: row[j] for i, row in enumerate(rows)}
                                           for j in range(width)))


def submatrix(mat, row_idx, col_idx):
    """Rows row_idx and columns col_idx of mat, in the order given; an index
    outside the shape raises ValueError."""
    if not all(0 <= i < mat.nrows for i in row_idx):
        raise ValueError("row index outside the matrix")
    if not all(0 <= j < mat.ncols for j in col_idx):
        raise ValueError("column index outside the matrix")
    where = {}
    for new, old in enumerate(row_idx):
        where.setdefault(old, []).append(new)
    return Matrix.from_columns(len(row_idx), ({new: v for i, v in mat.columns[j]
                                               for new in where.get(i, ())}
                                              for j in col_idx))


def transpose(mat):
    """The transpose of mat, its rows made columns."""
    cols = [{} for _ in range(mat.nrows)]
    for j, col in enumerate(mat.columns):
        for i, v in col:
            cols[i][j] = v
    return Matrix.from_columns(mat.ncols, cols)


def euler_characteristic(cx):
    """Alternating sum of the ranks of a chain complex."""
    return sum((1 if k % 2 == 0 else -1) * cx.rank(k) for k in cx.degrees())


def dense_smith_normal_form(mat):
    """Smith normal form by dense elimination on minimal-absolute-value pivots."""
    m, n = mat.nrows, mat.ncols
    d = [list(row) for row in mat.rows]

    def row_add(i, j, c):
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]

    def col_add(j, i, c):
        for row in d:
            row[j] += c * row[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(d[i][j])
                if v and (best is None or v < best):
                    pivot, best = (i, j), v
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot != (t, t):
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
        while True:
            if d[t][t] < 0:
                d[t] = [-a for a in d[t]]
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // p
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // p
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot divides the untouched block, or absorb an offending row
            if p == 1:
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    return SmithForm(tuple(d[i][i] for i in range(min(m, n)) if d[i][i]))
