"""Dense matrix builders and views, and the Euler characteristic of a
complex, kept for the tests: the package itself builds matrices from
columns and never needs these.

Both builders hand their columns to `Matrix.from_columns`, as the package's
own builders do, so their results share equal (row, value) pairs too.
"""

from schurres.complexes import Matrix


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


def euler_characteristic(cx):
    """Alternating sum of the ranks of a chain complex."""
    return sum((1 if k % 2 == 0 else -1) * cx.rank(k) for k in cx.degrees())
