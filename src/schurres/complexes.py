"""Dense integer matrices and graded chain complexes of labeled free modules.

Matrices hold unbounded Python integers; shapes are explicit so rank-zero
degrees serialize and multiply consistently.  A chain complex stores, per
degree, an ordered tuple of basis labels and the differential into the
degree below; optional homotopy matrices map one degree up.  A modulus of p
marks a complex with entries reduced mod p.
"""

from itertools import compress


class Matrix:
    """Dense integer matrix with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows = [[0] * ncols for _ in range(nrows)]
        else:
            rows = [list(row) for row in rows]
            if len(rows) != nrows or any(len(row) != ncols for row in rows):
                raise ValueError("matrix shape mismatch")
            self.rows = rows

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [list(row) for row in rows]
        if not rows and ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        width = len(rows[0]) if rows else ncols
        return cls(len(rows), width, rows)

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        m = cls(nrows, ncols)
        for i, j, v in entries:
            m.rows[i][j] = v
        return m

    def copy(self):
        return Matrix(self.nrows, self.ncols, [row[:] for row in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.rows == other.rows)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        return Matrix(self.nrows, self.ncols,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.nrows, self.ncols, [[-a for a in row] for row in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in product")
        out = Matrix(self.nrows, other.ncols)
        inner, outer = range(self.ncols), range(other.ncols)
        other_nonzero = [[(j, orow[j]) for j in compress(outer, orow)] for orow in other.rows]
        for row, acc in zip(self.rows, out.rows):
            for k in compress(inner, row):
                a = row[k]
                for j, v in other_nonzero[k]:
                    acc[j] += a * v
        return out

    def transpose(self):
        return Matrix(self.ncols, self.nrows,
                      [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def submatrix(self, row_idx, col_idx):
        return Matrix(len(row_idx), len(col_idx),
                      [[self.rows[i][j] for j in col_idx] for i in row_idx])

    def mod(self, p):
        out = Matrix(self.nrows, self.ncols, self.rows)
        cols = range(self.ncols)
        for row in out.rows:
            for j in compress(cols, row):
                row[j] %= p
        return out

    def is_zero(self):
        return not any(map(any, self.rows))

    def entries(self):
        """Nonzero entries as (row, col, value) triplets, row-major order."""
        cols = range(self.ncols)
        return [(i, j, row[j]) for i, row in enumerate(self.rows) for j in compress(cols, row)]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class ChainComplex:
    """Labeled chain complex with integer (or mod-p) differentials.

    labels: dict degree -> tuple of basis labels.
    differentials: dict degree k -> Matrix of shape rank(k-1) x rank(k),
    present for lo < k <= hi.  homotopies: dict degree k -> Matrix of shape
    rank(k+1) x rank(k).  Missing matrices are zero of the right shape.
    """

    def __init__(self, labels, differentials, homotopies=None, modulus=None, meta=None):
        if not labels:
            raise ValueError("complex needs at least one degree")
        self.labels = {k: tuple(v) for k, v in labels.items()}
        self.lo = min(self.labels)
        self.hi = max(self.labels)
        if set(self.labels) != set(range(self.lo, self.hi + 1)):
            raise ValueError("degrees must be contiguous")
        self.differentials = dict(differentials)
        self.homotopies = dict(homotopies) if homotopies else {}
        self.modulus = modulus
        self.meta = dict(meta) if meta else {}
        for k, mat in self.differentials.items():
            if (mat.nrows, mat.ncols) != (self.rank(k - 1), self.rank(k)):
                raise ValueError(f"differential at degree {k} has wrong shape")
        for k, mat in self.homotopies.items():
            if (mat.nrows, mat.ncols) != (self.rank(k + 1), self.rank(k)):
                raise ValueError(f"homotopy at degree {k} has wrong shape")

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def rank(self, k):
        return len(self.labels.get(k, ()))

    def differential(self, k):
        if k in self.differentials:
            return self.differentials[k]
        return Matrix.zeros(self.rank(k - 1), self.rank(k))

    def homotopy(self, k):
        if k in self.homotopies:
            return self.homotopies[k]
        return Matrix.zeros(self.rank(k + 1), self.rank(k))

    def check_complex(self):
        """Raise unless consecutive differentials compose to zero."""
        for k in range(self.lo + 2, self.hi + 1):
            prod = self.differential(k - 1) @ self.differential(k)
            if self.modulus:
                prod = prod.mod(self.modulus)
            if not prod.is_zero():
                raise ValueError(f"d o d != 0 between degrees {k} and {k - 2}")

    def euler_characteristic(self):
        return sum((1 if k % 2 == 0 else -1) * self.rank(k) for k in self.degrees())
