"""Sparse immutable integer matrices and graded chain complexes of labeled
free modules.

A matrix is stored by columns: each column is a tuple of (row, value) pairs
in increasing row order, holding no zero.  Differentials are very sparse, so
every operation walks these pairs and never a dense cell grid; `rows` builds
a dense view on request.  Every builder and operation (`from_entries`,
`from_rows`, `identity`, `+`, `-`, `@`, `transpose`, `submatrix`) produces
its columns as {row: value} dicts and hands them to `from_columns`, the one
place that makes pair tuples; it makes one tuple per distinct pair of the
matrix and shares it between the columns that hold it.  No code changes a
built matrix or stores anything on it, so a cached matrix can be handed to
every caller.  Entries are unbounded Python integers; shapes are explicit
so rank-zero degrees serialize and multiply consistently.  A chain complex
stores, per degree, an ordered tuple of basis labels and the differential
into the degree below; optional homotopy matrices map one degree up.  It
holds nothing else: what a complex resolves (its composition, n and r)
stays with the caller that built it.

Every complex of the package is of bar type and is built by two functions:
`bases` enumerates each degree's basis once, up to the first empty degree,
and `alternating_differential` assembles the alternating sum of adjacent
products on two such bases, given the builder's product.
"""


class Matrix:
    """Immutable sparse integer matrix with explicit shape, held by columns.

    `columns[j]` is the tuple of (row, value) pairs of column j, rows
    increasing, no zeros; equal pairs are one shared tuple.  The
    constructor trusts its columns to be in that form; `from_columns`
    produces it.
    """

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows, ncols, columns):
        columns = tuple(columns)
        if len(columns) != ncols:
            raise ValueError("matrix shape mismatch")
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "columns", columns)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols, ((),) * ncols)

    @classmethod
    def identity(cls, n):
        return cls.from_columns(n, ({i: 1} for i in range(n)))

    @classmethod
    def from_columns(cls, nrows, columns):
        """Matrix whose column j holds the j-th {row: value} dict of the
        iterable columns; zero values are dropped.  Each dict is converted
        as it arrives, so a generator of columns keeps one dict alive at a
        time.  Equal (row, value) pairs share one tuple across the matrix:
        a differential repeats few values in each row, and a fresh tuple
        per entry would cost most of the matrix's memory."""
        pool = {}
        cols = []
        for col in columns:
            col = tuple(sorted(pool.setdefault(entry, entry)
                               for entry in col.items() if entry[1]))
            if col and not (0 <= col[0][0] and col[-1][0] < nrows):
                raise ValueError("row index outside the matrix")
            cols.append(col)
        return cls(nrows, len(cols), cols)

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """Matrix from (row, col, value) triplets; a later triplet for the
        same position replaces an earlier one."""
        cols = [{} for _ in range(ncols)]
        for i, j, v in entries:
            if not 0 <= j < ncols:
                raise ValueError("column index outside the matrix")
            cols[j][i] = v
        return cls.from_columns(nrows, cols)

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [tuple(row) for row in rows]
        if not rows and ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        width = len(rows[0]) if rows else ncols
        if any(len(row) != width for row in rows) or ncols not in (None, width):
            raise ValueError("matrix shape mismatch")
        return cls.from_columns(len(rows), ({i: row[j] for i, row in enumerate(rows)}
                                            for j in range(width)))

    @property
    def rows(self):
        """Dense read-only view: a fresh tuple of row tuples."""
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                out[i][j] = v
        return tuple(map(tuple, out))

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.columns == other.columns)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shape mismatch")
        cols = []
        for a, b in zip(self.columns, other.columns):
            acc = dict(a)
            for i, v in b:
                acc[i] = acc.get(i, 0) + v
            cols.append(acc)
        return Matrix.from_columns(self.nrows, cols)

    def __neg__(self):
        return Matrix.from_columns(self.nrows, ({i: -v for i, v in col}
                                                for col in self.columns))

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in product")
        left = self.columns

        def products():
            for col in other.columns:
                acc = {}
                for k, v in col:
                    for i, a in left[k]:
                        acc[i] = acc.get(i, 0) + a * v
                yield acc
        return Matrix.from_columns(self.nrows, products())

    def transpose(self):
        cols = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                cols[i][j] = v
        return Matrix.from_columns(self.ncols, cols)

    def submatrix(self, row_idx, col_idx):
        """Rows row_idx and columns col_idx, in the order given; an index
        outside the shape raises ValueError."""
        if not all(0 <= i < self.nrows for i in row_idx):
            raise ValueError("row index outside the matrix")
        if not all(0 <= j < self.ncols for j in col_idx):
            raise ValueError("column index outside the matrix")
        where = {}
        for new, old in enumerate(row_idx):
            where.setdefault(old, []).append(new)
        return Matrix.from_columns(len(row_idx), ({new: v for i, v in self.columns[j]
                                                   for new in where.get(i, ())}
                                                  for j in col_idx))

    def is_zero(self):
        return not any(self.columns)

    def entries(self):
        """Nonzero entries as (row, col, value) triplets, row-major order."""
        rows = [[] for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                rows[i].append((i, j, v))
        return [entry for row in rows for entry in row]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class ChainComplex:
    """Labeled chain complex with integer differentials.

    labels: dict degree -> tuple of basis labels.
    differentials: dict degree k -> Matrix of shape rank(k-1) x rank(k),
    present for lo < k <= hi.  homotopies: dict degree k -> Matrix of shape
    rank(k+1) x rank(k).  Missing matrices are zero of the right shape.
    """

    def __init__(self, labels, differentials, homotopies=None):
        if not labels:
            raise ValueError("complex needs at least one degree")
        self.labels = {k: tuple(v) for k, v in labels.items()}
        self.lo = min(self.labels)
        self.hi = max(self.labels)
        if set(self.labels) != set(range(self.lo, self.hi + 1)):
            raise ValueError("degrees must be contiguous")
        self.differentials = dict(differentials)
        self.homotopies = dict(homotopies) if homotopies else {}
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

    def first_nonzero_composite(self):
        """The lowest degree k with d_{k-1} d_k nonzero, or None.

        The composite is walked column by column and never stored; the walk
        stops at the first column that holds a nonzero entry.
        """
        for k in range(self.lo + 2, self.hi + 1):
            left = self.differential(k - 1).columns
            for col in self.differential(k).columns:
                acc = {}
                for j, v in col:
                    for i, a in left[j]:
                        acc[i] = acc.get(i, 0) + a * v
                if any(acc.values()):
                    return k
        return None

    def check_complex(self):
        """Raise unless consecutive differentials compose to zero."""
        k = self.first_nonzero_composite()
        if k is not None:
            raise ValueError(f"d o d != 0 between degrees {k} and {k - 2}")

    def euler_characteristic(self):
        return sum((1 if k % 2 == 0 else -1) * self.rank(k) for k in self.degrees())


def bases(basis_of_degree):
    """{k: basis_of_degree(k)} for k = 0, 1, ... up to the first empty
    basis, which ends them; each degree is asked for once."""
    out = {}
    k = 0
    while basis := basis_of_degree(k):
        out[k] = basis
        k += 1
    return out


def alternating_differential(cur, prev, product):
    """Matrix of a bar-type differential from the basis cur to the basis prev.

    A label is a tuple of factors (x_0, ..., x_k).  Its image is the sum over
    t < k of (-1)^t times the labels with x_t, x_{t+1} replaced by each key
    of `product(t, x_t, x_{t+1})`, an iterable of (key, coefficient) pairs,
    weighted by its coefficient; every such label must lie in prev.
    """
    index = {lab: i for i, lab in enumerate(prev)}

    def columns():
        for lab in cur:
            col = {}
            for t in range(len(lab) - 1):
                sign = -1 if t % 2 else 1
                for key, c in product(t, lab[t], lab[t + 1]):
                    i = index[lab[:t] + (key,) + lab[t + 2:]]
                    col[i] = col.get(i, 0) + sign * c
            yield col
    return Matrix.from_columns(len(prev), columns())
