"""Sparse immutable integer matrices and graded chain complexes of labeled
free modules.

A matrix is stored by columns: each column is a tuple of (row, value) pairs
in increasing row order, holding no zero.  Differentials are very sparse, so
every operation walks these pairs and never a dense cell grid; `rows` builds
a dense view on request.  Every builder and operation (`from_entries`,
`identity`, `+`, `@`) produces its columns as {row: value} dicts and hands
them to `from_columns`, the one place that makes pair tuples; it makes one
tuple per distinct pair of the matrix and shares it between the columns
that hold it.  A product's columns come from one generator, which `@`
stores and `ChainComplex.check_complex` only tests.  No code changes a
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
products on two such bases from the builder's head product, which replaces
the head x_0 of a label by its product with x_1, and its tail product,
which multiplies two adjacent factors of the tail (x_1, ..., x_k) (on the
induced resolution, id tensor the bar differential).  It asks only for
factors adjacent in a label, which compose by the construction of the
bases; composability of arbitrary pairs is settled where the product lives
(`schur` for the structure constants).  Builders only
build: `ChainComplex.check_complex`, the one d o d walk, is called once per
complex by the code that hands out a verdict or a document resting on it.
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

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch in product")
        return Matrix.from_columns(self.nrows, _product_columns(self, other))

    def entries(self):
        """Nonzero entries as (row, col, value) triplets, yielded in
        row-major order from the columns bucketed by row once."""
        rows = [[] for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                rows[i].append((j, v))
        for i, row in enumerate(rows):
            for j, v in row:
                yield i, j, v

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

    def check_complex(self):
        """Raise ValueError, naming the lowest degree k with d_{k-1} d_k
        nonzero, unless consecutive differentials compose to zero.

        The composite is walked column by column and never stored; the walk
        stops at the first column that holds a nonzero entry.
        """
        for k in range(self.lo + 2, self.hi + 1):
            columns = _product_columns(self.differential(k - 1), self.differential(k))
            if any(any(col.values()) for col in columns):
                raise ValueError(f"d o d != 0 between degrees {k} and {k - 2}")


def _product_columns(left, right):
    """The columns of left @ right as {row: value} dicts, which may hold
    zeros, one at a time."""
    left = left.columns
    for col in right.columns:
        acc = {}
        for k, v in col:
            for i, a in left[k]:
                acc[i] = acc.get(i, 0) + a * v
        yield acc


def bases(basis_of_degree):
    """{k: basis_of_degree(k)} for k = 0, 1, ... up to the first empty
    basis, which ends them; each degree is asked for once."""
    out = {}
    k = 0
    while basis := basis_of_degree(k):
        out[k] = basis
        k += 1
    return out


def alternating_differential(cur, prev, head_product, tail_product):
    """Matrix of a bar-type differential from the basis cur to the basis prev.

    A label is a tuple of factors (x_0, ..., x_k), k >= 1: a head x_0 and a
    tail (x_1, ..., x_k).  Its image is the sum over t < k of (-1)^t times
    the labels with x_t, x_{t+1} replaced by each key of their product,
    weighted by its coefficient: `head_product(x_0, x_1)` for t = 0 and
    `tail_product(x_t, x_{t+1})` for t >= 1, each an iterable of (key,
    coefficient) pairs.  Every label so reached must lie in prev, or
    KeyError is raised.

    Labels are never rebuilt or hashed whole.  Each distinct head and each
    distinct tail of prev gets a small integer id, and `rows[tail id]` maps
    head ids to rows.  The t = 0 term keeps the rest (x_2, ..., x_k) of the
    tail, so the head product is expanded once per distinct pair (x_0, x_1),
    into head ids and coefficients.  The terms with t >= 1 keep the head, so
    the tail products are expanded once per distinct tail of cur, into the
    ids of the tails they reach and signed coefficients.  Placing a label's
    terms then takes integer-keyed lookups alone.  Every key is looked up
    when its product is expanded and every term when it is placed, zero
    coefficients included, so a target outside prev raises KeyError instead
    of being dropped.
    """
    heads, tails, rows = {}, {}, []
    for i, lab in enumerate(prev):
        tail = tails.setdefault(lab[1:], len(tails))
        if tail == len(rows):
            rows.append({})
        rows[tail][heads.setdefault(lab[0], len(heads))] = i
    # (x_0, x_1) -> (head id of x_0, or None if it heads no label of prev,
    # head ids of the keys, their coefficients)
    firsts = {}
    # tail of cur -> (rows of its rest, tail ids reached, signed
    # coefficients); ids and coefficients are kept in two tuples rather than
    # one pair a term, as this cache holds one entry per tail of cur
    moves = {}

    def first_terms(x0, x1):
        acc = {}
        for key, c in head_product(x0, x1):
            h = heads[key]
            acc[h] = acc.get(h, 0) + c
        return heads.get(x0), tuple(acc), tuple(acc.values())

    def tail_terms(tail):
        # a rest that is no tail of prev gets no rows, so that placing a
        # t = 0 term there raises KeyError
        rest = tails.get(tail[1:])
        acc = {}
        for t in range(1, len(tail)):
            sign = -1 if t % 2 else 1
            for key, c in tail_product(tail[t - 1], tail[t]):
                j = tails[tail[:t - 1] + (key,) + tail[t + 1:]]
                acc[j] = acc.get(j, 0) + sign * c
        return {} if rest is None else rows[rest], tuple(acc), tuple(acc.values())

    def columns():
        for lab in cur:
            pair, tail = lab[:2], lab[1:]
            head, hs, hcs = firsts.get(pair) or firsts.setdefault(pair, first_terms(*pair))
            rest, js, jcs = moves.get(tail) or moves.setdefault(tail, tail_terms(tail))
            col = {rest[h]: c for h, c in zip(hs, hcs)}  # distinct heads, distinct rows
            for j, c in zip(js, jcs):
                i = rows[j][head]
                col[i] = col.get(i, 0) + c
            yield col
    return Matrix.from_columns(len(prev), columns())
