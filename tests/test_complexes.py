"""The sparse Matrix against a dense list-of-lists reference."""

import pytest
from hypothesis import given, settings, strategies as st

from schurres import barcomplex, tableaux
from schurres.barcomplex import build_borel_resolution, build_weyl_resolution
from schurres.combinatorics import enumerate_compositions, enumerate_partitions
from schurres.complexes import Matrix, alternating_differential
from schurres.schurfunctor import truncated_resolution
from schurres.tableaux import build_bh_complex

from dense import from_rows, submatrix, transpose
from slow_paths import per_label_alternating_differential

# mostly zeros, so columns are sparse and sums often cancel
ENTRIES = st.sampled_from((0, 0, 0, 0, -2, -1, 1, 2, 5))


class Dense:
    """Reference matrix: every cell stored in a list of row lists."""

    def __init__(self, rows, ncols):
        self.rows = [list(row) for row in rows]
        self.nrows, self.ncols = len(self.rows), ncols

    def matrix(self):
        return from_rows(self.rows, self.ncols)

    def __matmul__(self, other):
        return Dense([[sum(row[k] * other.rows[k][j] for k in range(self.ncols))
                       for j in range(other.ncols)] for row in self.rows], other.ncols)

    def __add__(self, other):
        return Dense([[a + b for a, b in zip(ra, rb)]
                      for ra, rb in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        return Dense([[-a for a in row] for row in self.rows], self.ncols)

    def transpose(self):
        return Dense([[row[j] for row in self.rows] for j in range(self.ncols)],
                     self.nrows)

    def submatrix(self, row_idx, col_idx):
        return Dense([[self.rows[i][j] for j in col_idx] for i in row_idx], len(col_idx))

    def entries(self):
        return [(i, j, v) for i, row in enumerate(self.rows) for j, v in enumerate(row) if v]


@st.composite
def dense_matrices(draw, nrows=None, ncols=None):
    m = draw(st.integers(0, 6)) if nrows is None else nrows
    n = draw(st.integers(0, 6)) if ncols is None else ncols
    return Dense(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                               min_size=m, max_size=m)), n)


def assert_matches(mat, dense):
    assert (mat.nrows, mat.ncols) == (dense.nrows, dense.ncols)
    assert mat.rows == tuple(map(tuple, dense.rows))
    for col in mat.columns:
        assert all(v for _, v in col)
        assert [i for i, _ in col] == sorted({i for i, _ in col})


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), st.data())
def test_builders_agree_and_store_no_zero(dense, data):
    mat = dense.matrix()
    assert_matches(mat, dense)
    cells = [(i, j, v) for i, row in enumerate(dense.rows) for j, v in enumerate(row)]
    # explicit zeros, and an overwritten entry: a later triplet replaces it
    noise = [(i, j, data.draw(ENTRIES)) for i, j, _ in cells]
    assert Matrix.from_entries(dense.nrows, dense.ncols, noise + cells) == mat
    columns = [{i: dense.rows[i][j] for i in range(dense.nrows)} for j in range(dense.ncols)]
    assert Matrix.from_columns(dense.nrows, columns) == mat


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_dense(m, k, n, data):
    a = data.draw(dense_matrices(m, k))
    b = data.draw(dense_matrices(k, n))
    assert_matches(a.matrix() @ b.matrix(), a @ b)


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), st.data())
def test_add_matches_dense(a, data):
    b = data.draw(dense_matrices(a.nrows, a.ncols))
    assert_matches(a.matrix() + b.matrix(), a + b)
    # a sum that cancels stores nothing
    negated = Matrix.from_columns(a.nrows, ({i: -v for i, v in col}
                                            for col in a.matrix().columns))
    assert_matches(negated, -a)
    assert (a.matrix() + negated).columns == ((),) * a.ncols


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), st.data())
def test_transpose_and_submatrix_match_dense(a, data):
    assert_matches(transpose(a.matrix()), a.transpose())
    # any order, repeats allowed
    row_idx = data.draw(st.lists(st.integers(0, a.nrows - 1), max_size=7)) if a.nrows else []
    col_idx = data.draw(st.lists(st.integers(0, a.ncols - 1), max_size=7)) if a.ncols else []
    assert_matches(submatrix(a.matrix(), row_idx, col_idx), a.submatrix(row_idx, col_idx))


@settings(max_examples=200, deadline=None)
@given(dense_matrices())
def test_is_zero_and_entries_match_dense(a):
    assert list(a.matrix().entries()) == a.entries()
    assert (not any(a.matrix().columns)) == (not a.entries())


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), dense_matrices())
def test_equality_matches_dense(a, b):
    same = (a.nrows, a.ncols, a.rows) == (b.nrows, b.ncols, b.rows)
    assert (a.matrix() == b.matrix()) == same


def pair_objects_and_values(mat):
    """How many (row, value) tuple objects mat holds, and how many distinct
    pairs they spell."""
    pairs = [pair for col in mat.columns for pair in col]
    return len({id(pair) for pair in pairs}), len(set(pairs))


@settings(max_examples=200, deadline=None)
@given(dense_matrices(), st.data())
def test_every_builder_shares_equal_pairs(a, data):
    b = data.draw(dense_matrices(a.nrows, a.ncols))
    c = data.draw(dense_matrices(a.ncols, data.draw(st.integers(0, 6))))
    # repeated rows and columns make a submatrix repeat its pairs
    row_idx = data.draw(st.lists(st.integers(0, a.nrows - 1), max_size=9)) if a.nrows else []
    col_idx = data.draw(st.lists(st.integers(0, a.ncols - 1), max_size=9)) if a.ncols else []
    mat = a.matrix()
    built = {
        "from_rows": mat,
        "from_entries": Matrix.from_entries(a.nrows, a.ncols, a.entries()),
        "from_columns": Matrix.from_columns(
            a.nrows, [{i: a.rows[i][j] for i in range(a.nrows)} for j in range(a.ncols)]),
        "identity": Matrix.identity(a.nrows),
        "add": mat + b.matrix(),
        "matmul": mat @ c.matrix(),
        "transpose": transpose(mat),
        "submatrix": submatrix(mat, row_idx, col_idx),
    }
    for name, result in built.items():
        objects, values = pair_objects_and_values(result)
        assert objects == values, name


@pytest.mark.parametrize("build", [truncated_resolution, build_bh_complex])
def test_differentials_share_most_pairs(build):
    cx = build((2, 1, 1, 1, 0))
    objects = nnz = 0
    for k in range(cx.lo + 1, cx.hi + 1):
        mat = cx.differential(k)
        objects += pair_objects_and_values(mat)[0]
        nnz += sum(map(len, mat.columns))
    assert nnz > 1000
    assert objects <= 0.3 * nnz


def test_cancelling_products_and_empty_shapes():
    row = from_rows([[1, 1]])
    col = from_rows([[1], [-1]])
    assert (row @ col).columns == ((),)
    assert (row @ col) == Matrix.zeros(1, 1)
    assert Matrix.zeros(0, 2) != Matrix.zeros(2, 0)
    assert (Matrix.zeros(2, 0) @ Matrix.zeros(0, 3)) == Matrix.zeros(2, 3)
    assert Matrix.identity(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_builders_reject_bad_shapes():
    with pytest.raises(ValueError):
        from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        from_rows([])
    with pytest.raises(ValueError):
        Matrix.from_entries(2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        Matrix.from_entries(2, 2, [(0, 2, 1)])
    with pytest.raises(ValueError):
        Matrix.from_columns(1, [{1: 1}])
    with pytest.raises(ValueError):
        from_rows([[1]]) @ from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        from_rows([[1]]) + from_rows([[1, 2]])


def test_submatrix_rejects_indices_outside_the_shape():
    mat = from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="column index"):
        submatrix(mat, [0, 1], [-1])  # not the last column
    with pytest.raises(ValueError, match="row index"):
        submatrix(mat, [5, 0], [0])  # not a zero row
    with pytest.raises(ValueError, match="column index"):
        submatrix(mat, [0], [2])
    with pytest.raises(ValueError, match="row index"):
        submatrix(mat, [-1], [0])
    assert submatrix(mat, [1, 1], [1, 0]) == from_rows([[4, 3], [4, 3]])


def test_matrix_is_immutable():
    mat = from_rows([[1, 0], [2, 3]])
    assert isinstance(mat.rows, tuple) and all(isinstance(row, tuple) for row in mat.rows)
    assert isinstance(mat.columns, tuple)
    with pytest.raises(TypeError):
        mat.rows[0][0] = 5
    with pytest.raises(TypeError):
        mat.columns[0] = ()
    for name in ("nrows", "ncols", "columns", "rows"):
        with pytest.raises(AttributeError):
            setattr(mat, name, None)
    assert mat.rows == ((1, 0), (2, 3))


@pytest.fixture
def assembled_twice(monkeypatch):
    """Every builder's differentials assembled by `alternating_differential`
    and by the per-label reference, asserted equal degree by degree; yields
    the list of compared shapes."""
    shapes = []

    def both(cur, prev, head_product, tail_product):
        mat = alternating_differential(cur, prev, head_product, tail_product)
        assert mat == per_label_alternating_differential(cur, prev, head_product, tail_product)
        shapes.append((mat.nrows, mat.ncols))
        return mat

    for module in (barcomplex, tableaux):
        monkeypatch.setattr(module, "alternating_differential", both)
    return shapes


@pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3) for r in range(5)] + [(4, 4)])
def test_bar_differentials_match_the_per_label_assembly(assembled_twice, n, r):
    # every composition at n <= 3, every partition at n = 4
    lams = enumerate_compositions(n, r) if n < 4 else enumerate_partitions(n, r)
    built = [build(lam) for lam in lams for build in (build_borel_resolution,
                                                      build_weyl_resolution)]
    # each differential of degree 1 .. hi comes from the assembler
    assert len(assembled_twice) == sum(cx.hi for cx in built)


@pytest.mark.parametrize("build", [truncated_resolution, build_bh_complex])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_truncation_and_bh_differentials_match_the_per_label_assembly(
        assembled_twice, build, r):
    # every partition with n = r, but (1^5), whose two builds take about a
    # minute each; the slow test below covers it
    built = [build(lam) for lam in enumerate_partitions(r, r) if lam != (1,) * 5]
    assert len(assembled_twice) == sum(cx.hi for cx in built)


@pytest.mark.slow
@pytest.mark.parametrize("build", [truncated_resolution, build_bh_complex])
def test_the_1_5_differentials_match_the_per_label_assembly(assembled_twice, build):
    build((1,) * 5)
    assert len(assembled_twice) == 10


def table_product(table):
    """The head and the tail product answering (a, b) from table, keyed
    (0, a, b) for the head and (1, a, b) for the tail; empty where it has no
    entry."""
    return (lambda a, b: table.get((0, a, b), ()), lambda a, b: table.get((1, a, b), ()))


@pytest.mark.parametrize("cur, prev, table", [
    # t = 0: the new head is no head of prev
    ((("a", "b"),), (("c",),), {(0, "a", "b"): (("z", 1),)}),
    # t = 0: head and tail both occur in prev, but not together
    ((("a", "b", "c"),), (("z", "d"), ("y", "c")), {(0, "a", "b"): (("z", 1),)}),
    # t = 0, a zero coefficient is refused too
    ((("a", "b", "c"),), (("y", "c"),), {(0, "a", "b"): (("y", 1), ("z", 0))}),
    # t = 0: the tail kept is no tail of prev
    ((("a", "b", "c"),), (("z", "d"),), {(0, "a", "b"): (("z", 1),)}),
    # t = 1: the new tail is no tail of prev
    ((("a", "b", "c"),), (("a", "d"),), {(1, "b", "c"): (("w", 1),)}),
    # t = 1: the head is no head of prev
    ((("a", "b", "c"),), (("x", "w"),), {(1, "b", "c"): (("w", 1),)}),
    # t = 1: head and tail both occur in prev, but not together
    ((("a", "b", "c"),), (("a", "d"), ("x", "w")), {(1, "b", "c"): (("w", 1),)}),
    # t = 2, with two terms whose coefficients cancel
    ((("a", "b", "c", "d"),), (("a", "b", "c"),),
     {(1, "c", "d"): (("e", 1),), (1, "b", "c"): (("e", 1),)}),
])
def test_a_target_outside_prev_raises_key_error(cur, prev, table):
    for assemble in (alternating_differential, per_label_alternating_differential):
        with pytest.raises(KeyError):
            assemble(cur, prev, *table_product(table))


def test_a_hand_assembled_differential():
    # d(a, b, c) = (ab, c) - (a, bc), with ab = 2 y - z and bc = 3 w
    cur = (("a", "b", "c"), ("x", "b", "c"))
    prev = (("y", "c"), ("z", "c"), ("a", "w"), ("x", "w"))
    table = {(0, "a", "b"): (("y", 2), ("z", -1)), (0, "x", "b"): (("z", 1),),
             (1, "b", "c"): (("w", 3),)}
    mat = alternating_differential(cur, prev, *table_product(table))
    assert mat == from_rows([[2, 0], [-1, 1], [-3, 0], [0, -3]])
    assert mat == per_label_alternating_differential(cur, prev, *table_product(table))
