import importlib
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from schurres.barcomplex import build_borel_resolution, build_weyl_resolution
from schurres.cli import _maybe_corrupt, main as cli_main
from schurres.combinatorics import enumerate_compositions, enumerate_partitions
from schurres.complexes import ChainComplex, Matrix
from schurres.homology import (
    HomologyGroup,
    base_change,
    homology,
    homology_groups,
    is_prime,
    prime_power_factors,
    rank_mod_p,
    smith_normal_form,
    verify_exactness,
)

from dense import dense_smith_normal_form, from_rows, submatrix, transpose

# the package's `homology` attribute is the function of that name
homology_module = importlib.import_module("schurres.homology")
NON_UNITS = (-4, -3, -2, 0, 2, 3, 4)
COMPOSITES = (-12, -6, 0, 4, 6, 10, 15)


@st.composite
def int_matrices(draw, max_dim=8):
    """Integer matrices of shape up to max_dim, with entries in [-4, 4], in
    the non-units among them, or in composite non-units; the last two have
    no entry +-1, so the reduction pivots on least entries."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entries = st.sampled_from(draw(st.sampled_from((range(-4, 5), NON_UNITS, COMPOSITES))))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return from_rows(rows, n)


def dense_rank_mod_p(mat, p):
    """Rank over F_p by dense modular row reduction (test oracle)."""
    rows = [[v % p for v in row] for row in mat.rows]
    rk = 0
    for col in range(mat.ncols):
        pivot = next((i for i in range(rk, mat.nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = pow(rows[rk][col], p - 2, p)
        rows[rk] = [v * inv % p for v in rows[rk]]
        for i in range(rk + 1, mat.nrows):
            if rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def dense_ranks_mod_p(cx, p):
    """{k: rank over F_p of d_k} by dense modular row reduction."""
    return {k: dense_rank_mod_p(cx.differential(k), p) for k in range(cx.lo + 1, cx.hi + 1)}


def groups_from_ranks(cx, p, ranks):
    """Homology over F_p of every degree, as dimensions from the ranks over
    F_p of the differentials."""
    return {k: HomologyGroup(cx.rank(k) - ranks.get(k, 0) - ranks.get(k + 1, 0), (), p)
            for k in cx.degrees()}


def fraction_rank(mat):
    """Rank over the rationals by fraction elimination (test oracle)."""
    rows = [[Fraction(v) for v in row] for row in mat.rows]
    rk = 0
    for col in range(mat.ncols):
        pivot = next((i for i in range(rk, mat.nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = 1 / rows[rk][col]
        rows[rk] = [v * inv for v in rows[rk]]
        for i in range(mat.nrows):
            if i != rk and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
        if rk == mat.nrows:
            break
    return rk


def fraction_det(mat):
    """Independent determinant by fraction elimination (test oracle)."""
    n = mat.nrows
    rows = [[Fraction(v) for v in row] for row in mat.rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col]:
                c = rows[i][col] * inv
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[col])]
    return det


def test_smith_form_examples():
    assert smith_normal_form(Matrix.identity(3)).factors == (1, 1, 1)
    assert smith_normal_form(from_rows([[2, 0], [0, 3]])).factors == (1, 6)
    assert smith_normal_form(Matrix.zeros(3, 2)).factors == ()
    # one unit pivot, then a residual [[2, 4], [6, 8]] with factors 2, 4
    residual = from_rows([[0, 2, 4], [1, 5, -3], [0, 6, 8]])
    assert smith_normal_form(residual).factors == (1, 2, 4)
    # a diagonal that is no divisibility chain: (4, 6) becomes (gcd, lcm)
    assert smith_normal_form(from_rows([[4, 0], [0, 6]])).factors == (2, 12)
    # Euclid within one column
    assert smith_normal_form(from_rows([[4], [6]])).factors == (2,)


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_sparse_smith_matches_dense(mat):
    assert smith_normal_form(mat).factors == dense_smith_normal_form(mat).factors


@settings(max_examples=150, deadline=None)
@given(int_matrices(max_dim=6), st.data())
def test_sparse_smith_invariant_under_unimodular_ops(mat, data):
    reference = smith_normal_form(mat).factors
    rows = [list(row) for row in mat.rows]
    for _ in range(data.draw(st.integers(0, 8))):
        on_rows = data.draw(st.booleans())
        size = mat.nrows if on_rows else mat.ncols
        if size < 2:
            continue
        i, j = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                                  unique=True))
        c = data.draw(st.integers(-3, 3))
        if on_rows:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            rows[i], rows[j] = rows[j], [-a for a in rows[i]]
        else:
            for row in rows:
                row[i] += c * row[j]
                row[i], row[j] = row[j], -row[i]
    assert smith_normal_form(from_rows(rows, mat.ncols)).factors == reference


@settings(max_examples=200, deadline=None)
@given(int_matrices(), st.sampled_from((2, 3, 5, 7)))
def test_rank_mod_p_matches_dense_elimination(mat, p):
    assert rank_mod_p(mat, p) == dense_rank_mod_p(mat, p)


def test_sparse_and_dense_smith_agree_on_resolutions():
    """Every Borel and Weyl resolution of a partition at n=3, r<=4, and the
    Weyl (2,2,1) resolution, whose d_2 (426 x 582) is the only differential
    at n=3, r<=5 whose unit sweeps leave entries (18 x 12, no unit)."""
    complexes = [(lam, build(lam)) for r in range(1, 5) for lam in enumerate_partitions(3, r)
                 for build in (build_borel_resolution, build_weyl_resolution)]
    seen = 0
    for lam, cx in complexes + [((2, 2, 1), build_weyl_resolution((2, 2, 1)))]:
        for k in range(cx.lo + 1, cx.hi + 1):
            d = cx.differential(k)
            assert (smith_normal_form(d).factors
                    == dense_smith_normal_form(d).factors), (lam, k)
            for p in (2, 3, 5):
                assert rank_mod_p(d, p) == dense_rank_mod_p(d, p), (lam, k, p)
            seen += 1
    assert seen > 20


def test_smith_form_of_a_unit_free_band_stays_sparse():
    """Column j of the 200 x 200 band is {j: 2, (j + 1) % 200: 4}: no unit, so
    every pivot is a least entry.  The dense reduction of it peaks at about
    690 KiB of traced memory, the sparse one at about 100 KiB."""
    size = 200
    band = Matrix.from_columns(size, ({j: 2, (j + 1) % size: 4} for j in range(size)))
    tracemalloc.start()
    try:
        factors = smith_normal_form(band).factors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors == dense_smith_normal_form(band).factors
    assert peak < 256 << 10, peak


def test_mod_p_homology_matches_dense_ranks():
    """Every Borel resolution (all compositions) and every Weyl resolution
    (all partitions) at n=3, r<=4: each rank mod p from the invariant
    factors over Z against dense modular row reduction, and dimensions over
    F_p from homology_groups against the free ranks of the latter."""
    seen = 0
    for r in range(1, 5):
        complexes = [build_borel_resolution(lam) for lam in enumerate_compositions(3, r)]
        complexes += [build_weyl_resolution(lam) for lam in enumerate_partitions(3, r)]
        for cx in complexes:
            for p in (2, 3, 5):
                ranks = dense_ranks_mod_p(cx, p)
                assert {k: rank_mod_p(cx.differential(k), p) for k in ranks} == ranks
                expected = groups_from_ranks(cx, p, ranks)
                assert homology_groups(cx, p=p) == expected, (
                    [cx.rank(k) for k in cx.degrees()], p)
                seen += 1
    assert seen == 3 * 44


@st.composite
def two_term_complexes(draw):
    """Z^m <-d- Z^n for an integer matrix d, torsion in H_0 included."""
    d = draw(int_matrices())
    return ChainComplex({0: tuple(range(d.nrows)), 1: tuple(range(d.ncols))}, {1: d})


@settings(max_examples=100, deadline=None)
@given(two_term_complexes())
def test_homology_over_f_p_matches_dense_ranks_where_torsion_matters(two_term):
    # torsion_complex has torsion of orders 2, 4 and 3, both in H_1 and in H_0
    for cx in (torsion_complex(), two_term):
        for p in (2, 3, 5, 7):
            expected = groups_from_ranks(cx, p, dense_ranks_mod_p(cx, p))
            assert homology_groups(cx, p=p) == expected, p
            assert base_change(homology_groups(cx), p) == expected, p


def test_verify_reduces_each_differential_over_z_once(monkeypatch, capsys):
    reduced = []  # holding each matrix keeps its id unique
    real = homology_module.smith_normal_form

    def counting(mat):
        reduced.append(mat)
        return real(mat)

    def reduced_mod_p(*args):
        raise AssertionError("a matrix was reduced mod p")

    monkeypatch.setattr(homology_module, "smith_normal_form", counting)
    monkeypatch.setattr(homology_module, "rank_mod_p", reduced_mod_p)
    assert cli_main(["verify", "-n", "3", "-r", "4", "--checks", "exactness",
                     "--mod", "2,3,5"]) == 0
    assert capsys.readouterr().out == "ok exactness (n=3, r=4)\n"
    # each differential of the Weyl resolution of each partition once; the
    # Borel resolutions are proved exact by their homotopy, with no Smith form
    differentials = sum(cx.hi - cx.lo for cx in map(build_weyl_resolution,
                                                    enumerate_partitions(3, 4)))
    assert len(reduced) == differentials
    assert len({id(mat) for mat in reduced}) == len(reduced)


def test_verify_proves_a_borel_resolution_exact_without_a_smith_form(monkeypatch, capsys):
    reduced = []
    real = homology_module.smith_normal_form
    monkeypatch.setattr(homology_module, "smith_normal_form",
                        lambda mat: reduced.append(mat) or real(mat))
    # (0,2) is no partition, so only its Borel resolution is built
    assert cli_main(["verify", "-n", "2", "-r", "2", "--lambda", "0,2",
                     "--checks", "exactness"]) == 0
    assert capsys.readouterr().out == "ok exactness (n=2, r=2)\n"
    assert reduced == []


def test_a_corrupted_copy_is_reduced_afresh_and_fails_mod_2():
    cx = build_weyl_resolution((2, 1, 0))
    exact = homology_groups(cx, p=2)
    assert exact == {0: HomologyGroup(8, (), 2), 1: HomologyGroup(0, (), 2)}
    bad = _maybe_corrupt(cx, (1, 0, 0, 1))
    assert homology_groups(bad, p=2) == {0: HomologyGroup(9, (), 2),
                                         1: HomologyGroup(1, (), 2)}
    assert rank_mod_p(bad.differential(1), 2) == dense_rank_mod_p(bad.differential(1), 2)
    assert homology_groups(cx, p=2) == exact


def test_homology_rejects_a_non_prime_before_any_differential():
    one_degree = ChainComplex({0: ("a", "b")}, {})
    assert homology(one_degree, 0, p=2) == HomologyGroup(2, (), 2)
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            homology(one_degree, 0, p=p)
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            base_change({0: HomologyGroup(2, ())}, p)


def test_smith_form_divisibility_chain():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = from_rows([[rng.randrange(-9, 10) for _ in range(n)]
                                for _ in range(m)])
        factors = smith_normal_form(mat).factors
        assert all(f > 0 for f in factors)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        assert len(factors) == fraction_rank(mat)


@settings(max_examples=200, deadline=None)
@given(int_matrices(max_dim=4))
def test_smith_factors_are_quotients_of_determinantal_divisors(mat):
    """The product of the first i invariant factors is the gcd of all i x i
    minors (zero beyond the rank), which determines the factors."""
    factors = smith_normal_form(mat).factors
    for i in range(1, min(mat.nrows, mat.ncols) + 1):
        minors = [fraction_det(submatrix(mat, rows, cols))
                  for rows in combinations(range(mat.nrows), i)
                  for cols in combinations(range(mat.ncols), i)]
        assert all(m.denominator == 1 for m in minors)
        divisor = math.gcd(*(int(m) for m in minors))
        assert divisor == (math.prod(factors[:i]) if i <= len(factors) else 0), i


def test_smith_form_invariant_under_unimodular_ops():
    rng = random.Random(5)
    base = from_rows([[6, 4, 2], [2, 8, 0], [0, 0, 5]])
    reference = smith_normal_form(base).factors
    for _ in range(25):
        rows = [list(row) for row in base.rows]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randrange(-3, 4)
            if rng.random() < 0.5:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            else:
                for row in rows:
                    row[i] += c * row[j]
        assert smith_normal_form(from_rows(rows)).factors == reference


def test_homology_examples():
    # exact: 0 -> Z --id--> Z -> 0
    exact = ChainComplex({0: ("a",), 1: ("b",)}, {1: Matrix.identity(1)})
    assert homology(exact, 0).is_trivial and homology(exact, 1).is_trivial
    # 0 -> Z --2--> Z -> 0 has H_0 = Z/2
    doubling = ChainComplex({0: ("a",), 1: ("b",)},
                            {1: from_rows([[2]])})
    assert homology(doubling, 0) == HomologyGroup(0, (2,))
    assert homology(doubling, 1).is_trivial
    with pytest.raises(ValueError):
        homology(doubling, 2)


def test_homology_groups_match_single_degrees():
    w = build_weyl_resolution((2, 1, 0))
    groups = homology_groups(w)
    assert list(groups) == list(w.degrees())
    assert groups == {k: homology(w, k) for k in w.degrees()}
    assert homology_groups(w, [1]) == {1: groups[1]}
    with pytest.raises(ValueError):
        homology_groups(w, [w.hi + 1])


def test_homology_of_weyl_sized_matrix():
    from schurres.barcomplex import build_weyl_resolution
    w = build_weyl_resolution((1, 1))
    d1 = w.differential(1)
    assert (d1.nrows, d1.ncols) == (4, 3)
    # two independent rank routes
    assert fraction_rank(d1) == len(smith_normal_form(d1).factors) == 3
    assert homology(w, 1).is_trivial
    assert homology(w, 0) == HomologyGroup(1, ())


def test_rank_routes_agree():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        mat = from_rows([[rng.randrange(-6, 7) for _ in range(n)]
                                for _ in range(m)])
        factors = smith_normal_form(mat).factors
        assert fraction_rank(mat) == len(factors)
        for p in (2, 3, 5, 7):
            if all(f % p for f in factors):
                assert rank_mod_p(mat, p) == len(factors)
    with pytest.raises(ValueError):
        rank_mod_p(Matrix.identity(2), 4)


def test_verify_exactness_and_negative_control():
    from schurres.barcomplex import build_weyl_resolution
    w = build_weyl_resolution((1, 1))
    assert verify_exactness(w, [1]).ok
    d1 = w.differential(1)
    corrupted = ChainComplex(
        w.labels, {1: d1 + Matrix.from_entries(d1.nrows, d1.ncols, [(0, 0, 1)])})
    report = verify_exactness(corrupted, [0, 1])
    assert not report.ok
    assert report.failures()


def test_verify_exactness_with_expected_groups():
    w = build_weyl_resolution((1, 1))
    assert not verify_exactness(w).ok
    assert verify_exactness(w, expected={0: HomologyGroup(1, ())}).ok
    report = verify_exactness(w, expected={0: HomologyGroup(2, ())})
    assert [k for k, _ in report.failures()] == [0]


@pytest.mark.parametrize("degrees, expected", [
    ([1], {0: HomologyGroup(99, ())}),  # a degree of the complex left unchecked
    (None, {-1: HomologyGroup(0, ())}),  # a degree outside the complex
])
def test_verify_exactness_refuses_an_expectation_it_would_not_check(degrees, expected):
    with pytest.raises(ValueError, match="not checked"):
        verify_exactness(build_weyl_resolution((2, 1, 0)), degrees, expected)


def test_verify_exactness_reports_complex_axiom():
    labels = {0: ("a", "b"), 1: ("c",), 2: ("d",)}
    d1 = from_rows([[1], [0]])
    d2 = from_rows([[1]])
    broken = ChainComplex(labels, {1: d1, 2: d2})
    report = verify_exactness(broken)
    assert not report.complex_ok and not report.ok


def test_d_squared_checks_catch_a_composite_nonzero_only_in_its_last_column(monkeypatch):
    # d_1 d_2 = [0 0 1]; the walk finds it without forming the product
    labels = {0: ("a",), 1: ("b", "c"), 2: ("x", "y", "z")}
    d1 = from_rows([[1, 0]])
    d2 = from_rows([[0, 0, 1], [0, 1, 0]])
    broken = ChainComplex(labels, {1: d1, 2: d2})

    def no_product(*args):
        raise AssertionError("the d o d check formed a product matrix")

    monkeypatch.setattr(Matrix, "__matmul__", no_product)
    with pytest.raises(ValueError, match="between degrees 2 and 0"):
        broken.check_complex()
    report = verify_exactness(broken)
    assert not report.complex_ok and not report.ok
    fixed = ChainComplex(labels, {1: d1, 2: from_rows([[0, 0, 0], [0, 1, 0]])})
    fixed.check_complex()
    assert verify_exactness(fixed).complex_ok


def trial_division_is_prime(p):
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power_factors(12) == (3, 4)
    assert prime_power_factors(6) == (2, 3)
    assert prime_power_factors(8) == (8,)


def trial_division_factors(d):
    """Prime-power decomposition by trial division up to the square root."""
    out = []
    q = 2
    while q * q <= d:
        if d % q == 0:
            power = 1
            while d % q == 0:
                d //= q
                power *= q
            out.append(power)
        q += 1
    if d > 1:
        out.append(d)
    return tuple(sorted(out))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6))
def test_prime_power_factors_match_trial_division(d):
    assert prime_power_factors(d) == trial_division_factors(d)


def test_large_prime_torsion_is_split_in_milliseconds():
    for d in (10 ** 12 + 39, 10 ** 18 + 3):
        cx = ChainComplex({0: ("a",), 1: ("b",)}, {1: from_rows([[d]])})
        start = time.perf_counter()
        assert homology_groups(cx) == {0: HomologyGroup(0, (d,)), 1: HomologyGroup(0, ())}
        assert homology_groups(cx, p=d) == {0: HomologyGroup(1, (), d),
                                            1: HomologyGroup(1, (), d)}
        assert time.perf_counter() - start < 0.1, d
    assert prime_power_factors(12 * (10 ** 18 + 3)) == (3, 4, 10 ** 18 + 3)
    assert prime_power_factors(2 ** 100 * 5) == (5, 2 ** 100)


def test_prime_power_factors_refuses_a_composite_without_small_factors():
    # 1000003 and 1000033 are the two smallest primes above 10^6
    for d in (1000003 * 1000033, (10 ** 18 + 3) ** 2):
        with pytest.raises(ValueError, match="no prime factor up to 1000000"):
            prime_power_factors(d)


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert all(is_prime(p) == trial_division_is_prime(p) for p in range(-3, 10 ** 5))


def test_is_prime_rejects_strong_pseudoprimes_and_refuses_huge_moduli():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1) and is_prime(10 ** 12 + 39)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        rank_mod_p(Matrix.identity(2), 2 ** 89 - 1)


def test_homology_group_str():
    assert str(HomologyGroup(0, ())) == "0"
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_homology_over_a_prime_field_records_the_prime():
    cx = build_weyl_resolution((2, 1, 0))
    over_z, over_f2 = homology(cx, 0), homology(cx, 0, p=2)
    assert (str(over_z), str(over_f2)) == ("Z^8", "F_2^8")
    assert over_f2 == HomologyGroup(8, (), 2) != over_z
    assert homology_groups(cx, p=3) == {k: HomologyGroup(8 if k == 0 else 0, (), 3)
                                        for k in cx.degrees()}
    assert (str(HomologyGroup(1, (), 3)), str(HomologyGroup(0, (), 5))) == ("F_3", "0")
    assert repr(over_f2) == "HomologyGroup(free_rank=8, torsion=(), prime=2)"
    assert repr(HomologyGroup(1, (2,))) == "HomologyGroup(free_rank=1, torsion=(2,))"


def test_homology_records_are_immutable_values():
    smith = smith_normal_form(Matrix.from_entries(2, 2, [(0, 0, 2), (1, 1, 3)]))
    group = HomologyGroup(1, (2,))
    report = verify_exactness(build_weyl_resolution((1, 1)), expected={0: HomologyGroup(1, ())})
    assert (smith.factors, smith.rank, report.ok) == ((1, 6), 2, True)
    for record, field in ((smith, "factors"), (group, "torsion"), (report, "complex_ok")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        group.rank = 1  # nor can a field be added
    assert group == HomologyGroup(free_rank=1, torsion=(2,), prime=None)
    assert hash(group) == hash(HomologyGroup(1, (2,)))
    assert group != HomologyGroup(1, (2,), 2) and group != HomologyGroup(1, ())
    assert len({group, HomologyGroup(1, (2,)), HomologyGroup(1, (2,), 2)}) == 2


def unimodular_pair(data, size):
    """A random unimodular matrix and its inverse, as a product of
    elementary operations: adding c times one row to another, and swapping
    two rows while negating one."""
    u = inverse = Matrix.identity(size)
    for _ in range(data.draw(st.integers(0, 6)) if size > 1 else 0):
        i, j = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2,
                                  unique=True))
        rest = [(t, t, 1) for t in range(size) if t not in (i, j)]
        if data.draw(st.booleans()):
            c = data.draw(st.integers(-3, 3))
            diagonal = [(t, t, 1) for t in range(size)]
            op = Matrix.from_entries(size, size, diagonal + [(i, j, c)])
            op_inverse = Matrix.from_entries(size, size, diagonal + [(i, j, -c)])
        else:
            op = Matrix.from_entries(size, size, rest + [(i, j, 1), (j, i, -1)])
            op_inverse = transpose(op)
        u, inverse = op @ u, inverse @ op_inverse
    assert u @ inverse == Matrix.identity(size)
    return u, inverse


def torsion_complex():
    """Z^3 <- Z^3 <- Z: H0 = Z + Z/2 + Z/4, H1 = Z/2 + Z/3, H2 = 0."""
    d1 = from_rows([[2, 0, 0], [0, 4, 0], [0, 0, 0]])
    d2 = from_rows([[0], [0], [6]])
    return ChainComplex({0: "abc", 1: "def", 2: "g"}, {1: d1, 2: d2})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("torsion", (2, 1, 0), (1, 1))), st.data())
def test_homology_invariant_under_unimodular_conjugation(which, data):
    cx = torsion_complex() if which == "torsion" else build_weyl_resolution(which)
    change = {k: unimodular_pair(data, cx.rank(k)) for k in cx.degrees()}
    conjugated = ChainComplex(
        cx.labels,
        {k: change[k - 1][0] @ cx.differential(k) @ change[k][1]
         for k in range(cx.lo + 1, cx.hi + 1)})
    conjugated.check_complex()
    assert homology_groups(conjugated) == homology_groups(cx)


def test_torsion_complex_homology():
    assert homology_groups(torsion_complex()) == {
        0: HomologyGroup(1, (2, 4)), 1: HomologyGroup(0, (2, 3)), 2: HomologyGroup(0, ())}
