import gc
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from schurres.barcomplex import enumerate_bar_basis
from schurres.combinatorics import (
    _row_candidates,
    dominates,
    enumerate_compositions,
    enumerate_dominance_chains,
    enumerate_partitions,
    enumerate_weight_matrices,
    filtration_degree,
    flatten,
    is_diagonal,
    is_upper_triangular,
    margins,
    matrix_marginal,
    max_chain_length,
    multinomial,
    multiset_arrangements,
    pair_weight,
    unsorted_weight_matrices,
)
from schurres.tableaux import semistandard_tableau_count
from math import comb

from slow_paths import nested_pair_weight, unpruned_weight_matrices
from weight_tensors import (
    enumerate_multi_indices,
    enumerate_weight_tensors,
    tensor_marginal,
    triple_weight,
    weight,
)


def brute_matrices(n, r):
    """Independent oracle: scan every n*n grid with entries up to r."""
    out = set()
    for cells in product(range(r + 1), repeat=n * n):
        if sum(cells) == r:
            out.add(tuple(tuple(cells[s * n:(s + 1) * n]) for s in range(n)))
    return out


def test_weight_examples():
    assert weight((1, 1, 1), 2) == (3, 0)
    assert weight((1, 2, 1), 2) == (2, 1)
    assert weight((3, 1, 3, 3), 3) == (1, 0, 3)


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        weight((1, 3), 2)


@given(st.integers(2, 4), st.data())
def test_weight_is_permutation_invariant(n, data):
    r = data.draw(st.integers(0, 5))
    u = tuple(data.draw(st.integers(1, n)) for _ in range(r))
    sigma = data.draw(st.permutations(list(range(r))))
    shuffled = tuple(u[i] for i in sigma)
    assert weight(u, n) == weight(shuffled, n)


def test_pair_weight_examples():
    assert pair_weight((1, 1), (1, 2), 2) == ((1, 1), (0, 0))
    assert pair_weight((1, 2), (1, 2), 2) == ((1, 0), (0, 1))
    theta = triple_weight((1, 1), (2, 2), (2, 1), 2)
    assert theta[0][1][1] == 1 and theta[0][1][0] == 1
    assert sum(v for p in theta for row in p for v in row) == 2


def test_pair_weight_matches_the_nested_count():
    for n, r in [(1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        indices = enumerate_multi_indices(n, r)
        for i in indices:
            for j in indices:
                assert pair_weight(i, j, n) == nested_pair_weight(i, j, n)


def test_pair_weight_length_mismatch():
    with pytest.raises(ValueError):
        pair_weight((1,), (1, 2), 2)


def test_marginal_examples():
    assert matrix_marginal(((1, 1), (0, 0)), 1) == (1, 1)
    assert matrix_marginal(((1, 1), (0, 0)), 2) == (2, 0)
    theta = triple_weight((1, 1), (2, 2), (2, 1), 2)
    assert tensor_marginal(theta, 3) == ((0, 2), (0, 0))
    lam = (3, 1, 0)
    diag = tuple(tuple(lam[s] if s == t else 0 for t in range(3)) for s in range(3))
    assert matrix_marginal(diag, 1) == lam


def test_marginal_identities_exhaustive():
    # all five marginal identities relating pair and triple weights
    for n, r in [(2, 2), (3, 2)]:
        for i in enumerate_multi_indices(n, r):
            for j in enumerate_multi_indices(n, r):
                om = pair_weight(i, j, n)
                assert matrix_marginal(om, 1) == weight(j, n)
                assert matrix_marginal(om, 2) == weight(i, n)
                for k in enumerate_multi_indices(n, r):
                    th = triple_weight(i, j, k, n)
                    assert tensor_marginal(th, 1) == pair_weight(j, k, n)
                    assert tensor_marginal(th, 2) == pair_weight(i, k, n)
                    assert tensor_marginal(th, 3) == pair_weight(i, j, n)


def test_composition_enumeration_examples():
    assert enumerate_compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert enumerate_partitions(2, 2) == ((2, 0), (1, 1))
    assert enumerate_compositions(1, 5) == ((5,),)
    # stars and bars cross-check plus independent brute force
    assert len(enumerate_compositions(3, 3)) == comb(5, 3) == 10
    assert len(enumerate_partitions(3, 3)) == 3
    brute = {c for c in product(range(4), repeat=3) if sum(c) == 3}
    assert set(enumerate_compositions(3, 3)) == brute


def test_composition_degenerate_sizes():
    assert enumerate_compositions(3, 0) == ((0, 0, 0),)
    assert enumerate_partitions(1, 0) == ((0,),)


def test_weight_matrix_enumeration_examples():
    got = enumerate_weight_matrices(2, 2, col_sums=(1, 1), upper_triangular=True)
    assert set(got) == {((1, 0), (0, 1)), ((1, 1), (0, 0))}
    assert enumerate_weight_matrices(2, 2, col_sums=(2, 0), upper_triangular=True) \
        == (((2, 0), (0, 0)),)
    assert len(enumerate_weight_matrices(2, 2)) == comb(5, 3) == 10


def test_weight_matrix_enumeration_against_brute_force():
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        brute = brute_matrices(n, r)
        assert set(enumerate_weight_matrices(n, r)) == brute
        assert len(enumerate_weight_matrices(n, r)) == comb(n * n + r - 1, r)
        for col in enumerate_compositions(n, r):
            expect = {m for m in brute if matrix_marginal(m, 1) == col}
            assert set(enumerate_weight_matrices(n, r, col_sums=col)) == expect
        expect = {m for m in brute if is_upper_triangular(m)}
        assert set(enumerate_weight_matrices(n, r, upper_triangular=True)) == expect


def test_every_constraint_combination_against_brute_force():
    """Each enumeration, built from the cached row candidates, equals the
    canonically sorted filter of every n x n grid of total r."""
    for n in (1, 2, 3):
        for r in range(5):
            brute = brute_matrices(n, r)
            margins = (None,) + enumerate_compositions(n, r)
            for col, row in product(margins, margins):
                fits = [m for m in brute
                        if col in (None, matrix_marginal(m, 1))
                        and row in (None, matrix_marginal(m, 2))]
                for upper, min_degree in [(False, None), (True, None), (False, 1),
                                          (True, 2)]:
                    expect = [m for m in fits if (not upper and min_degree is None)
                              or is_upper_triangular(m)
                              and filtration_degree(m) >= (min_degree or 0)]
                    got = enumerate_weight_matrices(n, r, col_sums=col, row_sums=row,
                                                    upper_triangular=upper,
                                                    min_degree=min_degree)
                    assert got == tuple(sorted(expect, reverse=True)), (col, row, upper)


@pytest.mark.parametrize("n, r", [(n, r) for n in range(5) for r in range(5)]
                         + [(n, 5) for n in range(4)])
def test_pruned_enumeration_matches_the_unpruned_recursion(n, r):
    """Same matrices in the same order, for every pair of margins, each
    None or a composition, with and without upper_triangular; a total that
    a margin does not sum to gives no matrix."""
    margins = (None,) + enumerate_compositions(n, r)
    for col, row, upper in product(margins, margins, (False, True)):
        got = unsorted_weight_matrices(n, r, col, row, upper)
        assert got == unpruned_weight_matrices(n, r, col, row, upper), (col, row, upper)
        if (col, row) != (None, None):
            assert unsorted_weight_matrices(n, r + 1, col, row, upper) == []
    assert unsorted_weight_matrices(n, -1) == unpruned_weight_matrices(n, -1) == []


def test_row_candidates_hold_tuples_all_the_way_down():
    for n in (1, 2, 3):
        for caps in (None,) + enumerate_compositions(n, 3):
            for mass in range(4):
                for first in range(n):
                    rows = _row_candidates(n, mass, caps, first)
                    assert isinstance(rows, tuple)
                    assert rows == tuple(sorted(set(rows), reverse=True))
                    for row in rows:
                        assert isinstance(row, tuple) and all(type(v) is int for v in row)
                        assert sum(row) == mass and not any(row[:first])
                        assert caps is None or all(map(int.__le__, row, caps))


def test_weight_matrix_canonical_order():
    mats = enumerate_weight_matrices(2, 2)
    flat = [tuple(v for row in m for v in row) for m in mats]
    assert flat == sorted(flat, reverse=True)


def nested_tuples(shape, leaf):
    if not shape:
        return leaf
    return st.tuples(*[nested_tuples(shape[1:], leaf)] * shape[0])


@st.composite
def same_shape_tuples(draw):
    """Nested tuples of one shape: weight matrices are 2-deep, tensors,
    bar tuples and dominance chains 2- or 3-deep."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    return draw(st.lists(nested_tuples(shape, st.integers(0, 3)), max_size=12))


@given(same_shape_tuples())
def test_native_order_is_flattened_lex_order(items):
    assert sorted(items, reverse=True) == sorted(items, key=flatten, reverse=True)


def test_enumerations_come_in_flattened_lex_order():
    omega, pi = ((1, 1, 0), (1, 0, 1), (0, 1, 0)), ((1, 1, 0), (0, 1, 1), (1, 0, 0))
    for items in (enumerate_weight_matrices(3, 3),
                  enumerate_weight_matrices(3, 4, col_sums=(2, 1, 1)),
                  enumerate_weight_tensors(omega, pi),
                  enumerate_dominance_chains((1, 1, 1), 2),
                  enumerate_dominance_chains((2, 1, 1, 0), 3)):
        assert len(items) > 1
        assert list(items) == sorted(items, key=flatten, reverse=True)


def test_weight_tensor_enumeration_examples():
    # independent oracle: scan all 2x2x2 grids
    omega, pi = ((1, 1), (0, 0)), ((1, 0), (1, 0))
    brute = set()
    for cells in product(range(3), repeat=8):
        if sum(cells) != 2:
            continue
        th = tuple(tuple(tuple(cells[4 * s + 2 * t + q] for q in range(2))
                         for t in range(2)) for s in range(2))
        if tensor_marginal(th, 3) == omega and tensor_marginal(th, 1) == pi:
            brute.add(th)
    got = enumerate_weight_tensors(omega, pi)
    assert set(got) == brute
    assert len(got) == 1
    theta = got[0]
    assert theta[0][0][0] == 1 and theta[0][1][0] == 1

    # inner-marginal mismatch forces an empty expansion
    assert enumerate_weight_tensors(((2, 0), (0, 0)), ((0, 0), (0, 2))) == ()

    diag = ((2, 0), (0, 1))
    only = enumerate_weight_tensors(diag, diag)
    assert len(only) == 1
    assert all(only[0][s][t][q] == (diag[s][t] if s == t == q else 0)
               for s in range(2) for t in range(2) for q in range(2))


def test_dominance_examples():
    assert dominates((2, 0), (1, 1), strict=True)
    assert not dominates((1, 1), (1, 1), strict=True)
    assert dominates((1, 1), (1, 1))
    assert not dominates((2, 2, 0), (3, 0, 1)) and not dominates((3, 0, 1), (2, 2, 0))
    with pytest.raises(ValueError):
        dominates((1, 1), (1, 1, 0))
    with pytest.raises(ValueError):
        dominates((2, 0), (1, 1, 1))


def test_dominance_is_a_partial_order():
    universe = enumerate_compositions(3, 4)
    for a in universe:
        assert dominates(a, a)
        assert not dominates(a, a, strict=True)
        for b in universe:
            if dominates(a, b) and dominates(b, a):
                assert a == b
            for c in universe:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


def test_filtration_degree_examples():
    assert filtration_degree(((1, 0), (0, 1))) == 0
    assert filtration_degree(((0, 2), (0, 0))) == 2
    m = ((0, 0, 1), (0, 0, 1), (0, 0, 0))
    assert filtration_degree(m) == 3
    with pytest.raises(ValueError):
        filtration_degree(((0, 0), (1, 1)))


def test_degree_zero_upper_triangular_is_diagonal():
    for n in (2, 3, 4):
        for r in range(5):
            for m in enumerate_weight_matrices(n, r, upper_triangular=True):
                if filtration_degree(m) == 0:
                    assert is_diagonal(m)
                    assert matrix_marginal(m, 1) == matrix_marginal(m, 2)


def test_dominance_chain_examples():
    assert enumerate_dominance_chains((1, 1), 1) == (((2, 0),),)
    assert enumerate_dominance_chains((1, 1), 2) == ()
    assert max_chain_length(2, 2) == 3
    assert enumerate_dominance_chains((2, 0), 1) == ()
    chain = ((2, 0), (1, 1))
    assert chain in enumerate_dominance_chains((0, 2), 2)


def test_max_chain_length_matches_explicit_chains():
    for n, r in [(2, 2), (2, 3), (3, 3)]:
        best = max(
            (k + 1 for k in range(20)
             for lam in enumerate_compositions(n, r)
             if enumerate_dominance_chains(lam, k)),
            default=1)
        assert max_chain_length(n, r) == best


def scanned_max_chain_length(n, r):
    """The longest strict dominance chain by scanning every pair of
    compositions."""
    universe = enumerate_compositions(n, r)
    below = {c: tuple(d for d in universe if dominates(c, d, strict=True)) for c in universe}
    memo = {}

    def down(c):
        if c not in memo:
            memo[c] = 1 + max((down(d) for d in below[c]), default=0)
        return memo[c]

    return max((down(c) for c in universe), default=0)


def test_max_chain_length_matches_the_pairwise_scan():
    for n in range(6):
        for r in range(7):
            assert max_chain_length(n, r) == scanned_max_chain_length(n, r), (n, r)


def test_multinomial():
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1)) == 3
    assert multinomial(()) == 1
    assert multinomial((0, 4, 0)) == 1


def test_arrangements_match_a_permutation_brute_force():
    """The arrangements of a multiset of letters are its distinct orderings,
    in increasing order; the cached table holds tuples all the way down."""
    for length in range(6):
        for parts in (1, 2, 3, 5):
            for sizes in enumerate_compositions(parts, length):
                letters = [s + 1 for s, size in enumerate(sizes) for _ in range(size)]
                got = multiset_arrangements(sizes)
                assert got == tuple(sorted(set(permutations(letters)))), sizes
                assert len(got) == multinomial(sizes)
                assert isinstance(got, tuple) and all(
                    isinstance(word, tuple) and all(type(v) is int for v in word)
                    for word in got)


@pytest.mark.parametrize("call", [
    lambda: unsorted_weight_matrices(3, 5),
    lambda: unsorted_weight_matrices(3, 4, (1, 1, 2), (2, 1, 1), True),
    lambda: _row_candidates.__wrapped__(4, 3, (2, 1, 0, 3), 1),
    lambda: enumerate_dominance_chains((1, 1, 1), 2),
    lambda: enumerate_bar_basis((2, 2, 1), 3, "full"),
    lambda: semistandard_tableau_count((3, 2, 1), 3),
], ids=["weight_matrices", "constrained_weight_matrices", "row_candidates",
        "dominance_chains", "bar_basis", "semistandard_count"])
def test_enumerations_leave_no_reference_cycle(call):
    """A recursion through a nested function that names itself leaves a
    cycle holding the call's result; none of these may, so their results
    are freed as soon as they are dropped."""
    call()  # fill the caches the call reads, which are not garbage
    gc.collect()
    gc.disable()
    try:
        assert call()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_margins_are_column_sums_row_sums_and_total():
    for n, r in ((1, 0), (2, 3), (3, 3)):
        for omega in enumerate_weight_matrices(n, r):
            assert margins(omega) == (matrix_marginal(omega, 1), matrix_marginal(omega, 2), r)
    assert margins(((1, 2, 0), (0, 0, 4), (3, 0, 0))) == ((4, 2, 4), (3, 4, 3), 10)
