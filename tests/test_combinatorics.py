from itertools import product

import pytest
from hypothesis import given, strategies as st

from schurres.combinatorics import (
    dominates,
    enumerate_compositions,
    enumerate_dominance_chains,
    enumerate_multi_indices,
    enumerate_partitions,
    enumerate_weight_matrices,
    enumerate_weight_tensors,
    filtration_degree,
    flatten,
    is_diagonal,
    is_upper_triangular,
    matrix_marginal,
    max_chain_length,
    multinomial,
    pair_weight,
    tensor_marginal,
    triple_weight,
    weight,
)
from math import comb


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


def test_multinomial():
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1)) == 3
    assert multinomial(()) == 1
    assert multinomial((0, 4, 0)) == 1
