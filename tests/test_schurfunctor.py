import pytest

from schurres.combinatorics import enumerate_weight_matrices, matrix_marginal, pair_weight
from schurres.homology import homology
from schurres.schur import basis_element, multiply_basis
from schurres.schurfunctor import (
    all_permutations,
    compose_permutations,
    multilinear_weight,
    truncated_resolution,
)
from tableau_maps import weight_matrix_permutation
from weight_tensors import enumerate_weight_tensors, tensor_multiplicity


def as_permutation(images):
    images = tuple(images)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError("not a permutation of 1..r")
    return images


def identity_permutation(r):
    return tuple(range(1, r + 1))


def invert_permutation(a):
    inv = [0] * len(a)
    for t, v in enumerate(a):
        inv[v - 1] = t + 1
    return tuple(inv)


def test_multilinear_weight_examples():
    assert multilinear_weight(2, 2) == (1, 1)
    assert multilinear_weight(4, 2) == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        multilinear_weight(1, 2)


def test_permutation_helpers():
    with pytest.raises(ValueError):
        as_permutation((1, 1))
    assert identity_permutation(3) == (1, 2, 3)
    sigma = (2, 3, 1)
    assert compose_permutations(sigma, invert_permutation(sigma)) == (1, 2, 3)
    # right factor acts first
    assert compose_permutations((2, 1, 3), (1, 3, 2)) == (2, 3, 1)


def test_permutation_weight_matrix_examples():
    # a permutation's weight matrix is its pair weight against the identity
    assert pair_weight((1, 2), (1, 2), 2) == ((1, 0), (0, 1))
    assert pair_weight((2, 1), (1, 2), 2) == ((0, 1), (1, 0))
    padded = pair_weight((2, 1), (1, 2), 3)
    assert matrix_marginal(padded, 1) == (1, 1, 0)
    for sigma in all_permutations(3):
        assert weight_matrix_permutation(pair_weight(sigma, (1, 2, 3), 3)) == sigma
    with pytest.raises(ValueError):
        weight_matrix_permutation(((2, 0), (0, 0)))


def test_group_embedding_small():
    for r in (1, 2, 3):
        n = r
        identity = identity_permutation(r)
        for sigma in all_permutations(r):
            ws = pair_weight(sigma, identity, n)
            for tau in all_permutations(r):
                wt = pair_weight(tau, identity, n)
                product = multiply_basis(ws, wt)
                expected = pair_weight(compose_permutations(sigma, tau), identity, n)
                assert product == basis_element(expected)
                thetas = enumerate_weight_tensors(ws, wt)
                assert len(thetas) == 1
                assert tensor_multiplicity(thetas[0]) == 1


def test_apply_schur_functor_ranks():
    fx = truncated_resolution((1, 1))
    assert [fx.rank(k) for k in fx.degrees()] == [2, 1]
    h0 = homology(fx, 0)
    assert h0.is_free and h0.free_rank == 1

    fx = truncated_resolution((2, 0))
    expected0 = len([m for m in enumerate_weight_matrices(2, 2, col_sums=(2, 0))
                     if matrix_marginal(m, 2) == (1, 1)])
    assert fx.rank(0) == expected0 == 1


def test_functor_requires_enough_rows():
    with pytest.raises(ValueError):
        truncated_resolution((2, 1))
