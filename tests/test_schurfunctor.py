import pytest

from schurres.barcomplex import build_weyl_resolution
from schurres.combinatorics import enumerate_weight_matrices, matrix_marginal
from schurres.homology import homology, verify_exactness
from schurres.schur import basis_element, multiply_basis
from schurres.schurfunctor import (
    all_permutations,
    apply_schur_functor,
    as_permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
    multilinear_weight,
    permutation_weight_matrix,
    weight_matrix_permutation,
)
from schurres.tableaux import standard_tableau_count
from schurres.combinatorics import enumerate_weight_tensors
from schurres.schur import tensor_multiplicity


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
    assert permutation_weight_matrix((1, 2), 2) == ((1, 0), (0, 1))
    assert permutation_weight_matrix((2, 1), 2) == ((0, 1), (1, 0))
    padded = permutation_weight_matrix((2, 1), 3)
    assert matrix_marginal(padded, 1) == (1, 1, 0)
    for sigma in all_permutations(3):
        assert weight_matrix_permutation(permutation_weight_matrix(sigma, 3)) == sigma
    with pytest.raises(ValueError):
        weight_matrix_permutation(((2, 0), (0, 0)))


def test_group_embedding_small():
    for r in (1, 2, 3):
        n = r
        for sigma in all_permutations(r):
            ws = permutation_weight_matrix(sigma, n)
            for tau in all_permutations(r):
                wt = permutation_weight_matrix(tau, n)
                product = multiply_basis(ws, wt)
                expected = permutation_weight_matrix(
                    compose_permutations(sigma, tau), n)
                assert product == basis_element(expected)
                thetas = enumerate_weight_tensors(ws, wt)
                assert len(thetas) == 1
                assert tensor_multiplicity(thetas[0]) == 1


def test_apply_schur_functor_ranks():
    fx = apply_schur_functor(build_weyl_resolution((1, 1)))
    assert [fx.rank(k) for k in fx.degrees()] == [2, 1]
    h0 = homology(fx, 0)
    assert h0.is_free and h0.free_rank == 1

    fx = apply_schur_functor(build_weyl_resolution((2, 0)))
    expected0 = len([m for m in enumerate_weight_matrices(2, 2, col_sums=(2, 0))
                     if matrix_marginal(m, 2) == (1, 1)])
    assert fx.rank(0) == expected0 == 1


def test_functor_preserves_complex_axiom_and_exactness():
    for lam in [(2, 1, 0), (1, 1, 1), (3, 0, 0)]:
        fx = apply_schur_functor(build_weyl_resolution(lam))
        fx.check_complex()
        assert verify_exactness(fx, list(range(1, fx.hi + 1))).ok
        h0 = homology(fx, 0)
        assert h0.is_free
        assert h0.free_rank == standard_tableau_count(lam)


def test_truncated_resolution_matches_selection():
    from schurres.schurfunctor import truncated_resolution
    # at n=4, r=4 all but (1,1,1,1), whose full resolution is too large
    for lam in [(1, 1), (2, 0), (2, 1, 0), (1, 1, 1), (3, 0, 0),
                (4, 0, 0, 0), (3, 1, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0)]:
        direct = truncated_resolution(lam)
        selected = apply_schur_functor(build_weyl_resolution(lam))
        assert direct.labels == selected.labels
        assert all(direct.differential(k) == selected.differential(k)
                   for k in range(direct.lo + 1, direct.hi + 1))


def test_functor_requires_weyl_variant():
    from schurres.barcomplex import build_borel_resolution
    with pytest.raises(ValueError):
        apply_schur_functor(build_borel_resolution((1, 1)))


def test_functor_requires_enough_rows():
    with pytest.raises(ValueError):
        apply_schur_functor(build_weyl_resolution((2, 1)))
