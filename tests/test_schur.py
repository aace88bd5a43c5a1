import random

import pytest

from schurres.combinatorics import (
    diagonal_matrix,
    enumerate_compositions,
    enumerate_weight_matrices,
    enumerate_weight_tensors,
    filtration_degree,
    flatten,
    is_upper_triangular,
    matrix_marginal,
    max_chain_length,
    transpose_matrix,
    triple_weight,
)
from schurres.schur import (
    AlgebraElement,
    basis_element,
    format_element,
    idempotent,
    identity,
    is_borel_element,
    is_ideal_element,
    multiply,
    multiply_basis,
    structure_constants,
    tensor_multiplicity,
    transpose_involution,
    zero,
)


def test_tensor_multiplicity_examples():
    diag = tuple(tuple(tuple(2 if s == t == q else 0 for q in range(2))
                       for t in range(2)) for s in range(2))
    assert tensor_multiplicity(diag) == 1
    theta = triple_weight((1, 1), (1, 2), (1, 1), 2)  # theta_111 = theta_121 = 1
    assert theta[0][0][0] == 1 and theta[0][1][0] == 1
    assert tensor_multiplicity(theta) == 2
    theta = triple_weight((1, 1, 1), (1, 1, 2), (1, 1, 1), 2)
    assert theta[0][0][0] == 2 and theta[0][1][0] == 1
    assert tensor_multiplicity(theta) == 3


def test_multiply_basis_examples():
    lam = (2, 0)
    om = ((1, 1), (0, 0))
    assert multiply_basis(diagonal_matrix(lam), om) == basis_element(om)
    assert not multiply_basis(diagonal_matrix((1, 1)), om)
    got = multiply_basis(((1, 1), (0, 0)), ((1, 0), (1, 0)))
    assert got == 2 * basis_element(((2, 0), (0, 0)))
    one = ((3,),)
    assert multiply_basis(one, one) == basis_element(one)


def test_multiply_basis_vanishing_and_margins():
    for n, r in [(2, 2), (2, 3)]:
        for om in enumerate_weight_matrices(n, r):
            for pi in enumerate_weight_matrices(n, r):
                prod = multiply_basis(om, pi)
                if matrix_marginal(om, 1) != matrix_marginal(pi, 2):
                    assert not prod
                for key in prod.terms:
                    assert matrix_marginal(key, 1) == matrix_marginal(pi, 1)
                    assert matrix_marginal(key, 2) == matrix_marginal(om, 2)


def test_multiply_basis_matches_tensor_enumeration():
    # direct two-route check of the expansion against the tensor scan
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        for om in enumerate_weight_matrices(n, r):
            for pi in enumerate_weight_matrices(n, r):
                acc = {}
                for th in enumerate_weight_tensors(om, pi):
                    key = tuple(tuple(sum(th[s][t][q] for t in range(n))
                                      for q in range(n)) for s in range(n))
                    acc[key] = acc.get(key, 0) + tensor_multiplicity(th)
                assert dict(structure_constants(om, pi)) == acc


def test_expansions_come_in_flattened_key_order():
    def by_flat_key(pairs):
        return sorted(pairs, key=lambda kv: flatten(kv[0]), reverse=True)

    mats = enumerate_weight_matrices(3, 3)
    for om in mats[::7]:
        for pi in mats[::5]:
            terms = structure_constants(om, pi)
            assert list(terms) == by_flat_key(terms)
    x = sum((c * basis_element(m) for c, m in zip(range(1, 40), mats[::-3])), zero(3, 3))
    assert len(x.items()) == 39
    assert list(x.items()) == by_flat_key(x.terms.items())


def test_multiply_bilinear():
    om = ((1, 1), (0, 0))
    pi = ((1, 0), (1, 0))
    x = basis_element(om)
    assert multiply(identity(2, 2), x) == x
    assert not multiply(zero(2, 2), x)
    assert multiply(2 * x, basis_element(pi)) == 2 * multiply_basis(om, pi)
    combo = 3 * basis_element(om) - basis_element(diagonal_matrix((1, 1)))
    expanded = 3 * multiply_basis(om, pi) - multiply_basis(diagonal_matrix((1, 1)), pi)
    assert multiply(combo, basis_element(pi)) == expanded


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        multiply_basis(((1,),), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        multiply(identity(2, 2), identity(2, 3))


def test_identity_and_idempotents():
    assert identity(1, 1) == basis_element(((1,),))
    assert not multiply(idempotent((1, 1)), idempotent((2, 0)))
    assert len(identity(2, 2).terms) == 3
    for lam in enumerate_compositions(2, 3):
        e = idempotent(lam)
        assert multiply(e, e) == e
    total = zero(2, 3)
    for lam in enumerate_compositions(2, 3):
        total = total + idempotent(lam)
    assert total == identity(2, 3)


def test_unit_laws_exhaustive():
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for lam in enumerate_compositions(n, r):
            e = idempotent(lam)
            for om in mats:
                x = basis_element(om)
                left = multiply(e, x)
                right = multiply(x, e)
                assert left == (x if matrix_marginal(om, 2) == lam else zero(n, r))
                assert right == (x if matrix_marginal(om, 1) == lam else zero(n, r))


def test_transpose_involution():
    lam = (2, 1)
    assert transpose_involution(idempotent(lam)) == idempotent(lam)
    assert transpose_involution(basis_element(((1, 1), (0, 0)))) \
        == basis_element(((1, 0), (1, 0)))
    rng = random.Random(7)
    mats = enumerate_weight_matrices(3, 3)
    for _ in range(20):
        terms = {rng.choice(mats): rng.randrange(-5, 6) for _ in range(4)}
        x = AlgebraElement(3, 3, terms)
        assert transpose_involution(transpose_involution(x)) == x


def test_transpose_is_anti_multiplicative_exhaustive():
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for om in enumerate_weight_matrices(n, r):
            for pi in enumerate_weight_matrices(n, r):
                lhs = transpose_involution(multiply_basis(om, pi))
                rhs = multiply_basis(transpose_matrix(pi), transpose_matrix(om))
                assert lhs == rhs


def test_borel_and_ideal_predicates():
    e = idempotent((1, 1))
    assert is_borel_element(e) and not is_ideal_element(e, 1)
    x = basis_element(((1, 1), (0, 0)))
    assert is_borel_element(x) and is_ideal_element(x, 1)
    assert not is_borel_element(basis_element(((1, 0), (1, 0))))
    assert is_borel_element(zero(2, 2)) and is_ideal_element(zero(2, 2), 5)


def test_filtration_climb_small():
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        uppers = enumerate_weight_matrices(n, r, upper_triangular=True)
        for om in uppers:
            for pi in uppers:
                s = filtration_degree(om) + filtration_degree(pi)
                for key, _ in structure_constants(om, pi):
                    assert is_upper_triangular(key)
                    assert filtration_degree(key) >= s


def test_nilpotency_small():
    n, r = 2, 3
    bound = max_chain_length(n, r)
    support = set(enumerate_weight_matrices(n, r, min_degree=1))
    generators = tuple(support)
    for _ in range(bound):
        support = {key for a in support for b in generators
                   for key, _ in structure_constants(a, b)}
        if not support:
            break
    assert not support


def test_associativity_exhaustive_small():
    mats = enumerate_weight_matrices(2, 2)
    for a in mats:
        for b in mats:
            ab = multiply_basis(a, b)
            for c in mats:
                bc = multiply_basis(b, c)
                assert multiply(ab, basis_element(c)) == multiply(basis_element(a), bc)


def test_format_element():
    assert format_element(zero(2, 2)) == "0"
    got = multiply_basis(((1, 1), (0, 0)), ((1, 0), (1, 0)))
    assert format_element(got) == "2*xi([[2,0],[0,0]])"
    x = basis_element(((1, 1), (0, 0))) - basis_element(((1, 0), (0, 1)))
    assert format_element(x) == "xi([[1,1],[0,0]]) + -xi([[1,0],[0,1]])"


def test_rejects_bad_keys():
    with pytest.raises(ValueError):
        AlgebraElement(2, 2, {((1, 0), (0, 0)): 1})
