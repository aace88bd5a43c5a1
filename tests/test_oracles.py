import random
from itertools import product

import pytest

from schurres.combinatorics import (
    diagonal_matrix,
    enumerate_weight_matrices,
    flatten,
    is_upper_triangular,
    matrix_marginal,
    multinomial,
    pair_weight,
)
from schurres.oracles import (
    TensorEndomorphism,
    compose,
    decode,
    endo_of_basis,
    green_convolution,
    monomial_eval,
    oracle_limit,
    orbit,
    tensor_power_action,
)
from schurres.schur import AlgebraElement, basis_element, identity, multiply, multiply_basis

from dense import matmul
from slow_paths import per_candidate_green_convolution
from weight_tensors import enumerate_multi_indices


def tensor_action_endo(g, r):
    """The action of g on the r-th tensor power as an explicit endomorphism
    on multi-indices, for cross-checking the weight-matrix expansion."""
    n = len(g)
    columns = [[(s + 1, g[s][t]) for s in range(n) if g[s][t]] for t in range(n)]
    terms = {}
    for i in enumerate_multi_indices(n, r):
        for picks in product(*(columns[v - 1] for v in i)):
            c = 1
            for _, gv in picks:
                c *= gv
            key = (tuple(s for s, _ in picks), i)
            terms[key] = terms.get(key, 0) + c
    return TensorEndomorphism(n, r, terms)


def basis_unit_count(n, r):
    """Total matrix units across all basis orbits; equals n**(2*r)."""
    return sum(multinomial(flatten(omega)) for omega in enumerate_weight_matrices(n, r))


def test_endo_of_basis_examples():
    f = endo_of_basis(((1, 0), (0, 1)))
    assert f.terms == {((1, 2), (1, 2)): 1, ((2, 1), (2, 1)): 1}
    g = endo_of_basis(((2, 0), (0, 0)))
    assert g.terms == {((1, 1), (1, 1)): 1}


def test_orbits_partition_all_pairs():
    for n, r in [(2, 2), (2, 3)]:
        seen = set()
        for om in enumerate_weight_matrices(n, r):
            pairs = orbit(om)
            assert not seen & set(pairs)
            seen.update(pairs)
        assert len(seen) == n ** (2 * r) == basis_unit_count(n, r)


def test_orbit_is_an_immutable_tuple_of_the_orbit_size():
    for n in range(1, 4):
        for r in range(4):
            for om in enumerate_weight_matrices(n, r):
                pairs = orbit(om)
                assert isinstance(pairs, tuple)
                assert all(isinstance(pair, tuple) for pair in pairs)
                assert len(pairs) == len(set(pairs)) == multinomial(flatten(om))
                assert all(pair_weight(i, j, n) == om for i, j in pairs)


def test_endo_of_basis_terms_are_read_only():
    # every call returns one cached endomorphism, so a caller able to change
    # its terms would change what later calls return
    om = ((1, 1), (0, 1))
    first = endo_of_basis(om)
    with pytest.raises(TypeError):
        first.terms[((1, 1, 1), (1, 1, 1))] = 7
    with pytest.raises(TypeError):
        del first.terms[orbit(om)[0]]
    with pytest.raises(TypeError):
        first.by_first[(1, 1, 1)] = ()
    assert endo_of_basis(om).terms == dict.fromkeys(orbit(om), 1)


def test_compose_and_decode():
    lam = diagonal_matrix((1, 1))
    e = endo_of_basis(lam)
    assert decode(compose(e, e)) == basis_element(lam)
    om, pi = ((1, 1), (0, 0)), ((1, 0), (1, 0))
    got = decode(compose(endo_of_basis(om), endo_of_basis(pi)))
    assert got == 2 * basis_element(((2, 0), (0, 0)))
    zero_endo = TensorEndomorphism(2, 2, {})
    assert not decode(compose(endo_of_basis(om), zero_endo)).terms


def test_decode_rejects_non_invariant():
    f = TensorEndomorphism(2, 2, {(((1, 2)), ((1, 2))): 1})
    with pytest.raises(ValueError):
        decode(f)


def test_green_convolution_examples():
    for om in enumerate_weight_matrices(2, 2):
        for pi in enumerate_weight_matrices(2, 2):
            assert green_convolution(om, pi) == multiply_basis(om, pi)
    assert not green_convolution(((2, 0), (0, 0)), ((0, 0), (0, 2)))
    lam = diagonal_matrix((2, 1))
    assert green_convolution(lam, lam) == basis_element(lam)


def reference_green_convolution(omega, pi):
    """The convolution product scanning every middle multi-index."""
    n = len(omega)
    r = sum(map(sum, omega))
    if matrix_marginal(omega, 1) != matrix_marginal(pi, 2):
        return AlgebraElement(n, r, {})
    candidates = enumerate_weight_matrices(
        n, r, col_sums=matrix_marginal(pi, 1), row_sums=matrix_marginal(omega, 2))
    indices = enumerate_multi_indices(n, r)
    terms = {}
    for tau in candidates:
        i, j = orbit(tau)[0]
        count = 0
        for k in indices:
            if pair_weight(i, k, n) == omega and pair_weight(k, j, n) == pi:
                count += 1
        if count:
            terms[tau] = count
    return AlgebraElement(n, r, terms)


def test_green_convolution_matches_the_per_candidate_scan():
    for n, r in [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for om in mats:
            for pi in mats:
                assert green_convolution(om, pi) == per_candidate_green_convolution(om, pi)


def test_green_convolution_matches_the_full_scan():
    for n, r in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)]:
        mats = enumerate_weight_matrices(n, r)
        for om in mats:
            for pi in mats:
                assert green_convolution(om, pi) == reference_green_convolution(om, pi)


def test_triple_agreement_degenerate_sizes():
    for n, r in [(1, 1), (1, 3), (3, 1), (2, 1)]:
        mats = enumerate_weight_matrices(n, r)
        for om in mats:
            left = endo_of_basis(om)
            for pi in mats:
                direct = multiply_basis(om, pi)
                assert direct == decode(compose(left, endo_of_basis(pi)))
                assert direct == green_convolution(om, pi)


def test_monomial_eval_examples():
    ident = ((1, 0), (0, 1))
    assert monomial_eval(((2, 0), (0, 0)), ident) == 1
    assert monomial_eval(((1, 1), (0, 0)), ident) == 0
    assert monomial_eval(((1, 1), (0, 1)), ((1, 2), (3, 4))) == 8


def test_tensor_power_action_examples():
    ident = ((1, 0), (0, 1))
    assert tensor_power_action(ident, 2) == identity(2, 2)
    assert tensor_power_action(((5,),), 1) == 5 * basis_element(((1,),))
    upper = ((1, 1), (0, 1))
    got = tensor_power_action(upper, 2)
    expected_keys = set(enumerate_weight_matrices(2, 2, upper_triangular=True))
    assert set(got.terms) == expected_keys
    assert all(c == 1 for c in got.terms.values())
    assert all(is_upper_triangular(k) for k in got.terms)


def test_tensor_power_action_is_multiplicative():
    rng = random.Random(3)
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(25):
            g = tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))
            h = tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))
            lhs = multiply(tensor_power_action(g, r), tensor_power_action(h, r))
            assert lhs == tensor_power_action(matmul(g, h), r)


def test_action_endomorphism_agrees_with_expansion():
    # both sides are homogeneous of degree r in the entries of g, and such a
    # polynomial is fixed by its values at the weight matrices of total r,
    # so this proves that g^(tensor r) is the algebra image of g at these
    # sizes: what lets the oracle suite stand for multiplicativity
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        for g in enumerate_weight_matrices(n, r):
            assert decode(tensor_action_endo(g, r)) == tensor_power_action(g, r)


def test_size_guard(set_oracle_limit):
    set_oracle_limit(None)
    with pytest.raises(ValueError):
        endo_of_basis(diagonal_matrix((13,) + (0,) * 1))
    with pytest.raises(ValueError):
        green_convolution(diagonal_matrix((13, 0)), diagonal_matrix((13, 0)))
    set_oracle_limit("10000")
    endo_of_basis(diagonal_matrix((13, 0)))


def test_a_cached_basis_endomorphism_refuses_rebinding():
    w = ((1, 1), (0, 1))
    f = endo_of_basis(w)
    for name in ("n", "r", "terms", "by_first"):
        with pytest.raises(AttributeError):
            setattr(f, name, {})
    assert endo_of_basis(w) is f
    assert f.terms == dict.fromkeys(orbit(w), 1) and f.by_first


def test_size_guard_runs_on_every_call(set_oracle_limit):
    big = diagonal_matrix((13, 0))
    set_oracle_limit("10000")
    assert endo_of_basis(big).terms == {((1,) * 13, (1,) * 13): 1}
    set_oracle_limit(None)
    # the endomorphism is cached by now, and still refused
    with pytest.raises(ValueError, match="size guard"):
        endo_of_basis(big)
    # a pair that does not compose is zero, and still refused
    with pytest.raises(ValueError, match="size guard"):
        green_convolution(big, diagonal_matrix((0, 13)))


def test_the_limit_is_read_once_until_the_reader_is_reset(set_oracle_limit, monkeypatch):
    big = diagonal_matrix((13, 0))
    set_oracle_limit("10000")
    endo_of_basis(big)  # the first guard call reads the variable
    monkeypatch.delenv("SCHURRES_ORACLE_LIMIT")
    assert oracle_limit() == 10000
    endo_of_basis(big)  # the change is not seen
    oracle_limit.cache_clear()
    assert oracle_limit() == 4096
    with pytest.raises(ValueError, match=r"size guard \(4096\)"):
        endo_of_basis(big)
    monkeypatch.setenv("SCHURRES_ORACLE_LIMIT", "10000")
    with pytest.raises(ValueError, match="size guard"):
        green_convolution(big, big)  # nor is a raised limit


def test_degenerate_rank_zero():
    assert tensor_power_action(((2, 0), (0, 2)), 0) == identity(2, 0)
    lam0 = diagonal_matrix((0, 0))
    assert decode(compose(endo_of_basis(lam0), endo_of_basis(lam0))) \
        == basis_element(lam0)
    assert green_convolution(lam0, lam0) == basis_element(lam0)
