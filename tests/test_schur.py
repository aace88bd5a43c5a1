import random

import pytest
from hypothesis import given, settings, strategies as st

from schurres import barcomplex
from schurres.combinatorics import (
    diagonal_matrix,
    enumerate_compositions,
    enumerate_weight_matrices,
    filtration_degree,
    flatten,
    is_upper_triangular,
    matrix_marginal,
    max_chain_length,
    transpose_matrix,
)
from schurres.dividedpowers import gl_action
from schurres.oracles import compose, decode, endo_of_basis, green_convolution, tensor_power_action
from schurres.schur import (
    AlgebraElement,
    _slice_table,
    basis_element,
    format_element,
    identity,
    multiply,
    multiply_basis,
    structure_constants,
    zero,
)
from schurres.schurfunctor import truncated_resolution
from slow_paths import regrouping_product
from weight_tensors import (
    enumerate_weight_tensors,
    reference_structure_constants,
    tensor_multiplicity,
    triple_weight,
)


def idempotent(lam):
    """The diagonal idempotent attached to a composition."""
    return basis_element(diagonal_matrix(tuple(lam)))


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


def nested_tuples_of_ints(value):
    return type(value) is int or (
        isinstance(value, tuple) and all(map(nested_tuples_of_ints, value)))


def check_against_reference(omega, pi):
    got = structure_constants(omega, pi)
    assert got == reference_structure_constants(omega, pi), (omega, pi)
    assert nested_tuples_of_ints(got)


def test_structure_constants_match_the_cartesian_reference():
    """Every composable pair at n <= 3, r <= 4 and at n = 4, r = 3, plus a
    sample of the pairs whose product vanishes."""
    rng = random.Random(5)
    sizes = [(n, r) for n in (1, 2, 3) for r in range(5)] + [(4, 3)]
    composable = 0
    for n, r in sizes:
        mats = enumerate_weight_matrices(n, r)
        for omega in mats:
            for pi in enumerate_weight_matrices(n, r, row_sums=matrix_marginal(omega, 1)):
                check_against_reference(omega, pi)
                composable += 1
        for _ in range(200):
            omega, pi = rng.choice(mats), rng.choice(mats)
            if matrix_marginal(omega, 1) != matrix_marginal(pi, 2):
                assert structure_constants(omega, pi) == ()
    assert composable > 40000


def test_structure_constants_match_the_reference_on_a_truncation(monkeypatch):
    asked = set()
    fast = barcomplex.structure_constants

    def record(omega, pi):
        asked.add((omega, pi))
        return fast(omega, pi)

    monkeypatch.setattr(barcomplex, "structure_constants", record)
    truncated_resolution((2, 1, 1, 1, 0))
    assert len(asked) > 1000
    for omega, pi in asked:
        check_against_reference(omega, pi)


@st.composite
def product_pairs(draw):
    """(omega, pi) at n <= 4, r <= 5; pi is composable with omega in most draws."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    omega = draw(st.sampled_from(enumerate_weight_matrices(n, r)))
    inner = matrix_marginal(omega, 1) if draw(st.integers(0, 3)) else None
    return omega, draw(st.sampled_from(enumerate_weight_matrices(n, r, row_sums=inner)))


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_structure_constants_match_the_reference_on_random_pairs(pair):
    check_against_reference(*pair)


def reference_product(x, y):
    """x * y by the double loop over every pair of terms, composable or not."""
    terms = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for key, m in structure_constants(a, b):
                terms[key] = terms.get(key, 0) + ca * cb * m
    return AlgebraElement(x.n, x.r, terms)


@st.composite
def element_pairs(draw):
    """Two elements at n <= 3, r <= 3; most of their term pairs do not compose."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    terms = st.dictionaries(st.sampled_from(enumerate_weight_matrices(n, r)),
                            st.integers(-3, 3), max_size=8)
    return AlgebraElement(n, r, draw(terms)), AlgebraElement(n, r, draw(terms))


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_products_match_the_double_loop_over_all_term_pairs(pair):
    x, y = pair
    assert x * y == reference_product(x, y)


def test_a_pair_that_cannot_compose_adds_no_cache_entry():
    omega, pi = ((2, 0), (0, 1)), ((1, 0), (1, 1))  # column sums (2, 1), row sums (1, 2)
    before = structure_constants.cache_info()
    assert multiply_basis(omega, pi) is zero(2, 3)
    assert structure_constants.cache_info() == before


def test_the_shared_zero_refuses_rebinding():
    for name in ("n", "r", "terms", "_by_col_sums"):
        with pytest.raises(AttributeError):
            setattr(zero(2, 2), name, {((2, 0), (0, 0)): 5})
    assert format_element(zero(2, 2)) == "0"
    assert zero(2, 2) * basis_element(((2, 0), (0, 0))) is zero(2, 2)


def test_all_basis_products_at_3_3_cache_only_the_composable_pairs():
    mats = enumerate_weight_matrices(3, 3)
    composable = sum(matrix_marginal(omega, 1) == matrix_marginal(pi, 2)
                     for omega in mats for pi in mats)
    assert (len(mats), composable) == (165, 2973)
    structure_constants.cache_clear()
    for omega in mats:
        for pi in mats:
            multiply_basis(omega, pi)
    assert structure_constants.cache_info().currsize == composable


def test_products_sharing_a_key_share_one_key_object():
    mats = enumerate_weight_matrices(3, 3)
    seen = {}
    occurrences = 0
    for omega in mats:
        for pi in enumerate_weight_matrices(3, 3, row_sums=matrix_marginal(omega, 1)):
            for key, _ in structure_constants(omega, pi):
                assert seen.setdefault(key, key) is key, key
                occurrences += 1
    assert occurrences > len(seen)  # keys really are shared between products


def test_slice_tables_hold_tuples_all_the_way_down():
    omega, pi = ((1, 1, 0), (1, 0, 1), (0, 1, 0)), ((1, 1, 0), (0, 1, 1), (1, 0, 0))
    assert structure_constants(omega, pi)
    for t in range(3):
        column = tuple(row[t] for row in omega)
        table = _slice_table(column, pi[t], (3).bit_length())
        assert table and nested_tuples_of_ints(table)


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


def transpose_involution(x):
    """The anti-automorphism transposing every basis key."""
    return AlgebraElement(x.n, x.r, {transpose_matrix(k): c for k, c in x.terms.items()})


def is_borel_element(x):
    """True when every key is upper triangular."""
    return all(is_upper_triangular(k) for k in x.terms)


def is_ideal_element(x, s):
    """True when every key is upper triangular of filtration degree >= s."""
    return all(is_upper_triangular(k) and filtration_degree(k) >= s for k in x.terms)


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
    with pytest.raises(ValueError):  # checked although its coefficient is zero
        AlgebraElement(2, 2, {((1, 1), (0, 0)): 1, ((1, 0), (0, 0)): 0})
    with pytest.raises(ValueError):
        AlgebraElement(3, 2, {((1, 1), (0, 0)): 1})
    g, pi = ((1, 2, 0), (0, -1, 3), (2, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 1, 0))
    image = gl_action(g, pi)
    assert AlgebraElement(3, 3, image).terms == {k: c for k, c in image.items() if c}
    with pytest.raises(ValueError):
        AlgebraElement(3, 2, image)
    with pytest.raises(ValueError):
        AlgebraElement(2, 3, image)


def test_products_match_the_regrouping_product_on_all_basis_pairs():
    """Each left factor is built once, so its kept grouping serves every
    product it is the left factor of."""
    for n, r in [(2, r) for r in range(5)] + [(3, r) for r in range(4)]:
        mats = enumerate_weight_matrices(n, r)
        rights = [basis_element(pi) for pi in mats]
        for omega in mats:
            x = basis_element(omega)
            for pi, y in zip(mats, rights):
                got = x * y
                assert got == regrouping_product(x, y) == multiply_basis(omega, pi), (omega, pi)
                assert hash(got) == hash(regrouping_product(x, y))


def seeded_matrices(n, count, seed):
    rng = random.Random(seed)
    return [tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))
            for _ in range(count)]


def test_group_images_times_basis_elements_match_the_regrouping_product():
    for g in seeded_matrices(3, 20, 28):
        rho = tensor_power_action(g, 3)
        for pi in enumerate_weight_matrices(3, 3):
            xi = basis_element(pi)
            assert rho * xi == regrouping_product(rho, xi), (g, pi)
            assert xi * rho == regrouping_product(xi, rho), (g, pi)
        assert rho * rho == regrouping_product(rho, rho), g


def revalidated(x):
    """x rebuilt through the constructor, which checks every key."""
    return AlgebraElement(x.n, x.r, dict(x.terms))


def test_trusted_elements_equal_the_validated_ones():
    mats = enumerate_weight_matrices(3, 3)
    rng = random.Random(5)
    for _ in range(30):
        terms = {rng.choice(mats): rng.randrange(-2, 3) for _ in range(6)}
        assert AlgebraElement.trusted(3, 3, dict(terms)) == AlgebraElement(3, 3, terms)
    x = AlgebraElement(3, 3, {mats[0]: 2, mats[40]: -1, mats[77]: 3})
    y = AlgebraElement(3, 3, {mats[3]: 1, mats[40]: 1, mats[160]: -4})
    g = ((1, 0, 2), (0, 0, -1), (3, 1, 0))
    results = [x + y, x - y, x - x, -x, 3 * x, x * 0, x * y, y * x,
               multiply_basis(mats[10], mats[20]), basis_element(mats[7]), identity(3, 3),
               zero(3, 3), tensor_power_action(g, 3), tensor_power_action(g, 0),
               decode(compose(endo_of_basis(mats[30]), endo_of_basis(mats[50])))]
    results += [green_convolution(omega, pi) for omega in mats[::20] for pi in mats[::15]]
    for got in results:
        assert got == revalidated(got)
        assert all(got.terms.values())
    assert (x - x) is (x * 0) is zero(3, 3)  # one shared zero per (n, r)
    # the zero entries of g give zero monomials, which are dropped
    assert len(tensor_power_action(g, 3).terms) < len(mats)


def test_terms_are_read_only():
    omega = ((1, 1), (0, 0))
    built = AlgebraElement(2, 2, {omega: 1})
    for x, c in ((built, 1), (basis_element(omega), 1), (built * identity(2, 2), 1),
                 (built + built, 2)):
        with pytest.raises(TypeError):
            x.terms[omega] = 5
        with pytest.raises(TypeError):
            del x.terms[omega]
        assert x.terms == {omega: c}
