import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schurres import dividedpowers
from schurres.combinatorics import (
    enumerate_compositions,
    enumerate_weight_matrices,
    matrix_marginal,
    multinomial,
)
from schurres.dividedpowers import (
    divided_basis,
    divided_power_of_vector,
    divided_product,
    gl_action,
    verify_equivariance,
)
from schurres.homology import smith_normal_form
from schurres.oracles import monomial_eval, tensor_power_action
from schurres.schur import AlgebraElement, basis_element, multiply, structure_constants, zero

from dense import from_rows, matmul
from slow_paths import per_call_gl_action


def random_matrix(rng, n, lo=-3, hi=3):
    return tuple(tuple(rng.randrange(lo, hi + 1) for _ in range(n)) for _ in range(n))


def generator_power(q, k, n):
    """The basis monomial with the q-th generator raised to the k-th divided
    power (1-based q)."""
    return {tuple(k if i == q - 1 else 0 for i in range(n)): 1}


def compose_action(g, h, pi):
    """Act by h, then by g, extending the action linearly."""
    out = {}
    for mid, c in gl_action(h, pi).items():
        for key, d in gl_action(g, mid).items():
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


def reference_gl_action(g, pi):
    """The action through the weight-tensor expansion: every weight tensor
    with axis-1 marginal pi contributes its multiplicity times the monomial
    evaluation of its axis-3 marginal at g, on the monomial of its axis-2
    marginal."""
    n = len(pi)
    if len(g) != n:
        raise ValueError("matrix size mismatch")
    cells = [(t, q) for t in range(n) for q in range(n)]
    choices = [enumerate_compositions(n, pi[t][q]) for t, q in cells]
    out = {}
    for picks in product(*choices):
        theta = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (t, q), fiber in zip(cells, picks):
            for s in range(n):
                theta[s][t][q] = fiber[s]
        coeff = 1
        target = []
        evaluated = []
        for s in range(n):
            row2 = []
            row3 = []
            for q in range(n):
                fiber_t = tuple(theta[s][t][q] for t in range(n))
                coeff *= multinomial(fiber_t)
                row2.append(sum(fiber_t))
            for t in range(n):
                row3.append(sum(theta[s][t][q] for q in range(n)))
            target.append(tuple(row2))
            evaluated.append(tuple(row3))
        coeff *= monomial_eval(tuple(evaluated), g)
        if coeff:
            key = tuple(target)
            out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def singular_and_random_matrices(rng, n):
    """The zero matrix, a rank-one matrix, a matrix whose last row repeats
    the first (singular for n > 1), and three random matrices."""
    u = [rng.randrange(-3, 4) for _ in range(n)]
    v = [rng.randrange(-3, 4) for _ in range(n)]
    repeated = random_matrix(rng, n)
    return [
        tuple(tuple(0 for _ in range(n)) for _ in range(n)),
        tuple(tuple(a * b for b in v) for a in u),
        repeated[:-1] + repeated[:1],
        *(random_matrix(rng, n) for _ in range(3)),
    ]


def test_divided_basis_counts():
    assert len(divided_basis((1, 1))) == 4
    assert len(divided_basis((5,))) == 1
    assert len(divided_basis((2, 0))) == 3
    for lam in enumerate_compositions(3, 3):
        expected = 1
        for part in lam:
            expected *= comb(3 + part - 1, part)
        assert len(divided_basis(lam)) == expected


def test_single_factor_relations():
    e1 = generator_power(1, 1, 2)
    assert divided_product(e1, e1) == {(2, 0): 2}
    assert divided_product(generator_power(1, 3, 2), generator_power(2, 2, 2)) \
        == {(3, 2): 1}
    assert divided_power_of_vector((1, 1), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert divided_power_of_vector((2, 1), 2) == {(2, 0): 4, (1, 1): 2, (0, 2): 1}
    with pytest.raises(ValueError):
        divided_product({(1,): 1}, {(1, 0): 1})


def test_gl_action_identity_and_shear():
    ident = ((1, 0), (0, 1))
    for pi in divided_basis((1, 1)):
        assert gl_action(ident, pi) == {pi: 1}
    # lower shear on the square of the first generator
    shear = ((1, 0), (1, 1))
    pi = ((2, 0), (0, 0))
    assert gl_action(shear, pi) == {
        ((2, 0), (0, 0)): 1, ((1, 0), (1, 0)): 1, ((0, 0), (2, 0)): 1}


def test_gl_action_routes_agree():
    rng = random.Random(2)
    for n in range(1, 4):
        for r in range(4):
            for lam in enumerate_compositions(n, r):
                for g in singular_and_random_matrices(rng, n):
                    for pi in divided_basis(lam):
                        assert gl_action(g, pi) == reference_gl_action(g, pi), (g, pi)


def test_gl_action_matches_the_per_call_loop():
    rng = random.Random(4)
    for n in range(1, 4):
        matrices = singular_and_random_matrices(rng, n)
        matrices += [random_matrix(rng, n) for _ in range(20 - len(matrices))]
        bases = [pi for r in range(4) for lam in enumerate_compositions(n, r)
                 for pi in divided_basis(lam)]
        for g in matrices:
            for pi in bases:
                expected = per_call_gl_action(g, pi)
                assert gl_action(g, pi) == expected, (g, pi)
                # the result is the caller's own: changing it changes no later call
                gl_action(g, pi)[pi] = 7
                assert gl_action(g, pi) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_gl_action_matches_the_reference_on_any_matrix(n, r, data):
    g = data.draw(st.tuples(*(st.tuples(*(st.integers(-3, 3),) * n),) * n))
    lam = data.draw(st.sampled_from(enumerate_compositions(n, r)))
    for pi in divided_basis(lam):
        assert gl_action(g, pi) == reference_gl_action(g, pi)


def test_gl_action_rejects_a_matrix_of_the_wrong_size():
    pi = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="size mismatch"):
        gl_action(((1, 0, 0), (0, 1, 0), (0, 0, 1)), pi)
    with pytest.raises(ValueError, match="size mismatch"):
        gl_action(((1,),), pi)


def test_gl_action_composes():
    rng = random.Random(4)
    for lam in [(1, 1), (2, 0), (2, 1)]:
        n = len(lam)
        for _ in range(10):
            g = random_matrix(rng, n, -2, 2)
            h = random_matrix(rng, n, -2, 2)
            for pi in divided_basis(lam):
                assert compose_action(g, h, pi) == gl_action(matmul(g, h), pi)


def test_action_coefficients_match_structure_constants_termwise():
    # the action expansion equals the sum over keys of the algebra products
    # weighted by monomial evaluation
    rng = random.Random(9)
    for lam in [(1, 1), (2, 0), (2, 1)]:
        n, r = len(lam), sum(lam)
        for _ in range(5):
            g = random_matrix(rng, n, -2, 2)
            for pi in divided_basis(lam):
                total = {}
                for om in enumerate_weight_matrices(n, r):
                    c = monomial_eval(om, g)
                    if not c:
                        continue
                    for key, m in structure_constants(om, pi):
                        total[key] = total.get(key, 0) + c * m
                total = {k: v for k, v in total.items() if v}
                assert gl_action(g, pi) == total


def test_equivariance_examples():
    assert verify_equivariance((1, 1, 1)) == (True, ())

    # explicit 3-term comparison: the upper shear spreads the square of the
    # second generator over three monomials
    g = ((1, 1), (0, 1))
    pi = ((0, 0), (2, 0))
    lhs = AlgebraElement(2, 2, gl_action(g, pi))
    rhs = multiply(tensor_power_action(g, 2), basis_element(pi))
    assert len(lhs.terms) == 3 and lhs == rhs

    for lam in enumerate_compositions(3, 2):
        assert verify_equivariance(lam) == (True, ())


def test_equivariance_on_full_bases_small():
    for lam in [(2, 2), (2, 1), (1, 1, 1), (0,), (3,), (2, 0, 1, 1)]:
        assert verify_equivariance(lam) == (True, ())


def test_equivariance_acts_on_each_monomial_at_its_lattice_points(monkeypatch):
    # pi is acted on by exactly the weight matrices whose column sums are
    # its row sums, each once
    calls = []
    real = dividedpowers.gl_action
    monkeypatch.setattr(dividedpowers, "gl_action",
                        lambda g, pi: calls.append((g, pi)) or real(g, pi))
    for lam in [(2, 1, 0), (1, 1, 1), (0, 2)]:
        calls.clear()
        assert verify_equivariance(lam) == (True, ())
        n, r = len(lam), sum(lam)
        expected = {(g, pi) for pi in divided_basis(lam)
                    for g in enumerate_weight_matrices(n, r, col_sums=matrix_marginal(pi, 2))}
        assert len(calls) == len(expected) and set(calls) == expected


def test_equivariance_reports_an_action_wrong_at_one_point(monkeypatch):
    # a fault at one lattice point, which no sample of integer matrices
    # need ever draw, is reported as its (g, pi) pair
    g0, pi0 = ((1, 0), (1, 2)), ((2, 0), (0, 2))
    real = dividedpowers.gl_action
    monkeypatch.setattr(dividedpowers, "gl_action", lambda g, pi: (
        {**real(g, pi), pi: real(g, pi).get(pi, 0) + 1} if (g, pi) == (g0, pi0)
        else real(g, pi)))
    assert verify_equivariance((2, 2)) == (False, ((g0, pi0),))


@pytest.mark.parametrize("n, mu", [(2, (2, 1)), (3, (2, 0, 1)), (3, (1, 1, 1)), (2, (3, 2))])
def test_the_lattice_points_fix_every_polynomial_of_their_degrees(n, mu):
    # the values g^omega of the monomials of degree mu[s] in column s of g,
    # at the weight matrices g with column sums mu, form an invertible
    # matrix: a polynomial of those degrees that vanishes at every such g
    # is zero, which is what lets verify_equivariance check only there
    points = enumerate_weight_matrices(n, sum(mu), col_sums=mu)
    values = from_rows([[monomial_eval(omega, g) for omega in points] for g in points])
    assert smith_normal_form(values).rank == len(points)


def test_monomials_identify_with_basis_elements_of_the_same_matrix():
    # verify_equivariance reads an action's {matrix: coefficient} result as
    # an algebra element; the element copies the terms and drops zeros
    monomials = {((1, 0), (0, 1)): 2, ((2, 0), (0, 0)): 0}
    x = AlgebraElement(2, 2, monomials)
    monomials[((1, 0), (0, 1))] = 5
    assert x == 2 * basis_element(((1, 0), (0, 1)))
    assert not AlgebraElement(2, 2, {})
    assert AlgebraElement(2, 2, {}) == zero(2, 2)
