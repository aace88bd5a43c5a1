"""Divided-power monomials, the matrix action on them, and the comparison
with principal left modules over the Schur algebra.

A monomial in a single divided-power factor is an exponent tuple over the
free generators; products follow the divided-power relations (the product
of two powers of one generator carries a binomial coefficient, powers of a
sum expand over all exponent splittings).  Tensor products of factors are
indexed by weight matrices whose column sums give the factor degrees, so a
basis monomial of the composition case is just a weight matrix with fixed
column marginal.

An integer matrix acts inside the divided-power algebra: each generator goes
to its image, a column of the matrix; each factor of a monomial is the
product of the divided powers of those images, expanded by the relations
above; and the tensor product of the factors is expanded factor by factor.
No weight tensor or structure constant is involved, so identifying
monomials with algebra basis elements of the same matrix and comparing with
left multiplication by the matrix's image in the algebra
(verify_equivariance) checks two independent routes against each other.
"""

from itertools import product as _product
from math import comb

from .combinatorics import enumerate_compositions, enumerate_weight_matrices
from .oracles import tensor_power_action
from .schur import AlgebraElement, basis_element, multiply


def divided_basis(lam):
    """Monomial basis of the divided-power product: weight matrices with
    column sums lam, canonical order."""
    lam = tuple(lam)
    return enumerate_weight_matrices(len(lam), sum(lam), col_sums=lam)


# ---------------------------------------------------------------------------
# single-factor normal form

def divided_product(x, y):
    """Product of two single-factor elements {exponent tuple: coeff}."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            if len(a) != len(b):
                raise ValueError("mixed generator counts in one factor")
            coeff = ca * cb
            for e, f in zip(a, b):
                coeff *= comb(e + f, e)
            key = tuple(e + f for e, f in zip(a, b))
            if coeff:
                out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def divided_power_of_vector(coeffs, k):
    """k-th divided power of a linear combination of the generators:
    expands over all exponent tuples of total k."""
    n = len(coeffs)
    out = {}
    for nu in enumerate_compositions(n, k):
        c = 1
        for q in range(n):
            if nu[q]:
                c *= coeffs[q] ** nu[q]
        if c:
            out[nu] = out.get(nu, 0) + c
    return out


# ---------------------------------------------------------------------------
# the matrix action

def gl_action(g, pi):
    """Action of a square integer matrix on a basis monomial, computed in
    the divided-power algebra: column t of pi is the product over s of the
    pi[s][t]-th divided powers of the image of generator s (column s of g),
    and the monomial's image is the product of its columns' images.
    Returns {weight matrix: coefficient}."""
    n = len(pi)
    if len(g) != n:
        raise ValueError("matrix size mismatch")
    per_column = []
    for t in range(n):
        factor = {tuple([0] * n): 1}
        for s in range(n):
            k = pi[s][t]
            if k:
                image = divided_power_of_vector(tuple(g[q][s] for q in range(n)), k)
                factor = divided_product(factor, image)
        per_column.append(factor)
    out = {}
    for picks in _product(*(f.items() for f in per_column)):
        coeff = 1
        columns = []
        for key, c in picks:
            coeff *= c
            columns.append(key)
        matrix = tuple(tuple(columns[t][s] for t in range(n)) for s in range(n))
        if coeff:
            out[matrix] = out.get(matrix, 0) + coeff
    return {k: c for k, c in out.items() if c}


def matmul(g, h):
    n = len(g)
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# identification with principal modules

def verify_equivariance(lam, g):
    """Check, on the whole monomial basis, that acting then identifying
    agrees with identifying then multiplying by the matrix's algebra image.

    Returns (ok, failures); a failure records the offending monomial.
    """
    lam = tuple(lam)
    n, r = len(lam), sum(lam)
    rho = tensor_power_action(g, r)
    failures = []
    for pi in divided_basis(lam):
        lhs = AlgebraElement(n, r, gl_action(g, pi))
        rhs = multiply(rho, basis_element(pi))
        if lhs != rhs:
            failures.append(pi)
    return not failures, tuple(failures)
