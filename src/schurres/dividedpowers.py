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
The image of one factor depends only on the matrix and that factor's
exponents (a column of the monomial's weight matrix), so it is computed
once per (matrix, column) and cached for at most 1024 such pairs.
No weight tensor or structure constant is involved, so identifying
monomials with algebra basis elements of the same matrix and comparing with
left multiplication by the matrix's image in the algebra
(verify_equivariance) checks two independent routes against each other.
"""

from functools import lru_cache
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

@lru_cache(maxsize=1024)
def _column_image(g, column):
    """The image of one column of a monomial: the product over s of the
    column[s]-th divided powers of the image of generator s (column s of g),
    as ((exponent tuple, coefficient), ...) with no zero coefficient."""
    n = len(g)
    factor = {(0,) * n: 1}
    for s, k in enumerate(column):
        if k:
            image = divided_power_of_vector(tuple(row[s] for row in g), k)
            factor = divided_product(factor, image)
    return tuple(factor.items())


def gl_action(g, pi):
    """Action of a square integer matrix on a basis monomial, computed in
    the divided-power algebra: column t of pi is the product over s of the
    pi[s][t]-th divided powers of the image of generator s (column s of g),
    and the monomial's image is the product of its columns' images.  Each
    column's image depends on g and that column alone, so it is computed
    once per (g, column) and cached (at most 1024 of them).
    Returns {weight matrix: coefficient}."""
    if len(g) != len(pi):
        raise ValueError("matrix size mismatch")
    out = {}
    for picks in _product(*(_column_image(g, column) for column in zip(*pi))):
        coeff = 1
        for _, c in picks:
            coeff *= c
        matrix = tuple(zip(*(key for key, _ in picks)))
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
