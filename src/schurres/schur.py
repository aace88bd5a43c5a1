"""The integral Schur algebra and its Borel subalgebra in the basis indexed
by weight matrices.

An algebra element is a sparse integer combination of weight-matrix keys.
The product of two basis elements expands over weight tensors: the tensor's
axis-3 marginal must match the left factor, its axis-1 marginal the right
factor, and each tensor contributes its multiplicity coefficient times the
basis element of its axis-2 marginal.  Coefficients are unbounded-precision
integers throughout; zero coefficients are dropped eagerly so equality is
structural.
"""

import json
from functools import lru_cache
from itertools import product as _product

from .combinatorics import (
    diagonal_matrix,
    enumerate_compositions,
    enumerate_weight_matrices,
    filtration_degree,
    is_upper_triangular,
    matrix_marginal,
    multinomial,
    transpose_matrix,
)


def tensor_multiplicity(theta):
    """Number of middle multi-indices realizing a weight tensor.

    Equals the product over (first, last) index pairs of the multinomial
    coefficient of the middle-index fiber.
    """
    n = len(theta)
    result = 1
    for s in range(n):
        for q in range(n):
            result *= multinomial(tuple(theta[s][t][q] for t in range(n)))
    return result


@lru_cache(maxsize=None)
def structure_constants(omega, pi):
    """Expansion of a basis product as ((key, coefficient), ...).

    Empty when the column sums of omega differ from the row sums of pi.
    Enumerates middle-index slices directly: slice t runs over matrices with
    row sums the t-th column of omega and column sums the t-th row of pi.
    """
    n = len(omega)
    if matrix_marginal(omega, 1) != matrix_marginal(pi, 2):
        return ()
    per_slice = []
    for t in range(n):
        rs = tuple(omega[s][t] for s in range(n))
        per_slice.append(enumerate_weight_matrices(n, sum(rs), col_sums=pi[t], row_sums=rs))
    acc = {}
    for slices in _product(*per_slice):
        coeff = 1
        key = []
        for s in range(n):
            row = []
            for q in range(n):
                fiber = tuple(slices[t][s][q] for t in range(n))
                coeff *= multinomial(fiber)
                row.append(sum(fiber))
            key.append(tuple(row))
        key = tuple(key)
        acc[key] = acc.get(key, 0) + coeff
    return tuple(sorted(acc.items(), reverse=True))


class AlgebraElement:
    """Sparse integer combination of weight-matrix basis elements."""

    __slots__ = ("n", "r", "terms")

    def __init__(self, n, r, terms=None):
        self.n = n
        self.r = r
        clean = {}
        for key, c in (terms or {}).items():
            if len(key) != n or sum(map(sum, key)) != r:
                raise ValueError("basis key does not match the algebra sizes")
            if c:
                clean[key] = c
        self.terms = clean

    def _check(self, other):
        if (self.n, self.r) != (other.n, other.r):
            raise ValueError("algebra size mismatch")

    def items(self):
        """Terms in canonical (descending key) order; keys are distinct, so
        coefficients are never compared."""
        return tuple(sorted(self.terms.items(), reverse=True))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and (self.n, self.r) == (other.n, other.r)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.r, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return AlgebraElement(self.n, self.r, terms)

    def __neg__(self):
        return AlgebraElement(self.n, self.r, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraElement(self.n, self.r, {k: other * c for k, c in self.terms.items()})
        self._check(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                c = ca * cb
                for key, m in structure_constants(a, b):
                    terms[key] = terms.get(key, 0) + c * m
        return AlgebraElement(self.n, self.r, terms)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return self * scalar

    def __repr__(self):
        return format_element(self)


def basis_element(omega):
    """The basis element attached to a weight matrix."""
    n = len(omega)
    return AlgebraElement(n, sum(map(sum, omega)), {omega: 1})


def zero(n, r):
    return AlgebraElement(n, r, {})


def multiply_basis(omega, pi):
    """Product of two basis elements as an algebra element."""
    if len(omega) != len(pi) or sum(map(sum, omega)) != sum(map(sum, pi)):
        raise ValueError("algebra size mismatch")
    n, r = len(omega), sum(map(sum, omega))
    return AlgebraElement(n, r, dict(structure_constants(omega, pi)))


def multiply(x, y):
    return x * y


def idempotent(lam):
    """The diagonal idempotent attached to a composition."""
    return basis_element(diagonal_matrix(tuple(lam)))


def identity(n, r):
    """Sum of all diagonal idempotents; the unit of the algebra."""
    terms = {diagonal_matrix(lam): 1 for lam in enumerate_compositions(n, r)}
    return AlgebraElement(n, r, terms)


def transpose_involution(x):
    """The anti-automorphism transposing every basis key."""
    return AlgebraElement(x.n, x.r, {transpose_matrix(k): c for k, c in x.terms.items()})


def is_borel_element(x):
    """True when every key is upper triangular."""
    return all(is_upper_triangular(k) for k in x.terms)


def is_ideal_element(x, s):
    """True when every key is upper triangular of filtration degree >= s."""
    return all(is_upper_triangular(k) and filtration_degree(k) >= s for k in x.terms)


def format_element(x):
    """Render as e.g. '2*xi([[2,0],[0,0]]) + xi([[1,1],[0,0]])'."""
    if not x.terms:
        return "0"
    parts = []
    for key, c in x.items():
        body = "xi(%s)" % json.dumps([list(row) for row in key], separators=(",", ":"))
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append("%d*%s" % (c, body))
    return " + ".join(parts)
