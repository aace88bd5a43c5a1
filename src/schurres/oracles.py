"""Brute-force realizations of the Schur algebra used as independent oracles.

Two alternative products are provided for triangulating the structure
constants:

* composition of symmetric-group-invariant endomorphisms of the r-th tensor
  power of the free rank-n module, built from matrix units on multi-indices;
* the convolution product dual to the coalgebra of degree-r monomials in
  n^2 indeterminates, computed by counting middle multi-indices.

The module also realizes the action of an integer n x n matrix g on the
tensor power: monomial evaluation, the expansion of g as an algebra element,
and g as an explicit endomorphism.  All formulas are polynomial in the
entries of g, so arbitrary (not necessarily invertible) matrices are
accepted.

These oracles materialize n^r-dimensional data and exist for verification,
not production; they are gated by a size guard (n^r <= 4096 by default,
override with the SCHURRES_ORACLE_LIMIT environment variable).
"""

import os
from itertools import product as _product
from math import factorial

from .combinatorics import (
    enumerate_multi_indices,
    enumerate_weight_matrices,
    flatten,
    matrix_marginal,
    pair_weight,
)
from .schur import AlgebraElement, identity

_DEFAULT_LIMIT = 4096
_LIMIT_ENV = "SCHURRES_ORACLE_LIMIT"


def _guard(n, r):
    limit = int(os.environ.get(_LIMIT_ENV, _DEFAULT_LIMIT))
    if n ** r > limit:
        raise ValueError(
            f"tensor-space oracle dimension {n}^{r} exceeds the size guard "
            f"({limit}); set {_LIMIT_ENV} to raise it")


class TensorEndomorphism:
    """Sparse endomorphism of the r-th tensor power in matrix units.

    Terms map (i, j) pairs of multi-indices to integer coefficients; the
    unit at (i, j) sends the basis tensor of j to the basis tensor of i.
    """

    __slots__ = ("n", "r", "terms")

    def __init__(self, n, r, terms=None):
        self.n = n
        self.r = r
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    def __eq__(self, other):
        return (isinstance(other, TensorEndomorphism)
                and (self.n, self.r) == (other.n, other.r)
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"TensorEndomorphism(n={self.n}, r={self.r}, {len(self.terms)} units)"


def _distinct_arrangements(items):
    """All distinct orderings of a multiset, as tuples."""
    items = sorted(items)
    out = []

    def step(remaining, acc):
        if not remaining:
            out.append(tuple(acc))
            return
        seen = set()
        for idx, v in enumerate(remaining):
            if v in seen:
                continue
            seen.add(v)
            step(remaining[:idx] + remaining[idx + 1:], acc + [v])

    step(items, [])
    return out


def orbit(omega):
    """All multi-index pairs whose pair weight equals omega."""
    n = len(omega)
    pairs = []
    for s in range(n):
        for t in range(n):
            pairs.extend([(s + 1, t + 1)] * omega[s][t])
    out = []
    for arrangement in _distinct_arrangements(pairs):
        if arrangement:
            i, j = zip(*arrangement)
        else:
            i = j = ()
        out.append((tuple(i), tuple(j)))
    return out


def orbit_size(omega):
    entries = flatten(omega)
    size = factorial(sum(entries))
    for v in entries:
        size //= factorial(v)
    return size


def endo_of_basis(omega):
    """The basis element as a sum of matrix units over its orbit."""
    n = len(omega)
    r = sum(map(sum, omega))
    _guard(n, r)
    return TensorEndomorphism(n, r, {pair: 1 for pair in orbit(omega)})


def compose(f, g):
    """Endomorphism composition: apply g first, then f."""
    if (f.n, f.r) != (g.n, g.r):
        raise ValueError("endomorphism size mismatch")
    by_first = {}
    for (j, k), c in g.terms.items():
        by_first.setdefault(j, []).append((k, c))
    terms = {}
    for (i, j), cf in f.terms.items():
        for k, cg in by_first.get(j, ()):
            key = (i, k)
            terms[key] = terms.get(key, 0) + cf * cg
    return TensorEndomorphism(f.n, f.r, terms)


def decode(f):
    """Express an invariant endomorphism in the weight-matrix basis.

    Raises when the terms are not constant on symmetric-group orbits.
    """
    grouped = {}
    for (i, j), c in f.terms.items():
        grouped.setdefault(pair_weight(i, j, f.n), []).append(c)
    terms = {}
    for omega, coeffs in grouped.items():
        if len(coeffs) != orbit_size(omega) or len(set(coeffs)) != 1:
            raise ValueError("endomorphism is not symmetric-group invariant")
        terms[omega] = coeffs[0]
    return AlgebraElement(f.n, f.r, terms)


def green_convolution(omega, pi):
    """Convolution product on dual basis functionals of degree-r monomials.

    The coefficient of a key tau counts middle multi-indices k with
    pair weight (i, k) = omega and (k, j) = pi, for one fixed representative
    (i, j) of tau; the count is independent of the representative.
    """
    n = len(omega)
    r = sum(map(sum, omega))
    if len(pi) != n or sum(map(sum, pi)) != r:
        raise ValueError("algebra size mismatch")
    _guard(n, r)
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


def monomial_eval(omega, g):
    """Evaluate the monomial with exponent matrix omega at the matrix g."""
    n = len(omega)
    if len(g) != n:
        raise ValueError("matrix size mismatch")
    value = 1
    for s in range(n):
        for t in range(n):
            e = omega[s][t]
            if e:
                value *= g[s][t] ** e
    return value


def tensor_power_action(g, r):
    """The action of a square integer matrix on the r-th tensor power,
    expanded in the weight-matrix basis (monomial evaluation coefficients)."""
    n = len(g)
    if r == 0:
        return identity(n, 0)
    terms = {}
    for omega in enumerate_weight_matrices(n, r):
        c = monomial_eval(omega, g)
        if c:
            terms[omega] = c
    return AlgebraElement(n, r, terms)


def tensor_action_endo(g, r):
    """The same action as an explicit endomorphism (for cross-checking)."""
    n = len(g)
    _guard(n, r)
    columns = [[(s + 1, g[s][t]) for s in range(n) if g[s][t]] for t in range(n)]
    terms = {}
    for i in enumerate_multi_indices(n, r):
        for picks in _product(*(columns[v - 1] for v in i)):
            c = 1
            for _, gv in picks:
                c *= gv
            j = tuple(s for s, _ in picks)
            key = (j, i)
            terms[key] = terms.get(key, 0) + c
    return TensorEndomorphism(n, r, terms)


def basis_unit_count(n, r):
    """Total matrix units across all basis orbits; equals n**(2*r)."""
    total = 0
    for omega in enumerate_weight_matrices(n, r):
        total += orbit_size(omega)
    return total
