"""Brute-force realizations of the Schur algebra used as independent oracles.

Two alternative products are provided for triangulating the structure
constants:

* composition of symmetric-group-invariant endomorphisms of the r-th tensor
  power of the free rank-n module, built from matrix units on multi-indices;
* the convolution product dual to the coalgebra of degree-r monomials in
  n^2 indeterminates, computed by counting middle multi-indices.

The module also realizes the action of an integer n x n matrix g on the
tensor power: monomial evaluation and the expansion of g as an algebra
element.  All formulas are polynomial in the
entries of g, so arbitrary (not necessarily invertible) matrices are
accepted.

These oracles materialize n^r-dimensional data and exist for verification,
not production; they are gated by a size guard (n^r <= 4096 by default,
override with the SCHURRES_ORACLE_LIMIT environment variable).  The
variable is read once per process, at the first guard call, by
`oracle_limit`; the guard `size_guard` compares n^r with that limit on
every call of `endo_of_basis` and `green_convolution`, also when the
answer is already cached, so a refusal never depends on what is cached.

Work that depends on one factor only is done once per factor, not once per
product.  `orbit` and the basis endomorphisms of `endo_of_basis` are cached
for at most 1024 weight matrices each; an endomorphism is shared by every
caller, so its terms and its grouping by first index, which `compose` reads
for its right factor, are read-only mappings.  `green_convolution` picks
the middle words that fit the left factor once per call, not once per
candidate key, and `decode` reads each key's orbit size from `orbit`.
Sizes and margins come from `combinatorics.margins`.  The keys of every
algebra element returned here are the package's own, so the elements are
built through `AlgebraElement.trusted`, which does not re-check them.
"""

import os
from functools import lru_cache
from types import MappingProxyType

from .combinatorics import (
    enumerate_weight_matrices,
    flatten,
    margins,
    multiset_arrangements,
    pair_weight,
)
from .schur import AlgebraElement, identity, zero

_DEFAULT_LIMIT = 4096
_LIMIT_ENV = "SCHURRES_ORACLE_LIMIT"


@lru_cache(maxsize=1)
def oracle_limit():
    """The size guard's bound on n^r, read from the environment once per
    process; `oracle_limit.cache_clear()` makes the next guard read it
    again."""
    return int(os.environ.get(_LIMIT_ENV, _DEFAULT_LIMIT))


def size_guard(n, r):
    limit = oracle_limit()
    if n ** r > limit:
        raise ValueError(
            f"tensor-space oracle dimension {n}^{r} exceeds the size guard "
            f"({limit}); set {_LIMIT_ENV} to raise it")


class TensorEndomorphism:
    """Sparse endomorphism of the r-th tensor power in matrix units.

    Terms map (i, j) pairs of multi-indices to integer coefficients; the
    unit at (i, j) sends the basis tensor of j to the basis tensor of i.
    `by_first` is None, or the terms grouped by first index as read-only
    {i: ((j, coefficient), ...)}; only the cached basis endomorphisms of
    `endo_of_basis` carry one.
    """

    __slots__ = ("n", "r", "terms", "by_first")

    def __init__(self, n, r, terms=None):
        self.n = n
        self.r = r
        self.terms = {k: c for k, c in (terms or {}).items() if c}
        self.by_first = None

    def __eq__(self, other):
        return (isinstance(other, TensorEndomorphism)
                and (self.n, self.r) == (other.n, other.r)
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"TensorEndomorphism(n={self.n}, r={self.r}, {len(self.terms)} units)"


@lru_cache(maxsize=1024)  # holds every orbit up to n=3, r=4 (495 matrices)
def orbit(omega):
    """All multi-index pairs whose pair weight equals omega, as an immutable
    tuple of (i, j) pairs.  Letter k of an arrangement of flatten(omega)
    stands for the pair ((k - 1) // n + 1, (k - 1) % n + 1), so the pairs
    come in increasing order."""
    n = len(omega)
    # the uncached body: this cache already keeps the orbit, so the table of
    # flatten(omega) is not kept a second time; the shorter tables it is
    # built from stay in the cache of multiset_arrangements
    words = multiset_arrangements.__wrapped__(flatten(omega))
    return tuple((tuple((k - 1) // n + 1 for k in word), tuple((k - 1) % n + 1 for k in word))
                 for word in words)


def _group_by_first(terms):
    """Terms {(i, j): c} as {i: ((j, c), ...)}."""
    by_first = {}
    for (i, j), c in terms.items():
        by_first.setdefault(i, []).append((j, c))
    return {i: tuple(units) for i, units in by_first.items()}


class _SharedEndomorphism(TensorEndomorphism):
    """A basis endomorphism that `endo_of_basis` shares: immutable."""

    __slots__ = ()

    def __init__(self, n, r, terms):
        terms = MappingProxyType(terms)
        grouped = MappingProxyType(_group_by_first(terms))
        for name, value in zip(TensorEndomorphism.__slots__, (n, r, terms, grouped)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a shared basis endomorphism is immutable")


@lru_cache(maxsize=1024)  # bounded like orbit
def _basis_endomorphism(omega):
    """The read-only endomorphism of a basis element, with its grouping."""
    return _SharedEndomorphism(len(omega), margins(omega)[2], dict.fromkeys(orbit(omega), 1))


def endo_of_basis(omega):
    """The basis element as a sum of matrix units over its orbit.

    The size guard runs on every call; past it the endomorphism comes from
    a cache and is shared, so its terms are a read-only mapping."""
    size_guard(len(omega), margins(omega)[2])
    return _basis_endomorphism(omega)


def compose(f, g):
    """Endomorphism composition: apply g first, then f."""
    if (f.n, f.r) != (g.n, g.r):
        raise ValueError("endomorphism size mismatch")
    by_first = g.by_first if g.by_first is not None else _group_by_first(g.terms)
    terms = {}
    for (i, j), cf in f.terms.items():
        for k, cg in by_first.get(j, ()):
            key = (i, k)
            terms[key] = terms.get(key, 0) + cf * cg
    return TensorEndomorphism(f.n, f.r, terms)


def decode(f):
    """Express an invariant endomorphism in the weight-matrix basis.

    Raises when the terms are not constant on symmetric-group orbits; each
    key's orbit size is read from the cached `orbit`.  The multi-indices are
    taken to have length f.r and entries in 1..f.n, as those of the
    package's endomorphisms do; the keys are not re-checked.
    """
    grouped = {}
    for (i, j), c in f.terms.items():
        grouped.setdefault(pair_weight(i, j, f.n), []).append(c)
    terms = {}
    for omega, coeffs in grouped.items():
        if len(coeffs) != len(orbit(omega)) or len(set(coeffs)) != 1:
            raise ValueError("endomorphism is not symmetric-group invariant")
        terms[omega] = coeffs[0]
    return AlgebraElement.trusted(f.n, f.r, terms)


def green_convolution(omega, pi):
    """Convolution product on dual basis functionals of degree-r monomials.

    The coefficient of a key tau counts middle multi-indices k with
    pair weight (i, k) = omega and (k, j) = pi, for one fixed representative
    (i, j) of tau; the count is independent of the representative.
    """
    n = len(omega)
    content, row_sums, r = margins(omega)
    pi_cols, pi_rows, pi_r = margins(pi)
    if len(pi) != n or pi_r != r:
        raise ValueError("algebra size mismatch")
    size_guard(n, r)
    if content != pi_rows:
        return zero(n, r)
    candidates = enumerate_weight_matrices(n, r, col_sums=pi_cols, row_sums=row_sums)
    # every candidate tau has the row sums of omega, so its representative
    # orbit(tau)[0][0], the increasing word holding each s + 1 as often as
    # row s sums to, is one word i for all of them; the middles k with pair
    # weight (i, k) = omega are found once, among the words that hold each
    # t + 1 as often as column t of omega sums to
    i = tuple(s + 1 for s, size in enumerate(row_sums) for _ in range(size))
    middles = [k for k in multiset_arrangements(content) if pair_weight(i, k, n) == omega]
    terms = {}
    for tau in candidates:
        j = orbit(tau)[0][1]
        count = sum(1 for k in middles if pair_weight(k, j, n) == pi)
        if count:
            terms[tau] = count
    return AlgebraElement.trusted(n, r, terms)


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
    return AlgebraElement.trusted(
        n, r, {omega: monomial_eval(omega, g) for omega in enumerate_weight_matrices(n, r)})
