"""The integral Schur algebra and its Borel subalgebra in the basis indexed
by weight matrices.

An algebra element is a sparse integer combination of weight-matrix keys.
The product of two basis elements expands over weight tensors: the tensor's
axis-3 marginal must match the left factor, its axis-1 marginal the right
factor, and each tensor contributes its multiplicity coefficient times the
basis element of its axis-2 marginal.  A tensor is a choice of one
middle-index slice per t (slice t has row sums the t-th column of the left
factor and column sums the t-th row of the right one), so the expansion is
computed by folding the slices in one at a time: a dict maps each partial
sum of the slices chosen so far, packed into one integer, to its weighted
count.  Each slice set is a table built once per process from its two
margins, and each packed key is decoded once per process into a key matrix
that every expansion holding it shares.  `structure_constants` caches
every pair it is given; the bar differentials take it as their head and
tail product, and their pairs compose by construction (the column sums of
the left factor equal the row sums of the right one).  Arbitrary pairs are
settled here, from `combinatorics.margins`: `multiply_basis` answers a pair
that does not compose with `zero(n, r)`, and element products skip one.

An element's terms are a read-only mapping, so an element never changes
and work that depends on one element only is done once: the first time an
element is a left factor it groups its terms by the column sums of their
keys and keeps that grouping, and every product walks the right factor's
terms and pairs each only with the left terms it composes with.  The
constructor checks that every key fits the algebra's sizes;
`AlgebraElement.trusted` skips that check for keys the package built
itself (products, sums, the oracles' results).  Coefficients are
unbounded-precision integers throughout; zero coefficients are dropped
eagerly so equality is structural.
"""

from functools import lru_cache
from math import factorial
from types import MappingProxyType

from .combinatorics import (
    diagonal_matrix,
    enumerate_compositions,
    margins,
    multinomial,
    unsorted_weight_matrices,
)


@lru_cache(maxsize=None)
def _slice_table(row_sums, col_sums, width):
    """The middle-index slices with the given margins, as (packed entries,
    weight) pairs.

    A slice's entries are packed row-major into one integer, `width` bits
    each, first entry most significant; its weight is the multinomial
    coefficient of its entries.
    """
    n = len(row_sums)
    shifts = range(width * (n * n - 1), -1, -width)
    table = []
    for m in unsorted_weight_matrices(n, sum(row_sums), col_sums, row_sums):
        flat = [v for row in m for v in row]
        table.append((sum(v << b for v, b in zip(flat, shifts)), multinomial(flat)))
    return tuple(table)


@lru_cache(maxsize=None)
def structure_constants(omega, pi):
    """Expansion of a composable basis product as ((key, coefficient), ...).

    The fold weights each partial sum by the product of its slices'
    multinomials.  A tensor theta with key K has multiplicity
    prod K! / prod theta! = (prod K! / prod_t (total of slice t)!) * prod_t
    (multinomial of slice t), so each key is scaled once at the end.
    """
    n = len(omega)
    col_sums, _, r = margins(omega)
    width = r.bit_length() or 1  # every entry of a key is <= r
    acc = {0: 1}
    scale = 1
    for t in range(n):
        scale *= factorial(col_sums[t])
        table = _slice_table(tuple(row[t] for row in omega), pi[t], width)
        folded = {}
        for partial, c in acc.items():
            for entries, w in table:
                key = partial + entries
                folded[key] = folded.get(key, 0) + c * w
        acc = folded
    out = []
    for packed in sorted(acc, reverse=True):  # packed order is flattened order
        key, weight = _unpack(packed, n, width)
        out.append((key, acc[packed] * weight // scale))
    return tuple(out)


@lru_cache(maxsize=None)
def _unpack(packed, n, width):
    """The n x n key packed into one integer, `width` bits per entry, and
    the product of the factorials of its entries.  Cached, so every
    expansion holding a key shares one key object."""
    mask = (1 << width) - 1
    flat = [packed >> b & mask for b in range(width * (n * n - 1), -1, -width)]
    weight = 1
    for v in flat:
        weight *= factorial(v)
    return tuple(tuple(flat[s:s + n]) for s in range(0, n * n, n)), weight


class AlgebraElement:
    """Sparse integer combination of weight-matrix basis elements.

    `terms` is a read-only mapping {key: nonzero coefficient}.  The terms
    grouped by the column sums of their keys are built the first time the
    element is a left factor, and kept.
    """

    __slots__ = ("n", "r", "terms", "_by_col_sums")

    def __init__(self, n, r, terms=None):
        terms = terms or {}
        for key in terms:
            if len(key) != n or sum(map(sum, key)) != r:
                raise ValueError("basis key does not match the algebra sizes")
        self.n = n
        self.r = r
        self.terms = MappingProxyType({key: c for key, c in terms.items() if c})
        self._by_col_sums = None

    @classmethod
    def trusted(cls, n, r, terms):
        """The element of terms, a dict {key: coefficient} whose keys the
        package built for (n, r), built for this element and kept by no
        one else: zero coefficients are dropped, but the keys are not
        checked as the constructor checks them, and the dict is not copied.
        Without terms it is the shared `zero(n, r)`."""
        if not all(terms.values()):
            terms = {key: c for key, c in terms.items() if c}
        if not terms:
            return zero(n, r)
        x = cls.__new__(cls)
        x.n = n
        x.r = r
        x.terms = MappingProxyType(terms)
        x._by_col_sums = None
        return x

    def _check(self, other):
        if (self.n, self.r) != (other.n, other.r):
            raise ValueError("algebra size mismatch")

    def _left_groups(self):
        """{column sums: [(key, coefficient), ...]} over the terms."""
        if self._by_col_sums is None:
            groups = {}
            for a, ca in self.terms.items():
                groups.setdefault(margins(a)[0], []).append((a, ca))
            self._by_col_sums = groups
        return self._by_col_sums

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
        return AlgebraElement.trusted(self.n, self.r, terms)

    def __neg__(self):
        return AlgebraElement.trusted(self.n, self.r, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraElement.trusted(
                self.n, self.r, {k: other * c for k, c in self.terms.items()})
        self._check(other)
        by_col_sums = self._left_groups()
        terms = {}
        for b, cb in other.terms.items():
            for a, ca in by_col_sums.get(margins(b)[1], ()):
                c = ca * cb
                for key, m in structure_constants(a, b):
                    terms[key] = terms.get(key, 0) + c * m
        return AlgebraElement.trusted(self.n, self.r, terms)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return self * scalar

    def __repr__(self):
        return format_element(self)


def basis_element(omega):
    """The basis element attached to a weight matrix."""
    return AlgebraElement.trusted(len(omega), margins(omega)[2], {omega: 1})


class _SharedZero(AlgebraElement):
    """The zero element `zero` shares: its fields cannot be rebound."""

    __slots__ = ()

    def __init__(self, n, r):
        for name, value in zip(AlgebraElement.__slots__, (n, r, MappingProxyType({}), {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("the shared zero element is immutable")


@lru_cache(maxsize=None)
def zero(n, r):
    """The zero element; an element never changes, so one is shared."""
    return _SharedZero(n, r)


def multiply_basis(omega, pi):
    """Product of two basis elements as an algebra element."""
    n, (col_sums, _, r), (_, pi_rows, pi_r) = len(omega), margins(omega), margins(pi)
    if len(pi) != n or pi_r != r:
        raise ValueError("algebra size mismatch")
    if col_sums != pi_rows:
        return zero(n, r)
    return AlgebraElement.trusted(n, r, dict(structure_constants(omega, pi)))


def multiply(x, y):
    return x * y


def identity(n, r):
    """Sum of all diagonal idempotents; the unit of the algebra."""
    return AlgebraElement.trusted(
        n, r, {diagonal_matrix(lam): 1 for lam in enumerate_compositions(n, r)})


def format_element(x):
    """Render as e.g. '2*xi([[2,0],[0,0]]) + xi([[1,1],[0,0]])'."""
    if not x.terms:
        return "0"
    parts = []
    for key, c in x.items():
        body = "xi(%s)" % str([list(row) for row in key]).replace(" ", "")
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append("%d*%s" % (c, body))
    return " + ".join(parts)
