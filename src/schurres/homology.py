"""Exact integer linear algebra: Smith normal form, ranks, homology.

Differentials are very sparse and almost all of their pivots are units, so
reduction starts by copying the matrix's sparse columns into working dicts,
touching only its nonzero entries, and eliminating on unit pivots: entries
+-1 over Z, any nonzero entry over F_p.  Eliminating a unit pivot splits
off an invariant factor 1 and leaves its Schur complement, so the factors
are unchanged.  Columns are visited shortest first, and in each the unit
whose row is shortest is taken, which keeps fill-in small; sweeps repeat
until the matrix stops shrinking.  Over F_p that eliminates everything.
Over Z, whatever is left without a unit (the residual) goes, through its
dense `rows` view, to the dense Smith reduction, which pivots on a
minimal-absolute-value nonzero entry and works with unbounded integers, so
intermediate growth never loses exactness; that dense route alone also
produces unimodular transforms.
The reduction over Z is computed at most once per matrix and kept on it,
and every rank mod p starts from it: a pivot +-1 is a unit mod every p, and
reducing mod p commutes with taking the Schur complement, so the rank mod p
is the number of those pivots plus the rank mod p of the residual.  Only
the residual is reduced mod p, inside `rank_mod_p`.
Ranks over the rationals use stdlib fractions as an independent elimination
route.  Homology groups of a chain complex over Z come out as free rank plus
a multiset of prime-power torsion factors; given a prime p, homology over
F_p comes out as dimensions.  Either way each differential is reduced over
Z once, however many degrees and primes ask for it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Matrix


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors (nonzero, each dividing the next) of an integer
    matrix, optionally with unimodular transforms left @ M @ right = D."""

    factors: tuple
    shape: tuple
    left: Matrix | None = None
    right: Matrix | None = None

    @property
    def rank(self):
        return len(self.factors)

    def diagonal_matrix(self):
        return Matrix.from_entries(*self.shape,
                                   ((i, i, d) for i, d in enumerate(self.factors)))


def _eliminate_units(mat, p=None):
    """Eliminate unit pivots of mat on working copies of its columns; with
    p, mat's entries must already lie in 0..p-1 and arithmetic is mod p.

    Returns the number of pivots eliminated and the residual, the Matrix
    over the rows and columns still holding entries.
    """
    cols = [dict(col) for col in mat.columns]
    rows = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)

    pivots = 0
    while True:
        before = pivots
        for j in sorted((j for j, col in enumerate(cols) if col),
                        key=lambda j: len(cols[j])):
            col = cols[j]
            units = list(col) if p else [i for i, v in col.items() if v in (1, -1)]
            if not units:
                continue
            i = min(units, key=lambda r: (len(rows[r]), r))
            inv = pow(col[i], -1, p) if p else col[i]
            cols[j] = {}
            for r in col:
                rows[r].discard(j)
            del col[i]
            # clear row i from every other column with a multiple of column j
            for c in rows.pop(i):
                other = cols[c]
                f = other.pop(i) * inv
                for r, v in col.items():
                    w = other.get(r, 0) - f * v
                    if p:
                        w %= p
                    if w:
                        if r not in other:
                            rows[r].add(c)
                        other[r] = w
                    elif r in other:
                        del other[r]
                        rows[r].discard(c)
            pivots += 1
        if pivots == before:
            break
    live_rows = {r: i for i, r in enumerate(sorted(r for r, members in rows.items()
                                                   if members))}
    residual = Matrix.from_columns(
        len(live_rows), [{live_rows[r]: v for r, v in col.items()} for col in cols if col])
    return pivots, residual


def _unit_reduction(mat):
    """`_eliminate_units(mat)` over Z, computed on the first call and kept
    on the immutable matrix for every later one."""
    reduction = mat._reduction
    if reduction is None:
        reduction = _eliminate_units(mat)
        object.__setattr__(mat, "_reduction", reduction)
    return reduction


def smith_normal_form(mat):
    """Smith normal form: unit-pivot elimination, then dense Smith reduction
    of the residual."""
    pivots, residual = _unit_reduction(mat)
    factors = dense_smith_normal_form(residual).factors
    return SmithForm(factors=(1,) * pivots + factors, shape=(mat.nrows, mat.ncols))


def dense_smith_normal_form(mat, transforms=False):
    """Smith normal form by dense elimination on minimal-absolute-value pivots."""
    m, n = mat.nrows, mat.ncols
    d = [list(row) for row in mat.rows]
    left = [[int(i == j) for j in range(m)] for i in range(m)] if transforms else None
    right = [[int(i == j) for j in range(n)] for i in range(n)] if transforms else None

    def row_add(i, j, c):
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]
        if left is not None:
            left[i] = [a + c * b for a, b in zip(left[i], left[j])]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if left is not None:
            left[i], left[j] = left[j], left[i]

    def row_negate(i):
        d[i] = [-a for a in d[i]]
        if left is not None:
            left[i] = [-a for a in left[i]]

    def col_add(j, i, c):
        for row in d:
            row[j] += c * row[i]
        if right is not None:
            for row in right:
                row[j] += c * row[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        if right is not None:
            for row in right:
                row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(d[i][j])
                if v and (best is None or v < best):
                    pivot, best = (i, j), v
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot != (t, t):
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
        while True:
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // p
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // p
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot divides the untouched block, or absorb an offending row
            if p == 1:
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    factors = tuple(d[i][i] for i in range(min(m, n)) if d[i][i])
    return SmithForm(
        factors=factors,
        shape=(m, n),
        left=Matrix.from_rows(left, m) if transforms else None,
        right=Matrix.from_rows(right, n) if transforms else None,
    )


def rank(mat):
    """Rank over the rationals by fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in mat.rows]
    rk = 0
    for col in range(mat.ncols):
        pivot = next((i for i in range(rk, mat.nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = 1 / rows[rk][col]
        rows[rk] = [v * inv for v in rows[rk]]
        for i in range(mat.nrows):
            if i != rk and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
        if rk == mat.nrows:
            break
    return rk


# Sorenson and Webster (2015): no composite below the bound is a strong
# probable prime to every one of the first 13 prime bases.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p):
    """Whether p is prime, by Miller-Rabin to the prime bases 2, 3, ..., 41,
    which is exact below _MILLER_RABIN_BOUND; larger p raise ValueError."""
    if p >= _MILLER_RABIN_BOUND:
        raise ValueError(f"{p} is too large: primality is decided exactly "
                         f"only below {_MILLER_RABIN_BOUND}")
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rank_mod_p(mat, p):
    """Rank over the field of p elements: the unit pivots of mat over Z,
    plus the rank of its residual reduced mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pivots, residual = _unit_reduction(mat)
    return pivots + _eliminate_units(residual.mod(p), p)[0]


def prime_power_factors(d):
    """Prime-power decomposition of a positive integer, by trial division."""
    out = []
    q = 2
    while q * q <= d:
        if d % q == 0:
            power = 1
            while d % q == 0:
                d //= q
                power *= q
            out.append(power)
        q += 1
    if d > 1:
        out.append(d)
    return tuple(sorted(out))


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank plus prime-power torsion;
    over the field of `prime` elements (None for Z) the free rank is the
    dimension and there is no torsion."""

    free_rank: int
    torsion: tuple
    prime: int | None = None

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    @property
    def is_free(self):
        return not self.torsion

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank:
            ring = "Z" if self.prime is None else f"F_{self.prime}"
            parts.append(ring if self.free_rank == 1 else f"{ring}^{self.free_rank}")
        parts.extend(f"Z/{q}" for q in self.torsion)
        return " + ".join(parts)

    def __repr__(self):
        # a group over Z reprs without its prime: verify failure records print it
        prime = "" if self.prime is None else f", prime={self.prime}"
        return f"HomologyGroup(free_rank={self.free_rank}, torsion={self.torsion}{prime})"


def _group_from_factors(n_k, out_rank, in_factors, p):
    torsion = []
    for f in in_factors:
        if f > 1:
            torsion.extend(prime_power_factors(f))
    return HomologyGroup(n_k - out_rank - len(in_factors), tuple(sorted(torsion)), p)


def homology_groups(complex_, degrees=None, p=None):
    """Homology of a chain complex in the given degrees (default: all), as
    {degree: HomologyGroup} in the order given: over Z, or over the field
    of p elements when a prime p is given.

    The free rank at k is rank(k) - rank d_k - rank d_{k+1}; torsion comes
    from the invariant factors of the incoming differential (the quotient by
    a direct summand keeps exactly that torsion).  Each differential is
    reduced over Z once, however many degrees and primes ask for it, and a
    rank mod p eliminates only the residual of that reduction.  Over a
    field every nonzero invariant factor is a unit, so only dimensions are
    reported, in groups that carry p.
    """
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degrees = list(complex_.degrees() if degrees is None else degrees)
    for k in degrees:
        if not complex_.lo <= k <= complex_.hi:
            raise ValueError(f"degree {k} outside the complex range")
    factors = {}
    for k in sorted({j for k in degrees for j in (k, k + 1)}):
        if not complex_.lo < k <= complex_.hi:
            factors[k] = ()  # zero map into or out of nothing
        elif p is None:
            factors[k] = smith_normal_form(complex_.differential(k)).factors
        else:
            factors[k] = (1,) * rank_mod_p(complex_.differential(k), p)
    return {k: _group_from_factors(complex_.rank(k), len(factors[k]), factors[k + 1], p)
            for k in degrees}


def homology(complex_, k, p=None):
    """Homology of a chain complex at degree k, over Z or, given a prime p,
    over the field of p elements."""
    return homology_groups(complex_, [k], p)[k]


@dataclass(frozen=True)
class ExactnessReport:
    """Per-degree homology with pass/fail, plus the complex axiom check."""

    complex_ok: bool
    entries: tuple  # of (degree, HomologyGroup, ok)

    @property
    def ok(self):
        return self.complex_ok and all(flag for _, _, flag in self.entries)

    def failures(self):
        out = [] if self.complex_ok else [("complex axiom", None)]
        out.extend((k, h) for k, h, flag in self.entries if not flag)
        return out


def verify_exactness(complex_, degrees=None, expected=None):
    """Check that consecutive differentials compose to zero and that the
    homology in the given degrees (default: all) vanishes, or equals
    expected[k] for the degrees k that mapping names.
    """
    complex_ok = True
    for k in range(complex_.lo + 2, complex_.hi + 1):
        if not (complex_.differential(k - 1) @ complex_.differential(k)).is_zero():
            complex_ok = False
    expected = expected or {}
    zero = HomologyGroup(0, ())
    entries = tuple((k, h, h == expected.get(k, zero))
                    for k, h in homology_groups(complex_, degrees).items())
    return ExactnessReport(complex_ok=complex_ok, entries=entries)
