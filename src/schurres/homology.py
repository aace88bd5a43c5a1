"""Exact integer linear algebra: Smith normal form, and homology over Z and
over prime fields.

Differentials are very sparse and almost all of their pivots are +-1, so
reduction starts by copying the matrix's sparse columns into working dicts,
touching only its nonzero entries, and eliminating on pivots +-1.
Eliminating such a pivot splits off an invariant factor 1 and leaves its
Schur complement, so the factors are unchanged.  Columns are visited
shortest first, and in each the unit whose row is shortest is taken, which
keeps fill-in small; sweeps repeat until the matrix stops shrinking.
Whatever is left without a unit (the residual) goes, through its dense
`rows` view, to the dense Smith reduction, which pivots on a
minimal-absolute-value nonzero entry and works with unbounded integers, so
intermediate growth never loses exactness.

That reduction over Z is the only one.  Homology groups of a chain complex
over Z come out as free rank plus a multiset of prime-power torsion
factors.  Every complex here is one of free abelian groups, so by the
universal coefficient theorem its homology over F_p follows from its
homology over Z (`base_change`), and a rank over F_p is the number of
invariant factors that p does not divide: no matrix is reduced mod p.
"""

from dataclasses import dataclass

from .complexes import Matrix


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors (nonzero, each dividing the next) of an integer
    matrix."""

    factors: tuple

    @property
    def rank(self):
        return len(self.factors)


def _eliminate_units(mat):
    """Eliminate the pivots +-1 of mat on working copies of its columns.

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
            units = [i for i, v in col.items() if v in (1, -1)]
            if not units:
                continue
            i = min(units, key=lambda r: (len(rows[r]), r))
            unit = col[i]  # its own inverse
            cols[j] = {}
            for r in col:
                rows[r].discard(j)
            del col[i]
            # clear row i from every other column with a multiple of column j
            for c in rows.pop(i):
                other = cols[c]
                f = other.pop(i) * unit
                for r, v in col.items():
                    w = other.get(r, 0) - f * v
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


def smith_normal_form(mat):
    """Smith normal form: unit-pivot elimination, then dense Smith reduction
    of the residual."""
    pivots, residual = _eliminate_units(mat)
    return SmithForm((1,) * pivots + dense_smith_normal_form(residual).factors)


def dense_smith_normal_form(mat):
    """Smith normal form by dense elimination on minimal-absolute-value pivots."""
    m, n = mat.nrows, mat.ncols
    d = [list(row) for row in mat.rows]

    def row_add(i, j, c):
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]

    def col_add(j, i, c):
        for row in d:
            row[j] += c * row[i]

    def col_swap(i, j):
        for row in d:
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
                d[t] = [-a for a in d[t]]
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

    return SmithForm(tuple(d[i][i] for i in range(min(m, n)) if d[i][i]))


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
    """Rank over the field of p elements: the number of invariant factors of
    mat over Z that p does not divide."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for f in smith_normal_form(mat).factors if f % p)


# Trial division stops here: a composite cofactor with no prime factor up to
# the bound is refused rather than searched for minutes.
_TRIAL_DIVISION_BOUND = 10 ** 6


def prime_power_factors(d):
    """Prime-power decomposition of a positive integer, by trial division
    while the cofactor is neither 1 nor prime.  A composite cofactor with no
    prime factor up to _TRIAL_DIVISION_BOUND raises ValueError, and so does
    one too large for `is_prime` that trial division does not split."""
    out = []
    q = 2
    while d > 1 and (d >= _MILLER_RABIN_BOUND or not is_prime(d)):
        while d % q:
            q += 1
            if q > _TRIAL_DIVISION_BOUND:
                raise ValueError(f"{d} has no prime factor up to {_TRIAL_DIVISION_BOUND} "
                                 f"and is not a prime below {_MILLER_RABIN_BOUND}, "
                                 f"so it is not split into prime powers")
        power = 1
        while d % q == 0:
            d //= q
            power *= q
        out.append(power)
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


def _group_from_factors(n_k, out_rank, in_factors):
    torsion = []
    for f in in_factors:
        if f > 1:
            torsion.extend(prime_power_factors(f))
    return HomologyGroup(n_k - out_rank - len(in_factors), tuple(sorted(torsion)))


def base_change(groups, p):
    """Homology over the field of p elements from homology over Z:
    {degree: HomologyGroup} over Z in, the same degrees over F_p out.

    For a complex of free abelian groups the universal coefficient theorem
    gives H_k(C; F_p) = H_k(C) (x) F_p + Tor(H_{k-1}(C), F_p), so its
    dimension is the free rank of H_k plus the number of torsion summands
    of H_k and of H_{k-1} whose order p divides.  A degree missing from
    groups counts as the zero group, so groups must hold each k - 1 that
    lies in the complex.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    def divisible(k):
        return sum(1 for q in groups[k].torsion if q % p == 0) if k in groups else 0

    return {k: HomologyGroup(h.free_rank + divisible(k) + divisible(k - 1), (), p)
            for k, h in groups.items()}


def homology_groups(complex_, degrees=None, p=None):
    """Homology of a chain complex in the given degrees (default: all), as
    {degree: HomologyGroup} in the order given: over Z, or over the field
    of p elements when a prime p is given.

    The free rank at k is rank(k) - rank d_k - rank d_{k+1}; torsion comes
    from the invariant factors of the incoming differential (the quotient by
    a direct summand keeps exactly that torsion).  Each differential is
    reduced over Z once.  Over F_p the groups over Z at k and k - 1 go
    through `base_change`; only dimensions are reported, in groups that
    carry p.
    """
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degrees = list(complex_.degrees() if degrees is None else degrees)
    for k in degrees:
        if not complex_.lo <= k <= complex_.hi:
            raise ValueError(f"degree {k} outside the complex range")
    over_z = sorted({j for k in degrees for j in ((k,) if p is None else (k, k - 1))
                     if j >= complex_.lo})
    factors = {}
    for k in sorted({j for k in over_z for j in (k, k + 1)}):
        if not complex_.lo < k <= complex_.hi:
            factors[k] = ()  # zero map into or out of nothing
        else:
            factors[k] = smith_normal_form(complex_.differential(k)).factors
    groups = {k: _group_from_factors(complex_.rank(k), len(factors[k]), factors[k + 1])
              for k in over_z}
    if p is not None:
        groups = base_change(groups, p)
    return {k: groups[k] for k in degrees}


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
    expected[k] for the degrees k that mapping names.  d o d is walked once,
    by `check_complex`; a complex it refuses gets complex_ok=False.
    """
    try:
        complex_.check_complex()
        complex_ok = True
    except ValueError:
        complex_ok = False
    expected = expected or {}
    zero = HomologyGroup(0, ())
    entries = tuple((k, h, h == expected.get(k, zero))
                    for k, h in homology_groups(complex_, degrees).items())
    return ExactnessReport(complex_ok=complex_ok, entries=entries)
