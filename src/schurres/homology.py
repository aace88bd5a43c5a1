"""Exact integer linear algebra: Smith normal form, and homology over Z and
over prime fields.

Differentials are very sparse and almost all of their pivots are +-1, so
the one Smith reduction copies the matrix's sparse columns into working
dicts, with an index from each row to the columns holding it, and touches
only nonzero entries.  It sweeps the units first: columns shortest first,
and in each the unit whose row is shortest, which keeps fill-in small;
sweeps repeat until one removes nothing.  Eliminating a unit splits off an
invariant factor 1 and leaves its Schur complement.  When no unit is left
it pivots on a nonzero entry p of least absolute value (ties: shortest
column): column operations replace row i of every other column by its
remainder modulo p, and once row i is p alone, row operations reduce
column j modulo p.  If p is then alone in its row and column it is split
off as a diagonal entry; otherwise a remainder smaller than |p| is left,
so the least |entry| falls until a pivot splits off, and the reduction
ends.  Every step is unimodular over unbounded integers, so the diagonal
has the matrix's invariant factors, once each pair of diagonal entries is
replaced by its gcd and lcm.

That reduction over Z is the only one.  Homology groups of a chain complex
over Z come out as free rank plus a multiset of prime-power torsion
factors.  Every complex here is one of free abelian groups, so by the
universal coefficient theorem its homology over F_p follows from its
homology over Z (`base_change`), and a rank over F_p is the number of
invariant factors that p does not divide: no matrix is reduced mod p.
"""

from collections import namedtuple
from math import gcd, lcm


class SmithForm(namedtuple("SmithForm", "factors")):
    """Invariant factors (nonzero, each dividing the next) of an integer
    matrix."""

    __slots__ = ()

    @property
    def rank(self):
        return len(self.factors)


def smith_normal_form(mat):
    """Smith normal form by sparse elimination: unit sweeps, then a pivot on
    a least nonzero entry whenever a sweep finds no unit."""
    cols = [dict(col) for col in mat.columns]
    rows = {}  # row -> the columns holding it
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)

    def pivot(i, j):
        """Reduce row i of every other column, then column j, modulo
        p = cols[j][i]; return |p| once p is alone in its row and column,
        else None with a smaller entry left in row i or column j."""
        col = cols[j]
        p = col.pop(i)
        row = rows.pop(i)
        row.discard(j)
        kept = [j]  # column j and those whose remainder in row i is not zero
        for c in row:
            other = cols[c]
            q, rem = divmod(other.pop(i), p)
            if rem:
                other[i] = rem
                kept.append(c)
            if q:
                for r, v in col.items():
                    w = other.get(r, 0) - q * v
                    if w:
                        if r not in other:
                            rows[r].add(c)
                        other[r] = w
                    elif r in other:
                        del other[r]
                        rows[r].discard(c)
        if len(kept) == 1:  # row i is p alone: row operations touch column j only
            cols[j] = reduced = {}
            for r, v in col.items():
                w = v % p
                if w:
                    reduced[r] = w
                else:
                    rows[r].discard(j)
            if not reduced:
                return abs(p)
            col = reduced
        rows[i] = set(kept)
        col[i] = p
        return None

    units, diagonal = 0, []
    live = range(len(cols))  # increasing; holds every nonempty column
    while True:
        swept = True
        while swept:
            swept = False
            live = [j for j in live if cols[j]]
            for j in sorted(live, key=lambda j: len(cols[j])):
                candidates = [i for i, v in cols[j].items() if v in (1, -1)]
                if candidates:
                    pivot(min(candidates, key=lambda r: (len(rows[r]), r)), j)
                    units += 1
                    swept = True
        least = min(((abs(v), len(cols[j]), j, i) for j in live
                     for i, v in cols[j].items()), default=None)
        if least is None:
            break
        _, _, j, i = least
        d = pivot(i, j)
        if d is not None:
            diagonal.append(d)
    # diag(a, b) and diag(gcd, lcm) are equivalent; replacing each pair in
    # turn leaves each entry dividing the next
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            diagonal[a], diagonal[b] = (gcd(diagonal[a], diagonal[b]),
                                        lcm(diagonal[a], diagonal[b]))
    return SmithForm((1,) * units + tuple(diagonal))


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


class HomologyGroup(namedtuple("HomologyGroup", "free_rank torsion prime", defaults=(None,))):
    """Finitely generated abelian group: free rank plus prime-power torsion;
    over the field of `prime` elements (None for Z) the free rank is the
    dimension and there is no torsion."""

    __slots__ = ()

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


class ExactnessReport(namedtuple("ExactnessReport", "complex_ok entries")):
    """Per-degree homology with pass/fail, plus the complex axiom check;
    entries are (degree, HomologyGroup, ok) triples."""

    __slots__ = ()

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
    expected[k] for the degrees k that mapping names; naming an unchecked
    degree raises ValueError.  d o d is walked once, by `check_complex`; a
    complex it refuses gets complex_ok=False.
    """
    degrees = list(complex_.degrees() if degrees is None else degrees)
    if not set(degrees) >= set(expected or ()):
        raise ValueError("expected groups name a degree that is not checked")
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
