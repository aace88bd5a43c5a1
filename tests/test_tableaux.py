import dataclasses
from math import factorial

import pytest

from schurres import tableaux
from schurres.combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weight_matrices,
    is_upper_triangular,
    matrix_marginal,
    transpose_matrix,
)
from schurres.complexes import ChainComplex, Matrix
from schurres.homology import smith_normal_form
from schurres.schur import structure_constants
from schurres.schurfunctor import (
    truncated_resolution,
    all_permutations,
    compose_permutations,
    multilinear_weight,
    permutation_weight_matrix,
    weight_matrix_permutation,
)
from schurres.tableaux import (
    act,
    bh_label_of_bar_tuple,
    build_bh_complex,
    canonical_tableau,
    compare_with_schur_functor,
    expand_in_tableau_basis,
    is_row_semistandard,
    matrix_of_tableau,
    multilinear_tableaux,
    row_semistandard_tableaux,
    semistandard_tableau_count,
    standard_tableau_count,
    tableau_content,
    tableau_hom,
    tableau_of_matrix,
    tableau_shape,
)


def hooks(rows):
    cells = [(i, j) for i, length in enumerate(rows) for j in range(length)]
    out = {}
    for i, j in cells:
        arm = rows[i] - j - 1
        leg = sum(1 for a, b in cells if b == j and a > i)
        out[(i, j)] = arm + leg + 1
    return out


def syt_hook_formula(rows):
    h = hooks(rows)
    value = factorial(sum(rows))
    for v in h.values():
        value //= v
    return value


def ssyt_hook_formula(rows, n):
    h = hooks(rows)
    num = den = 1
    for (i, j), hook in h.items():
        num *= n + j - i
        den *= hook
    assert num % den == 0
    return num // den


def test_rss_enumeration_examples():
    assert len(row_semistandard_tableaux((1, 1), (1, 1))) == 2
    got = row_semistandard_tableaux((2, 0), (1, 1))
    assert got == (((1, 2), ()),)
    for lam in enumerate_compositions(3, 3):
        count = factorial(3)
        for part in lam:
            count //= factorial(part)
        assert len(multilinear_tableaux(lam)) == count


def test_rss_matches_matrix_family():
    for lam in enumerate_compositions(3, 3):
        for mu in enumerate_compositions(3, 3):
            tabs = row_semistandard_tableaux(lam, mu)
            mats = enumerate_weight_matrices(3, 3, col_sums=mu, row_sums=lam)
            assert len(tabs) == len(mats)
            for tab in tabs:
                assert is_row_semistandard(tab)
                assert tableau_content(tab, 3) == mu


def test_matrix_tableau_roundtrip():
    assert matrix_of_tableau(((1,), (2,))) == ((1, 0), (0, 1))
    assert tableau_of_matrix(((1, 1), (0, 0))) == ((1, 2), ())
    for lam in enumerate_compositions(3, 3):
        for mu in enumerate_compositions(3, 3):
            for tab in row_semistandard_tableaux(lam, mu):
                assert tableau_of_matrix(matrix_of_tableau(tab)) == tab
            for m in enumerate_weight_matrices(3, 3, col_sums=mu, row_sums=lam):
                assert matrix_of_tableau(tableau_of_matrix(m)) == m
    with pytest.raises(ValueError):
        matrix_of_tableau(((2, 1), ()))


def test_canonical_tableau_and_action():
    assert canonical_tableau((2, 1, 0)) == ((1, 2), (3,), ())
    t = canonical_tableau((2, 1))
    assert act((1, 2, 3), t) == t
    assert act((3, 1, 2), t) == ((1, 3), (2,))


def test_tableau_hom_identity_and_row_collapse():
    lam = (2, 1, 0)
    diag = tuple(tuple(lam[s] if s == t else 0 for t in range(3)) for s in range(3))
    assert tableau_hom(tableau_of_matrix(diag)) == Matrix.identity(
        len(multilinear_tableaux(lam)))
    collapse = tableau_hom(((1, 2), ()))  # shape (2,0), content (1,1)
    assert collapse.nrows == 1 and collapse.ncols == 2
    assert collapse.rows == ((1, 1),)


def test_tableau_hom_is_equivariant():
    def action_matrix(sigma, shape):
        basis = multilinear_tableaux(shape)
        index = {t: i for i, t in enumerate(basis)}
        return Matrix.from_entries(len(basis), len(basis),
                                   [(index[act(sigma, t)], j, 1) for j, t in enumerate(basis)])

    for lam in enumerate_compositions(3, 3):
        for mu in enumerate_compositions(3, 3):
            for tab in row_semistandard_tableaux(lam, mu):
                hom = tableau_hom(tab)
                for sigma in all_permutations(3):
                    assert action_matrix(sigma, lam) @ hom \
                        == hom @ action_matrix(sigma, mu)


def test_permutation_tableau_hom_permutes_basis():
    for r in (2, 3, 4):
        delta = multilinear_weight(r, r)
        basis = multilinear_tableaux(delta)
        index = {t: i for i, t in enumerate(basis)}
        t_delta = canonical_tableau(delta)
        for sigma in all_permutations(r):
            ws = permutation_weight_matrix(sigma, r)
            hom = tableau_hom(tableau_of_matrix(ws)).rows
            # a permutation matrix's transpose is the inverse permutation's
            inv = weight_matrix_permutation(transpose_matrix(ws))
            for tau in all_permutations(r):
                src = act(tau, t_delta)
                expected = act(compose_permutations(tau, inv), t_delta)
                col = index[src]
                for i, tab in enumerate(basis):
                    assert hom[i][col] == (1 if tab == expected else 0)


def test_composition_matches_structure_constants():
    # two-route check: tableau-level composition against the algebra product
    for n, r in [(2, 2), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for om in mats:
            hom_left = tableau_hom(tableau_of_matrix(om))
            for pi in mats:
                if matrix_marginal(om, 1) != matrix_marginal(pi, 2):
                    continue
                product = hom_left @ tableau_hom(tableau_of_matrix(pi))
                expansion = expand_in_tableau_basis(
                    product, matrix_marginal(om, 2), matrix_marginal(pi, 1))
                assert expansion == dict(structure_constants(om, pi))


def test_expand_detects_non_equivariant():
    # M^(2,0) -> M^(1,1): both target tableaux share one profile class, so a
    # map hitting only one of them cannot be equivariant
    bad = Matrix.from_entries(2, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        expand_in_tableau_basis(bad, (1, 1), (2, 0))


def reference_bh_differential(labels_k, labels_km1, k, n):
    """The per-column differential: every column multiplies the full matrices
    of each adjacent pair and expands the product afresh."""
    index = {lab: i for i, lab in enumerate(labels_km1)}
    mat = [[0] * len(labels_k) for _ in labels_km1]
    for col, lab in enumerate(labels_k):
        functional, homs = lab[0], lab[1:]
        hom1 = tableau_hom(homs[0]).rows
        fun_index = multilinear_tableaux(tableau_shape(functional)).index(functional)
        next_domain = multilinear_tableaux(tableau_content(homs[0], n))
        for j, target_fun in enumerate(next_domain):
            c = hom1[fun_index][j]
            if c:
                target = (target_fun,) + homs[1:]
                mat[index[target]][col] += c
        for t in range(1, k):
            sign = -1 if t % 2 else 1
            left, right = homs[t - 1], homs[t]
            product_matrix = tableau_hom(left) @ tableau_hom(right)
            expansion = expand_in_tableau_basis(
                product_matrix, tableau_shape(left), tableau_content(right, n))
            for omega, c in expansion.items():
                if not is_upper_triangular(omega):
                    raise ValueError("composition left the upper-triangular span")
                merged = tableau_of_matrix(omega)
                target = (functional,) + homs[:t - 1] + (merged,) + homs[t + 1:]
                mat[index[target]][col] += sign * c
    return Matrix.from_rows(mat, len(labels_k))


def adjacent_pairs(cx):
    return {(lab[t - 1], lab[t]) for k in cx.degrees() for lab in cx.labels[k]
            for t in range(2, len(lab))}


@pytest.mark.parametrize("lam, n", [
    *((lam, r) for r in range(1, 5) for lam in enumerate_partitions(r, r)),
    ((2, 1, 1, 1, 0), 5),
])
def test_bh_differential_matches_the_per_column_reference(lam, n):
    cx = build_bh_complex(lam, n)
    for k in range(cx.lo + 1, cx.hi + 1):
        expected = reference_bh_differential(cx.labels[k], cx.labels[k - 1], k, n)
        assert cx.differential(k) == expected, (lam, k)


def test_canonical_column_expansion_matches_the_full_product():
    for n, r in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for om in mats:
            left = tableau_of_matrix(om)
            for pi in mats:
                if matrix_marginal(om, 1) != matrix_marginal(pi, 2):
                    continue
                right = tableau_of_matrix(pi)
                full = expand_in_tableau_basis(
                    tableau_hom(left) @ tableau_hom(right),
                    matrix_marginal(om, 2), matrix_marginal(pi, 1))
                assert tableaux._composition_at_canonical_column(left, right, n) == full


def test_bh_build_expands_each_adjacent_pair_once(monkeypatch):
    calls = []
    expand = tableaux.expand_canonical_column

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(tableaux, "expand_canonical_column", counted)
    cx = build_bh_complex((2, 1, 1, 1, 0), 5)
    assert len(calls) == len(adjacent_pairs(cx)) == 262
    calls.clear()
    build_bh_complex((2, 1, 1, 1, 0), 5)
    assert len(calls) == 262  # the cache lives for one build only


def test_bh_build_resolves_each_first_hom_once(monkeypatch):
    calls = []
    resolve = tableaux._resolve_first_hom

    def counted(hom, n):
        calls.append(hom)
        return resolve(hom, n)

    monkeypatch.setattr(tableaux, "_resolve_first_hom", counted)
    cx = build_bh_complex((2, 1, 1, 1, 0), 5)
    firsts = {lab[1] for k in cx.degrees() for lab in cx.labels[k] if len(lab) > 1}
    assert len(calls) == len(set(calls)) == len(firsts)


def test_bh_build_detects_a_non_equivariant_hom(monkeypatch):
    # the hom of a left factor of a composition in the complex sends every
    # source tableau to the last basis tableau alone, which is not equivariant
    lam = (2, 1, 1, 0)
    left, _ = min(adjacent_pairs(build_bh_complex(lam)))
    corrupt = matrix_of_tableau(left)
    hom_of = tableaux._tableau_hom_matrix

    def patched(omega):
        mat = hom_of(omega)
        if omega != corrupt:
            return mat
        return Matrix.from_columns(mat.nrows, [{mat.nrows - 1: 1}] * mat.ncols)

    monkeypatch.setattr(tableaux, "_tableau_hom_matrix", patched)
    with pytest.raises(ValueError, match="not equivariant"):
        build_bh_complex(lam)


def test_bh_build_detects_a_composition_outside_the_triangular_span(monkeypatch):
    compose = tableaux._composition_at_canonical_column

    def transposed(*args):
        return {transpose_matrix(omega): c for omega, c in compose(*args).items()}

    monkeypatch.setattr(tableaux, "_composition_at_canonical_column", transposed)
    with pytest.raises(ValueError, match="upper-triangular"):
        build_bh_complex((1, 1, 1))


def test_tableau_hom_is_immutable():
    tab = ((1, 2), ())
    d1 = build_bh_complex((1, 1)).differential(1)
    hom = tableau_hom(tab)
    with pytest.raises(TypeError):
        hom.rows[0][0] = 99
    with pytest.raises(AttributeError):
        hom.columns = ((), ())
    assert tableau_hom(tab).rows == ((1, 1),)
    assert build_bh_complex((1, 1)).differential(1) == d1


def test_bh_complex_small():
    cx = build_bh_complex((1, 1))
    assert [cx.rank(k) for k in cx.degrees()] == [2, 1]
    snf = smith_normal_form(cx.differential(1))
    assert cx.rank(0) - snf.rank == 1 and all(f == 1 for f in snf.factors)

    top = build_bh_complex((2, 0))
    assert list(top.degrees()) == [0]
    assert top.rank(0) == 1


def test_bh_complex_axiom():
    for r in (2, 3):
        for lam in enumerate_partitions(r, r):
            build_bh_complex(lam).check_complex()


def test_bh_rejects_bad_input():
    with pytest.raises(ValueError):
        build_bh_complex((1, 2))
    with pytest.raises(ValueError):
        build_bh_complex((2, 1), 2)


def test_compare_small_cases():
    for lam in [(1, 1), (2, 0), (2, 1, 0), (1, 1, 1), (3, 0, 0)]:
        report = compare_with_schur_functor(lam)
        assert report.ok, (lam, report.matrices_equal, report.cokernel_ranks)


def test_comparison_report_is_immutable():
    report = compare_with_schur_functor((1, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.cokernel_ranks = (0, 0)
    assert report.ok


def test_compare_with_more_rows_than_boxes():
    for lam in [(1, 1, 0), (2, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0)]:
        report = compare_with_schur_functor(lam)
        assert report.ok, lam


def test_compare_negative_control():
    # permuting one basis order without remapping the matrices must trip the
    # entrywise comparison; pick a degree-0 pair whose incoming rows differ
    lam = (1, 1, 1)
    bh = build_bh_complex(lam)
    d1 = bh.differential(1).rows
    swap = next((i, j) for i in range(len(d1)) for j in range(i + 1, len(d1))
                if d1[i] != d1[j])
    labels0 = list(bh.labels[0])
    labels0[swap[0]], labels0[swap[1]] = labels0[swap[1]], labels0[swap[0]]
    hacked = ChainComplex({**bh.labels, 0: tuple(labels0)}, bh.differentials,
                          meta=bh.meta)
    report = compare_with_schur_functor(lam, bh=hacked)
    assert not report.ok
    assert not all(report.matrices_equal.values())


def test_compare_detects_an_extra_nonzero():
    lam = (2, 1, 1, 0)
    fb = truncated_resolution(lam)
    bh = build_bh_complex(lam)
    assert compare_with_schur_functor(lam, fb=fb, bh=bh).ok
    # a zero of the truncation's d_2 maps to a zero of the BH d_2
    position = [{lab: i for i, lab in enumerate(bh.labels[k])} for k in (1, 2)]
    d2 = fb.differential(2).rows
    i, j = next((i, j) for i, row in enumerate(d2) for j, v in enumerate(row) if v == 0)
    row = position[0][bh_label_of_bar_tuple(fb.labels[1][i])]
    col = position[1][bh_label_of_bar_tuple(fb.labels[2][j])]
    bh_d2 = bh.differential(2)
    assert bh_d2.rows[row][col] == 0
    hacked_d2 = bh_d2 + Matrix.from_entries(bh_d2.nrows, bh_d2.ncols, [(row, col, 1)])
    hacked = ChainComplex(bh.labels, {**bh.differentials, 2: hacked_d2}, meta=bh.meta)
    report = compare_with_schur_functor(lam, fb=fb, bh=hacked)
    assert not report.ok
    assert report.degree_match and report.matrices_equal[1]
    assert not report.matrices_equal[2]


def test_compare_detects_a_non_bijective_relabelling():
    # two top-degree labels name one BH basis element, and the columns are
    # arranged so that the mapped nonzero entries still agree as sets
    lam = (2, 1, 1, 0)
    fb = truncated_resolution(lam)
    bh = build_bh_complex(lam)
    top = fb.hi
    lost = bh.labels[top].index(bh_label_of_bar_tuple(fb.labels[top][1]))
    labels = list(fb.labels[top])
    labels[1] = labels[0]
    fb_rows = [list(row) for row in fb.differential(top).rows]
    bh_rows = [list(row) for row in bh.differential(top).rows]
    for fb_row, bh_row in zip(fb_rows, bh_rows):
        fb_row[1] = fb_row[0]
        bh_row[lost] = 0
    fb_d = Matrix.from_rows(fb_rows)
    bh_d = Matrix.from_rows(bh_rows)
    fb_hacked = ChainComplex({**fb.labels, top: tuple(labels)},
                             {**fb.differentials, top: fb_d}, meta=fb.meta)
    bh_hacked = ChainComplex(bh.labels, {**bh.differentials, top: bh_d}, meta=bh.meta)
    report = compare_with_schur_functor(lam, fb=fb_hacked, bh=bh_hacked)
    assert report.degree_match
    assert not report.ok
    assert not report.matrices_equal[top]
    assert all(report.matrices_equal[k] for k in range(1, top))


def test_relabelling_matches_the_oracle_and_converts_each_matrix_once(monkeypatch):
    lam = (2, 1, 1, 0)
    fb = truncated_resolution(lam)
    labels = [tup for k in fb.degrees() for tup in fb.labels[k]]
    converted = []
    to_tableau = tableaux.tableau_of_matrix

    def counted(omega):
        converted.append(omega)
        return to_tableau(omega)

    monkeypatch.setattr(tableaux, "tableau_of_matrix", counted)
    relabel = tableaux._bh_relabelling()
    got = [relabel(tup) for tup in labels]
    heads = {tup[0] for tup in labels}
    tails = {w for tup in labels for w in tup[1:]}
    assert len(converted) == len(heads) + len(tails) < sum(map(len, labels))
    monkeypatch.undo()
    assert got == [bh_label_of_bar_tuple(tup) for tup in labels]


def test_tableau_counters_match_hook_formulas():
    for shape in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (4,), (1, 1, 1, 1)]:
        assert standard_tableau_count(shape) == syt_hook_formula(list(shape))
    assert standard_tableau_count((2, 1)) == 2
    for shape, n in [((2, 1), 3), ((1, 1), 2), ((2, 0), 2), ((2, 2), 3), ((3, 1), 4)]:
        rows = [v for v in shape if v]
        assert semistandard_tableau_count(shape, n) == ssyt_hook_formula(rows, n)
    assert semistandard_tableau_count((2, 1), 3) == 8


def test_counters_reject_non_partitions():
    with pytest.raises(ValueError):
        standard_tableau_count((1, 2))
    with pytest.raises(ValueError):
        semistandard_tableau_count((1, 2), 2)
