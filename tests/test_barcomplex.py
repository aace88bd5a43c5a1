import re

import pytest

from schurres import barcomplex
from schurres.barcomplex import (
    augmentation_row,
    build_borel_resolution,
    build_weyl_resolution,
    differential,
    enumerate_bar_basis,
    homotopy,
)
from schurres.combinatorics import (
    enumerate_compositions,
    enumerate_dominance_chains,
    enumerate_partitions,
    enumerate_weight_matrices,
    flatten,
    matrix_marginal,
    max_chain_length,
)
from schurres.complexes import Matrix
from schurres.homology import HomologyGroup, homology, homology_groups, verify_exactness
from schurres.schurfunctor import multilinear_weight
from schurres.tableaux import semistandard_tableau_count

from dense import euler_characteristic, submatrix
import slow_paths
from slow_paths import regrowing_bar_basis

D20 = ((2, 0), (0, 0))
U11 = ((1, 1), (0, 0))
D11 = ((1, 0), (0, 1))


def test_bar_basis_examples():
    assert set(enumerate_bar_basis((1, 1), 0)) == {(D11,), (U11,)}
    assert enumerate_bar_basis((1, 1), 1) == ((D20, U11),)
    assert enumerate_bar_basis((1, 1), 2) == ()


def test_bar_basis_chain_constraints():
    for lam in enumerate_compositions(3, 3):
        for k in range(max_chain_length(3, 3) + 1):
            for variant in ("borel", "full"):
                for tup in enumerate_bar_basis(lam, k, variant):
                    assert len(tup) == k + 1
                    assert matrix_marginal(tup[-1], 1) == lam
                    for a, b in zip(tup, tup[1:]):
                        assert matrix_marginal(a, 1) == matrix_marginal(b, 2)


def test_bar_basis_vanishes_beyond_chain_bound():
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        bound = max_chain_length(n, r)
        for lam in enumerate_compositions(n, r):
            for k in range(bound, bound + 3):
                assert enumerate_bar_basis(lam, k, "borel") == ()
                assert enumerate_bar_basis(lam, k, "full") == ()


def test_bar_basis_in_flattened_lex_order():
    for lam in [(2, 1, 0), (1, 1, 1), (2, 1, 1)]:
        for k in range(3):
            for variant in ("borel", "full"):
                basis = enumerate_bar_basis(lam, k, variant)
                assert list(basis) == sorted(
                    basis, key=lambda tup: tuple(flatten(w) for w in tup), reverse=True)


def _reference_cases():
    """(lam, nu) pairs checked against the regrowing reference: each whole
    basis, every weight block at n <= 3, two blocks at n = 4 and the
    multilinear block of (2,1,1,1,0)."""
    lams = [*enumerate_compositions(3, 4), (2, 1, 0), (2, 2, 1), (3, 2, 1), (2, 1, 1, 1),
            (1, 2, 0), (0, 2, 1)]
    for lam in lams:
        n, r = len(lam), sum(lam)
        nus = enumerate_compositions(n, r) if n <= 3 else [(2, 1, 1, 1), (1, 1, 1, 2)]
        for nu in (None, *nus):
            yield lam, nu
    yield (2, 1, 1, 1, 0), multilinear_weight(5, 5)


@pytest.mark.parametrize("variant", barcomplex.VARIANTS)
def test_bar_basis_equals_the_regrowing_reference(variant):
    for lam, nu in _reference_cases():
        for k in range(max_chain_length(len(lam), sum(lam)) + 1):
            assert enumerate_bar_basis(lam, k, variant, nu) == regrowing_bar_basis(
                lam, k, variant, nu), (lam, nu, k)


@pytest.mark.parametrize("nu", [(1, 1), (2, 1, 0, 0), (2, 2, -1), (1, 1, 0), (2, 1, 1)])
def test_bar_basis_refuses_a_weight_that_is_not_a_composition(nu):
    # a wrong length, a negative part and a wrong sum, at every degree
    for k in (0, 1, max_chain_length(3, 3)):
        with pytest.raises(ValueError, match=re.escape(f"weight {nu} is not a composition")):
            enumerate_bar_basis((2, 1, 0), k, "full", nu)
    with pytest.raises(ValueError, match=re.escape(f"weight {nu} is not a composition")):
        build_weyl_resolution((2, 1, 0), nu)


def test_weight_blocks_partition_the_full_basis():
    # every partition at n=3, r<=4, every composition as the block weight
    for r in range(5):
        comps = enumerate_compositions(3, r)
        for lam in enumerate_partitions(3, r):
            for k in range(max_chain_length(3, r)):
                full = enumerate_bar_basis(lam, k, "full")
                blocks = {nu: enumerate_bar_basis(lam, k, "full", nu) for nu in comps}
                for nu, block in blocks.items():
                    assert block == tuple(tup for tup in full
                                          if matrix_marginal(tup[0], 2) == nu)
                merged = [tup for block in blocks.values() for tup in block]
                assert sorted(merged, reverse=True) == list(full)


def test_block_differential_is_a_submatrix_of_the_full_one():
    # every weight block of every partition at n=3, r<=4, and the multilinear
    # block (the Schur-functor truncation) of every partition at n=4, r=4
    cases = [(lam, enumerate_compositions(3, r))
             for r in range(1, 5) for lam in enumerate_partitions(3, r)]
    cases += [(lam, [multilinear_weight(4, 4)]) for lam in enumerate_partitions(4, 4)]
    for lam, comps in cases:
        n, r = len(lam), sum(lam)
        full = [enumerate_bar_basis(lam, k, "full") for k in range(max_chain_length(n, r))]
        for nu in comps:
            for k, basis in enumerate(full):
                assert enumerate_bar_basis(lam, k, "full", nu) == tuple(
                    tup for tup in basis if matrix_marginal(tup[0], 2) == nu)
        blocks = {nu: [enumerate_bar_basis(lam, k, "full", nu) for k in range(len(full))]
                  for nu in comps}
        for k in range(1, len(full)):
            full_d = differential(full[k], full[k - 1])
            position = [{tup: i for i, tup in enumerate(full[j])} for j in (k - 1, k)]
            for block in blocks.values():
                rows, cols = ([position[j][tup] for tup in block[k - 1 + j]] for j in (0, 1))
                assert differential(block[k], block[k - 1]) == submatrix(full_d, rows, cols)


def test_weyl_block_resolution():
    lam, nu = (2, 1, 1), (1, 2, 1)
    block = build_weyl_resolution(lam, nu)
    assert all(block.labels[k] == enumerate_bar_basis(lam, k, "full", nu)
               for k in block.degrees())
    assert enumerate_bar_basis(lam, block.hi + 1, "full", nu) == ()
    assert verify_exactness(block, list(range(1, block.hi + 1))).ok


def test_kostka_number_examples():
    assert semistandard_tableau_count((2, 1, 0), 3, (1, 1, 1)) == 2
    assert semistandard_tableau_count((2, 1, 0), 3, (2, 1, 0)) == 1
    assert semistandard_tableau_count((2, 1, 0), 3, (0, 1, 2)) == 1
    assert semistandard_tableau_count((2, 1, 0), 3, (3, 0, 0)) == 0
    assert semistandard_tableau_count((2, 1, 1, 0), 4, (1, 1, 1, 1)) == 3
    assert semistandard_tableau_count((2, 1, 0), 3, (2, 1, 1)) == 0  # |nu| != |lam|


@pytest.mark.parametrize("lam", [
    *(lam for r in range(5) for lam in enumerate_partitions(3, r)),
    (2, 1, 1, 0),
])
def test_weight_block_h0_is_the_kostka_number(lam):
    # the nu block resolves the nu weight space of the Weyl module
    n = len(lam)
    total = 0
    for nu in enumerate_compositions(n, sum(lam)):
        block = build_weyl_resolution(lam, nu)
        kostka = semistandard_tableau_count(lam, n, nu)
        assert homology_groups(block) == {
            k: HomologyGroup(kostka if k == 0 else 0, ()) for k in block.degrees()
        }, (lam, nu)
        total += kostka
    assert total == semistandard_tableau_count(lam, n)


def test_direct_sum_shape():
    # degree-k tuples with given head marginal factor through dominance chains
    lam = (1, 1, 1)
    n, r = 3, 3

    def edge_count(nu, mu):
        return len(enumerate_weight_matrices(n, r, col_sums=mu, row_sums=nu,
                                             min_degree=1))

    for k in range(1, max_chain_length(n, r)):
        basis = enumerate_bar_basis(lam, k, "borel")
        for mu in enumerate_compositions(n, r):
            got = sum(1 for tup in basis if matrix_marginal(tup[0], 1) == mu)
            chain_total = 0
            for chain in enumerate_dominance_chains(lam, k):
                if chain[0] != mu:
                    continue
                shapes = chain + (lam,)
                count = 1
                for a, b in zip(shapes, shapes[1:]):
                    count *= edge_count(a, b)
                chain_total += count
            heads = len(enumerate_weight_matrices(n, r, col_sums=mu,
                                                  upper_triangular=True))
            assert got == heads * chain_total


def test_differential_example():
    basis0 = enumerate_bar_basis((1, 1), 0)
    d1 = differential(enumerate_bar_basis((1, 1), 1), basis0)
    col_target = basis0.index((U11,))
    assert d1 == Matrix.from_entries(2, 1, [(col_target, 0, 1)])


def test_differential_squares_to_zero():
    for lam in enumerate_compositions(3, 3):
        for variant in ("borel", "full"):
            basis = [enumerate_bar_basis(lam, k, variant) for k in range(max_chain_length(3, 3))]
            diffs = [differential(basis[k], basis[k - 1])
                     for k in range(1, len(basis)) if basis[k]]
            for prev, cur in zip(diffs, diffs[1:]):
                assert not any((prev @ cur).columns)


def test_empty_degree_gives_empty_matrix():
    d = differential(enumerate_bar_basis((2, 0), 1, "borel"),
                     enumerate_bar_basis((2, 0), 0, "borel"))
    assert (d.nrows, d.ncols) == (1, 0)


def test_homotopy_examples():
    basis = {-1: ((),), **{k: enumerate_bar_basis((1, 1), k) for k in range(3)}}
    s_minus1 = homotopy(basis[-1], basis[0])
    basis0 = basis[0]
    assert s_minus1.rows[basis0.index((D11,))][0] == 1
    assert s_minus1.rows[basis0.index((U11,))][0] == 0

    s0 = homotopy(basis[0], basis[1])
    assert s0.rows[0][basis0.index((D11,))] == 0
    assert s0.rows[0][basis0.index((U11,))] == 1

    # homotopy out of the top degree is the empty matrix
    s1 = homotopy(basis[1], basis[2])
    assert (s1.nrows, s1.ncols) == (0, 1)


def test_borel_resolution_small():
    cx = build_borel_resolution((1, 1))
    assert [cx.rank(k) for k in cx.degrees()] == [1, 2, 1]
    assert verify_exactness(cx).ok
    assert euler_characteristic(cx) == 0


def test_borel_homotopy_identities():
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        for lam in enumerate_compositions(n, r):
            cx = build_borel_resolution(lam)
            assert cx.differential(0) @ cx.homotopy(-1) == Matrix.identity(1)
            for k in range(0, cx.hi + 1):
                lhs = (cx.differential(k + 1) @ cx.homotopy(k)
                       + cx.homotopy(k - 1) @ cx.differential(k))
                assert lhs == Matrix.identity(cx.rank(k))


def test_weyl_resolution_small():
    cx = build_weyl_resolution((1, 1))
    assert [cx.rank(k) for k in cx.degrees()] == [4, 3]
    assert homology(cx, 1).is_trivial
    h0 = homology(cx, 0)
    assert h0.free_rank == 1 and h0.is_free
    assert euler_characteristic(cx) == h0.free_rank


def test_top_composition_has_length_zero():
    for lam in [(2, 0), (3, 0, 0), (4,)]:
        cx = build_borel_resolution(lam)
        assert cx.hi == 0
        assert cx.rank(0) == len(enumerate_weight_matrices(
            len(lam), sum(lam), col_sums=lam, upper_triangular=True))
        w = build_weyl_resolution(lam)
        assert w.hi == 0


def test_degenerate_r_zero():
    lam = (0, 0)
    cx = build_borel_resolution(lam)
    assert [cx.rank(k) for k in cx.degrees()] == [1, 1]
    assert verify_exactness(cx).ok
    w = build_weyl_resolution(lam)
    assert homology(w, 0).free_rank == 1


def test_weyl_h0_matches_tableau_count():
    for lam in enumerate_partitions(2, 3):
        cx = build_weyl_resolution(lam)
        assert verify_exactness(cx, list(range(1, cx.hi + 1))).ok
        h0 = homology(cx, 0)
        assert h0.is_free
        assert h0.free_rank == semistandard_tableau_count(lam, 2)
        assert euler_characteristic(cx) == h0.free_rank


def test_mod_p_exactness_small():
    for lam in enumerate_partitions(2, 3):
        cx = build_weyl_resolution(lam)
        expected = homology(cx, 0).free_rank
        for p in (2, 3, 5):
            for k in range(1, cx.hi + 1):
                assert homology(cx, k, p=p).is_trivial
            assert homology(cx, 0, p=p).free_rank == expected


def test_augmentation_row():
    basis0 = enumerate_bar_basis((1, 1), 0)
    row = augmentation_row(basis0)
    assert row.rows[0][basis0.index((D11,))] == 1
    assert row.rows[0][basis0.index((U11,))] == 0


@pytest.mark.parametrize("build, lam, variant", [
    (build_borel_resolution, (2, 1, 1), "borel"),
    (build_weyl_resolution, (2, 1, 1), "full"),
])
def test_each_build_enumerates_each_degree_once(monkeypatch, build, lam, variant):
    # once per degree plus the first empty one, and no differential or
    # homotopy asks again; the second build enumerates its weight matrices
    # as the first did, so no basis cache hides it
    def counting(log, real):
        def counted(*args, **kwargs):
            log.append(args)
            return real(*args, **kwargs)
        return counted

    calls, matrices = [], []
    monkeypatch.setattr(barcomplex, "enumerate_bar_basis",
                        counting(calls, barcomplex.enumerate_bar_basis))
    monkeypatch.setattr(barcomplex, "enumerate_weight_matrices",
                        counting(matrices, barcomplex.enumerate_weight_matrices))
    per_build = []
    for _ in range(2):
        calls.clear()
        matrices.clear()
        cx = build(lam)
        assert [args[:3] for args in calls] == [(lam, k, variant) for k in range(cx.hi + 2)]
        per_build.append(len(matrices))
    assert per_build[0] == per_build[1] > 0


@pytest.mark.parametrize("variant, lam, nu", [
    ("borel", (2, 1, 1), None),
    ("full", (2, 1, 1), None),
    ("full", (2, 1, 1), (1, 2, 1)),
    ("full", (2, 1, 1, 0), (1, 1, 1, 1)),
    # each has a chain of the longest length, so its bases reach the bound
    ("borel", (0, 0, 2), None),
    ("full", (0, 0, 2), (1, 0, 1)),
    ("borel", (0, 1), None),
    ("full", (2,), None),
    ("full", (0, 0), None),
])
def test_a_build_asks_for_the_weight_matrices_the_reference_asks_for(
        monkeypatch, variant, lam, nu):
    # the weight-matrix cache ends up holding the same entries either way
    def recording(log, real):
        def recorded(*args, **kwargs):
            log.add((args, tuple(sorted(kwargs.items()))))
            return real(*args, **kwargs)
        return recorded

    asked, reference = set(), set()
    monkeypatch.setattr(barcomplex, "enumerate_weight_matrices",
                        recording(asked, barcomplex.enumerate_weight_matrices))
    monkeypatch.setattr(slow_paths, "enumerate_weight_matrices",
                        recording(reference, slow_paths.enumerate_weight_matrices))
    if variant == "borel":
        cx = build_borel_resolution(lam)
    else:
        cx = build_weyl_resolution(lam, nu)
    assert [regrowing_bar_basis(lam, k, variant, nu) for k in range(cx.hi + 2)] == [
        *(cx.labels[k] for k in range(cx.hi + 1)), ()]
    assert asked == reference != set()
