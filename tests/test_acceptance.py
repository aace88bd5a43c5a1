"""End-to-end acceptance suite: one test per criterion, exact arithmetic,
zero tolerance.  Each test prints a single PASS line with its runtime
(visible with pytest -s or on failure)."""

import json
import random
import time

from schurres.barcomplex import build_borel_resolution, build_weyl_resolution
from schurres.cli import main as cli_main
from schurres.combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weight_matrices,
    enumerate_weight_tensors,
    filtration_degree,
    is_upper_triangular,
    max_chain_length,
)
from schurres.complexes import Matrix
from schurres.dividedpowers import (
    divided_basis,
    gl_action,
    matmul,
    to_algebra_element,
    verify_equivariance,
)
from schurres.homology import homology, verify_exactness
from schurres.oracles import compose, decode, endo_of_basis, green_convolution, tensor_power_action
from schurres.schur import (
    basis_element,
    idempotent,
    multiply,
    multiply_basis,
    structure_constants,
    tensor_multiplicity,
    zero,
)
from schurres.schurfunctor import (
    all_permutations,
    compose_permutations,
    permutation_weight_matrix,
    truncated_resolution,
)
from schurres.tableaux import (
    build_bh_complex,
    compare_with_schur_functor,
    semistandard_tableau_count,
    standard_tableau_count,
)


def _report(num, label, t0):
    print(f"[criterion {num:2d}] PASS {label} ({time.time() - t0:.1f}s)")


def _random_matrix(rng, n, lo=-3, hi=3):
    return tuple(tuple(rng.randrange(lo, hi + 1) for _ in range(n)) for _ in range(n))


def test_criterion_01_structure_constant_triangulation():
    t0 = time.time()
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for omega in mats:
            left = endo_of_basis(omega)
            for pi in mats:
                direct = multiply_basis(omega, pi)
                composed = decode(compose(left, endo_of_basis(pi)))
                convolved = green_convolution(omega, pi)
                assert direct == composed == convolved, (omega, pi)
    _report(1, "product formula == endomorphism composition == convolution, "
               "exhaustive for (n,r) in {(2,2),(2,3),(3,2),(3,3)}", t0)


def test_criterion_02_associativity_and_unit_laws():
    t0 = time.time()
    for n, r in [(2, 2), (2, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for a in mats:
            for b in mats:
                ab = multiply_basis(a, b)
                for c in mats:
                    assert multiply(ab, basis_element(c)) \
                        == multiply(basis_element(a), multiply_basis(b, c))
    rng = random.Random(20240)
    mats = enumerate_weight_matrices(3, 3)
    for _ in range(1000):
        a, b, c = (rng.choice(mats) for _ in range(3))
        assert multiply(multiply_basis(a, b), basis_element(c)) \
            == multiply(basis_element(a), multiply_basis(b, c))
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        from schurres.combinatorics import matrix_marginal
        for lam in enumerate_compositions(n, r):
            e = idempotent(lam)
            for om in mats:
                x = basis_element(om)
                assert multiply(e, x) == (x if matrix_marginal(om, 2) == lam
                                          else zero(n, r))
                assert multiply(x, e) == (x if matrix_marginal(om, 1) == lam
                                          else zero(n, r))
    _report(2, "associativity exhaustive on (2,2),(2,3) + 1000 random triples "
               "on (3,3); unit laws exhaustive for n,r <= 3", t0)


def test_criterion_03_filtration_and_nilpotency():
    t0 = time.time()
    for n in (1, 2, 3):
        for r in range(0, 5):
            uppers = enumerate_weight_matrices(n, r, upper_triangular=True)
            for omega in uppers:
                s = filtration_degree(omega)
                for pi in uppers:
                    bound = s + filtration_degree(pi)
                    for key, _ in structure_constants(omega, pi):
                        assert is_upper_triangular(key)
                        assert filtration_degree(key) >= bound
            depth = max_chain_length(n, r)
            support = set(enumerate_weight_matrices(n, r, min_degree=1))
            generators = tuple(support)
            for _ in range(depth):
                support = {key for a in support for b in generators
                           for key, _ in structure_constants(a, b)}
                if not support:
                    break
            assert not support, (n, r)
    _report(3, "products climb the filtration and the ideal power at the "
               "chain bound vanishes, for n <= 3, r <= 4", t0)


def test_criterion_04_bar_identities():
    t0 = time.time()
    for n in (1, 2, 3):
        for r in range(0, 5):
            for lam in enumerate_compositions(n, r):
                cx = build_borel_resolution(lam)  # d o d checked at build
                assert cx.differential(0) @ cx.homotopy(-1) == Matrix.identity(1)
                for k in range(0, cx.hi + 1):
                    lhs = (cx.differential(k + 1) @ cx.homotopy(k)
                           + cx.homotopy(k - 1) @ cx.differential(k))
                    assert lhs == Matrix.identity(cx.rank(k)), (lam, k)
    _report(4, "d o d = 0 and the contracting-homotopy identities hold for "
               "every composition with n <= 3, r <= 4", t0)


WEYL_SIZES = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
_weyl_cache = {}


def _weyl(lam):
    if lam not in _weyl_cache:
        _weyl_cache[lam] = build_weyl_resolution(lam)
    return _weyl_cache[lam]


def test_criterion_05_induced_resolution_exactness():
    t0 = time.time()
    for n, r in WEYL_SIZES:
        for lam in enumerate_partitions(n, r):
            cx = _weyl(lam)
            report = verify_exactness(cx, list(range(1, cx.hi + 1)))
            assert report.ok, (lam, report.failures())
            h0 = homology(cx, 0)
            assert h0.is_free, (lam, h0)
            assert h0.free_rank == semistandard_tableau_count(lam, n), lam
            assert cx.euler_characteristic() == h0.free_rank
    _report(5, "induced resolutions exact over Z with free degree-0 homology "
               "of semistandard-tableau rank, all partitions at the five "
               "desk sizes", t0)


def test_criterion_06_base_change():
    t0 = time.time()
    for n, r in WEYL_SIZES:
        for lam in enumerate_partitions(n, r):
            cx = _weyl(lam)
            expected = homology(cx, 0).free_rank
            for p in (2, 3, 5):
                for k in range(1, cx.hi + 1):
                    assert homology(cx, k, p=p).is_trivial, (lam, p, k)
                assert homology(cx, 0, p=p).free_rank == expected, (lam, p)
    _report(6, "every criterion-5 complex stays exact after reduction mod "
               "2, 3, 5 (prime-field rank checks)", t0)


def test_criterion_07_group_embedding():
    t0 = time.time()
    for r in (1, 2, 3, 4):
        n = r
        for sigma in all_permutations(r):
            ws = permutation_weight_matrix(sigma, n)
            for tau in all_permutations(r):
                wt = permutation_weight_matrix(tau, n)
                expected = permutation_weight_matrix(
                    compose_permutations(sigma, tau), n)
                assert multiply_basis(ws, wt) == basis_element(expected)
                tensors = enumerate_weight_tensors(ws, wt)
                assert len(tensors) == 1 and tensor_multiplicity(tensors[0]) == 1
    _report(7, "permutation basis elements multiply like the symmetric group "
               "with a unique multiplicity-one tensor, exhaustive r <= 4", t0)


def test_criterion_08_permutation_complex_comparison():
    t0 = time.time()
    for r in (1, 2, 3, 4):
        n = r
        for lam in enumerate_partitions(n, r):
            fb = truncated_resolution(lam)
            bh = build_bh_complex(lam, n)
            report = compare_with_schur_functor(lam, n, fb=fb, bh=bh)
            assert report.ok, (lam, report.matrices_equal, report.cokernel_ranks)
            for cx in (fb, bh):
                exact = verify_exactness(cx, list(range(1, cx.hi + 1)))
                assert exact.ok, (lam, exact.failures())
            assert report.cokernel_ranks == (standard_tableau_count(lam),) * 2
    _report(8, "truncated and permutation-module complexes agree entrywise "
               "under the tableau bijection, both exact onto a free cokernel "
               "of standard-tableau rank, all partitions of r <= 4", t0)


def test_criterion_09_divided_power_equivariance():
    t0 = time.time()
    rng = random.Random(90125)
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            matrices = [_random_matrix(rng, n) for _ in range(50)]
            lams = enumerate_compositions(n, r)
            for g in matrices:
                rho = tensor_power_action(g, r)
                for lam in lams:
                    for pi in divided_basis(lam):
                        lhs = to_algebra_element(gl_action(g, pi), n, r)
                        assert lhs == multiply(rho, basis_element(pi)), (lam, g, pi)
            ok, failures = verify_equivariance(lams[0], matrices[0])
            assert ok and not failures
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(100):
            g = _random_matrix(rng, n)
            h = _random_matrix(rng, n)
            assert multiply(tensor_power_action(g, r), tensor_power_action(h, r)) \
                == tensor_power_action(matmul(g, h), r)
    _report(9, "monomial action matches algebra multiplication on full bases "
               "for 50 random matrices per size <= (3,3); tensor-power action "
               "multiplicative on 100 random pairs per size", t0)


def test_criterion_10_determinism_and_negative_control(tmp_path, capsys):
    t0 = time.time()
    paths = [tmp_path / name for name in ("one.json", "two.json")]
    for path in paths:
        code = cli_main(["resolve", "-n", "3", "-r", "3", "--lambda", "2,1,0",
                         "--variant", "weyl", "-o", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    json.loads(paths[0].read_text())

    clean = cli_main(["verify", "-n", "2", "-r", "2", "--all",
                      "--checks", "exactness,homotopy"])
    corrupt = cli_main(["verify", "-n", "2", "-r", "2", "--all",
                        "--checks", "exactness,homotopy",
                        "--corrupt", "1,0,0,1"])
    capsys.readouterr()
    assert clean == 0 and corrupt == 1
    with capsys.disabled():
        _report(10, "repeated resolve runs byte-identical; corrupted "
                    "differential flips verify to failure", t0)


def test_criterion_11_weyl_exactness_at_n4_r4(capsys):
    t0 = time.time()
    code = cli_main(["verify", "-n", "4", "-r", "4", "--checks", "exactness",
                     "--mod", "2,3,5"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines() == ["ok exactness (n=4, r=4)"]
    with capsys.disabled():
        _report(11, "Weyl resolutions of every partition at n=4, r=4 exact "
                    "over Z and mod 2, 3, 5 with free degree-0 homology of "
                    "semistandard-tableau rank", t0)
