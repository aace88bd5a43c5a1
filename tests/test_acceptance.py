"""End-to-end acceptance suite: one test per criterion, exact arithmetic,
zero tolerance.  Each test prints a single PASS line with its runtime
(visible with pytest -s or on failure)."""

import json
import time

from schurres.barcomplex import build_borel_resolution, build_weyl_resolution
from schurres.cli import main as cli_main
from schurres.combinatorics import (
    diagonal_matrix,
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weight_matrices,
    filtration_degree,
    is_upper_triangular,
    matrix_marginal,
    max_chain_length,
    pair_weight,
)
from schurres.complexes import Matrix
from schurres.dividedpowers import verify_equivariance
from schurres.homology import homology, verify_exactness
from schurres.oracles import compose, decode, endo_of_basis, green_convolution, tensor_power_action
from schurres.schur import (
    basis_element,
    multiply,
    multiply_basis,
    structure_constants,
    zero,
)
from schurres.schurfunctor import (
    all_permutations,
    compose_permutations,
    truncated_resolution,
)
from schurres.tableaux import (
    build_bh_complex,
    compare_with_schur_functor,
    semistandard_tableau_count,
    standard_tableau_count,
)

from dense import euler_characteristic, matmul
from weight_tensors import enumerate_weight_tensors, tensor_multiplicity


def _report(num, label, t0):
    print(f"[criterion {num:2d}] PASS {label} ({time.time() - t0:.1f}s)")


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
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        mats = enumerate_weight_matrices(n, r)
        for lam in enumerate_compositions(n, r):
            e = basis_element(diagonal_matrix(lam))
            for om in mats:
                x = basis_element(om)
                assert multiply(e, x) == (x if matrix_marginal(om, 2) == lam
                                          else zero(n, r))
                assert multiply(x, e) == (x if matrix_marginal(om, 1) == lam
                                          else zero(n, r))
    # at (3,3) associativity is criterion 1's corollary: it matches every
    # product with composition in End(V^3), an injective map into an
    # associative algebra
    _report(2, "associativity exhaustive on (2,2),(2,3), and on (3,3) by "
               "criterion 1; unit laws exhaustive for n,r <= 3", t0)


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
                cx = build_borel_resolution(lam)
                cx.check_complex()
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
            assert euler_characteristic(cx) == h0.free_rank
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
        identity = tuple(range(1, r + 1))
        for sigma in all_permutations(r):
            ws = pair_weight(sigma, identity, n)
            for tau in all_permutations(r):
                wt = pair_weight(tau, identity, n)
                expected = pair_weight(compose_permutations(sigma, tau), identity, n)
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
            bh = build_bh_complex(lam)
            report = compare_with_schur_functor(lam, fb=fb, bh=bh)
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
    # a proof for every matrix g: verify_equivariance checks each monomial
    # at the lattice points that fix its polynomials in g
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            for lam in enumerate_compositions(n, r):
                ok, failures = verify_equivariance(lam)
                assert ok and not failures, lam
    # both sides are bihomogeneous of degree (r, r) in the entries of (g, h),
    # and a product of two simplex lattices is unisolvent for such
    # polynomials: every pair of weight matrices of total r fixes them
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        mats = enumerate_weight_matrices(n, r)
        images = {g: tensor_power_action(g, r) for g in mats}
        for g in mats:
            for h in mats:
                assert multiply(images[g], images[h]) \
                    == tensor_power_action(matmul(g, h), r), (g, h)
    _report(9, "monomial action matches algebra multiplication for every "
               "matrix on every composition of size <= (3,3); tensor-power "
               "action multiplicative for every matrix pair at (2,2), (2,3), "
               "(3,2)", t0)


def test_criterion_10_determinism_and_negative_control(tmp_path, capsys):
    t0 = time.time()
    paths = [tmp_path / name for name in ("one.json", "two.json")]
    for path in paths:
        code = cli_main(["resolve", "-n", "3", "-r", "3", "--lambda", "2,1,0",
                         "--variant", "weyl", "-o", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    json.loads(paths[0].read_text())

    clean = cli_main(["verify", "-n", "2", "-r", "2", "--all", "--checks", "exactness"])
    corrupt = cli_main(["verify", "-n", "2", "-r", "2", "--all", "--checks", "exactness",
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
