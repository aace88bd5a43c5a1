import gc
import hashlib
import io
import json
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from schurres import barcomplex, cli, dividedpowers, tableaux
from schurres.barcomplex import build_borel_resolution, build_weyl_resolution
from schurres.cli import _indented_json, _maybe_corrupt, complex_document, main
from schurres.combinatorics import enumerate_weight_matrices, matrix_marginal
from schurres.complexes import ChainComplex, Matrix
from schurres.oracles import size_guard
from schurres.schur import basis_element, structure_constants
from schurres.schurfunctor import truncated_resolution
from schurres.tableaux import build_bh_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_compositions(capsys):
    code, out, _ = run(capsys, "enumerate", "compositions", "-n", "2", "-r", "2")
    assert code == 0
    assert out.splitlines() == ["2,0", "1,1", "0,2"]


def test_enumerate_partitions(capsys):
    code, out, _ = run(capsys, "enumerate", "partitions", "-n", "3", "-r", "3")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_enumerate_matrices_with_constraints(capsys):
    code, out, _ = run(capsys, "enumerate", "matrices", "-n", "2", "-r", "2",
                       "--col-sums", "1,1", "--upper-triangular")
    assert code == 0
    assert set(out.splitlines()) == {"[[1,0],[0,1]]", "[[1,1],[0,0]]"}


def test_enumerate_malformed(capsys):
    code, _, err = run(capsys, "enumerate", "matrices", "-n", "2", "-r", "2",
                       "--col-sums", "1,x")
    assert code == 2
    assert "error" in err


def test_multiply(capsys):
    code, out, _ = run(capsys, "multiply", "-n", "2", "-r", "2",
                       "[[1,1],[0,0]]", "[[1,0],[1,0]]")
    assert code == 0
    assert out.strip() == "2*xi([[2,0],[0,0]])"


def test_multiply_malformed_matrix(capsys):
    code, _, err = run(capsys, "multiply", "-n", "2", "-r", "2",
                       "[[1,1],[0,0]]", "[[9],[0]]")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("n, r, literal", [("0", "0", "[]"), ("2", "-1", "[[0,0],[0,0]]")])
def test_multiply_refuses_sizes_before_any_product(capsys, n, r, literal):
    code, out, err = run(capsys, "multiply", "-n", n, "-r", r, literal, literal)
    assert (code, out, err) == (2, "", "error: need n >= 1 and r >= 0\n")


@pytest.mark.parametrize("n, r", [("0", "0"), ("0", "2"), ("1", "-1"), ("2", "-1")])
@pytest.mark.parametrize("command", [
    ("enumerate", "compositions"),
    ("enumerate", "matrices", "--upper-triangular"),
    ("multiply", "[[0]]", "[[0]]"),
    ("resolve", "--lambda", "0,0"),
    ("verify", "--checks", "oracle"),
])
def test_every_subcommand_refuses_sizes_alike(capsys, command, n, r):
    code, out, err = run(capsys, *command, "-n", n, "-r", r)
    assert (code, out, err) == (2, "", "error: need n >= 1 and r >= 0\n")


def test_resolve_weyl_document(capsys):
    code, out, _ = run(capsys, "resolve", "-n", "2", "-r", "2",
                       "--lambda", "1,1", "--variant", "weyl")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["variant"] == "weyl"
    assert [doc["ranks"][str(k)] for k in doc["degrees"]] == [4, 3]
    assert doc["homology"]["0"] == {"free_rank": 1, "torsion": []}
    assert doc["homology"]["1"] == {"free_rank": 0, "torsion": []}
    d1 = doc["differentials"]["1"]
    assert (d1["rows"], d1["cols"]) == (4, 3)


def test_resolve_borel_has_homotopies(capsys):
    code, out, _ = run(capsys, "resolve", "-n", "2", "-r", "2",
                       "--lambda", "1,1", "--variant", "borel")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"][0] == -1
    assert "homotopies" in doc
    assert doc["basis"]["-1"] == [[]]


def test_resolve_variants_agree_on_ranks(capsys):
    code, out, _ = run(capsys, "resolve", "-n", "2", "-r", "2",
                       "--lambda", "1,1", "--variant", "schur-functor")
    assert code == 0
    fdoc = json.loads(out)
    code, out, _ = run(capsys, "resolve", "-n", "2", "-r", "2",
                       "--lambda", "1,1", "--variant", "bh")
    assert code == 0
    bdoc = json.loads(out)
    assert fdoc["ranks"] == bdoc["ranks"] == {"0": 2, "1": 1}


def test_resolve_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run(capsys, "resolve", "-n", "2", "-r", "3",
                         "--lambda", "2,1", "--variant", "borel",
                         "-o", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_resolve_rejects_bad_lambda(capsys):
    code, _, err = run(capsys, "resolve", "-n", "2", "-r", "2",
                       "--lambda", "1,2", "--variant", "weyl")
    assert code == 2
    assert "error" in err


def test_resolve_bh_needs_partition(capsys):
    code, _, err = run(capsys, "resolve", "-n", "2", "-r", "3",
                       "--lambda", "1,2", "--variant", "bh")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("-n", "2", "-r", "3", "--lambda", "2,1", "--variant", "bh"),  # n < r
    ("-n", "2", "-r", "3", "--lambda", "2,1", "--variant", "schur-functor"),
    ("-n", "3", "-r", "3", "--lambda", "1,2,0", "--variant", "bh"),  # no partition
])
def test_resolve_refuses_before_building(capsys, argv):
    code, out, err = run(capsys, "resolve", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-r", "2", "--all",
                       "--checks", "exactness,oracle", "--mod", "2,3,5")
    assert code == 0
    assert out.count("ok ") == 2


@pytest.mark.parametrize("lam, n, digest", [
    ("1,1,1", 3, "96154a375bb18a2170cea311aa756068c53b85b58f033fbe7ebc61339dc0f920"),
    ("2,1,1,0", 4, "eeef5cc96145305d6850114cf9426c7a0b327d081968ccc2d48b83112d7f37a0"),
    ("2,1,1,1,0", 5, "ef57cd6d247535c6a71c5622a33dd7ccea4d4d3d54149ffcb2f84139c6329adf"),
    # n > r: the functionals' columns past r are zero
    ("2,1,0,0", 4, "3af2fb2b95a75fcd75902358245f888c946254a9d67a898f4ceaf7579c8132de"),
    ("1,1,1,0,0", 5, "b7b9405545b99b5b9b6ad43800768ce92ccdf26ec1ea7e67d0368ae472699969"),
])
def test_resolve_bh_document_bytes_are_pinned(capsys, lam, n, digest):
    # pins the bh labels' serialized form and their order, not only the ranks
    r = sum(map(int, lam.split(",")))
    code, out, _ = run(capsys, "resolve", "-n", str(n), "-r", str(r),
                       "--lambda", lam, "--variant", "bh")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("-n", "3", "-r", "5", "--lambda", "2,2,1", "--variant", "weyl"),
     "396e7e0bd65b40224c1898d8430ebddc80148fb51c6d9715d42944dfcc4a3e5f"),
    (("-n", "3", "-r", "3", "--lambda", "2,1,0", "--variant", "weyl"),
     "7e9efa87d422889be580a4e4ccd395bd167ba51a5b1daf341985430d8ef623f8"),
    # has homotopies
    (("-n", "3", "-r", "3", "--lambda", "2,1,0", "--variant", "borel"),
     "b04dccd45b38e7cd52a583571e05253be492333be165c3827ab14129224991af"),
    (("-n", "3", "-r", "3", "--lambda", "2,1,0", "--variant", "schur-functor"),
     "42bd9403d019473c1a91eb89cec85767a363f51334589549e7b094d3cca8a858"),
    # the empty label []
    (("-n", "2", "-r", "0", "--lambda", "0,0", "--variant", "borel"),
     "9d41a1e73ee18f8471a18210127e57853ca2d48f5e8c624441eeddac443dc98a"),
])
def test_resolve_document_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "resolve", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@st.composite
def sparse_matrices(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = st.tuples(st.integers(0, max(nrows - 1, 0)), st.integers(0, max(ncols - 1, 0)))
    entries = draw(st.dictionaries(cells, st.integers(-10 ** 20, 10 ** 20).filter(bool),
                                   max_size=12)) if nrows and ncols else {}
    return Matrix.from_entries(nrows, ncols, [(i, j, v) for (i, j), v in entries.items()])


weight_matrices = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 10 ** 12), min_size=n, max_size=n).map(tuple),
    min_size=n, max_size=n).map(tuple))


@st.composite
def documents(draw):
    """Values shaped like a `resolve` document: dicts with str keys, lists,
    ints, strings, Matrix values, and labels, tuples of weight matrices
    drawn from one small pool, so that labels at several depths share them."""
    pool = draw(st.lists(weight_matrices, min_size=1, max_size=3))
    labels = st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    leaves = (st.integers() | st.text() | labels | sparse_matrices()
              | st.lists(st.integers(), max_size=4))
    return draw(st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.text(), inner, max_size=4), max_leaves=30))


def with_entry_lists(doc):
    """doc with each Matrix written out as its entries() list."""
    if isinstance(doc, Matrix):
        return list(doc.entries())
    if isinstance(doc, dict):
        return {key: with_entry_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [with_entry_lists(value) for value in doc]
    return doc


def indented_json(value):
    out = io.StringIO()
    _indented_json(value, out, 0, {})
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(documents())
@example({"": [], "k": {}, "t": ()})
@example(['"quoted"', "back\\slash", "\x00\x1f\n\t", "\u00e9\u2211\U0001f600"])
@example({"a\"b": [(((1, 2), (0, 3)),), [(((1, 2), (0, 3)), ((4,),))]], "c": [10 ** 30, -7]})
@example([Matrix.zeros(2, 3), {"m": Matrix.from_entries(2, 2, [(0, 1, -3), (1, 0, 5)])}])
def test_indented_json_matches_json_dumps(value):
    assert indented_json(value) == json.dumps(with_entry_lists(value), indent=2)


def test_indented_json_leaves_no_cycle():
    value = {"basis": [(((i % 5, 1), (2, 0)), ((1, 0), (0, 1))) for i in range(6000)],
             "entries": Matrix.from_entries(6000, 7, [(i, i % 7, -1) for i in range(6000)])}
    out = io.StringIO()
    gc.collect()
    gc.disable()
    try:
        _indented_json(value, out, 0, {})
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert out.getvalue() == json.dumps(with_entry_lists(value), indent=2)
    assert unreachable == 0


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.integers(0, 4))
@example(Matrix.zeros(0, 0), 0)
@example(Matrix.zeros(0, 3), 2)
@example(Matrix.zeros(3, 0), 4)
@example(Matrix.zeros(2, 2), 1)
def test_streamed_entries_match_the_entries_list(mat, depth):
    out = io.StringIO()
    _indented_json(mat, out, depth, {})
    expected = json.dumps(list(mat.entries()), indent=2).replace("\n", "\n" + "  " * depth)
    assert out.getvalue() == expected


@pytest.mark.parametrize("cx, lam, variant", [
    # d_1 is zero, d_2 is stored and zero, and d_3 is missing
    (ChainComplex({0: [((1,),)], 1: [((1,),), ((2,),)], 2: [((3,),)], 3: []},
                  {2: Matrix.zeros(2, 1)}), (1,), "weyl"),
    (build_borel_resolution((2, 1, 0)), (2, 1, 0), "borel"),
    (build_weyl_resolution((2, 2, 1)), (2, 2, 1), "weyl"),
    (truncated_resolution((2, 1, 1, 0)), (2, 1, 1, 0), "schur-functor"),
    # a bh label leads with the functional tableau's matrix
    (build_bh_complex((2, 1, 1, 0)), (2, 1, 1, 0), "bh"),
])
def test_resolve_document_matches_json_dumps_of_its_entry_lists(cx, lam, variant):
    doc = complex_document(cx, lam, variant)
    assert indented_json(doc) == json.dumps(with_entry_lists(doc), indent=2)


class Discard:
    def write(self, text):
        return len(text)


def test_resolve_document_and_its_writer_hold_little_beyond_the_complex():
    # the writer keeps the text of weight matrices only, never of labels,
    # and buckets the entries of one matrix at a time; holding every
    # label's text and every entry list took 1.7 MB here
    cx = build_weyl_resolution((2, 2, 1))
    tracemalloc.start()
    try:
        _indented_json(complex_document(cx, (2, 2, 1), "weyl"), Discard(), 0, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2 ** 20


def test_verify_accepts_a_large_prime_modulus(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "-n", "2", "-r", "2",
                       "--mod", "1000000000000000003")
    assert code == 0
    assert out.splitlines() == ["ok exactness (n=2, r=2)"]
    assert time.perf_counter() - start < 5


def test_verify_refuses_a_modulus_beyond_the_primality_bound(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2",
                         "--mod", "3317044064679887385961981")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "3317044064679887385961981" in err


def test_verify_corrupt_flips_exit(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-r", "2", "--all",
                       "--checks", "exactness", "--corrupt", "1,0,0,1")
    assert code == 1
    assert "FAIL" in out
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    assert any(rec["check"] == "exactness" for rec in records)


def test_verify_divided_passes(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "-r", "3", "--checks", "divided")
    assert code == 0
    assert out.splitlines() == ["ok divided (n=3, r=3)"]


@pytest.mark.parametrize("n, r", [(3, 3), (2, 4)])
def test_verify_oracle_and_divided_output_is_pinned(capsys, n, r):
    code, out, _ = run(capsys, "verify", "-n", str(n), "-r", str(r), "--all",
                       "--checks", "oracle,divided")
    assert (code, out) == (0, f"ok oracle (n={n}, r={r})\nok divided (n={n}, r={r})\n")


def test_verify_divided_fails_on_a_wrong_action(capsys, monkeypatch):
    real = dividedpowers.gl_action
    monkeypatch.setattr(dividedpowers, "gl_action",
                        lambda g, pi: {k: c + 1 for k, c in real(g, pi).items()})
    code, out, _ = run(capsys, "verify", "-n", "3", "-r", "3", "--checks", "divided")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL divided (n=3, r=3)"
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    # one per partition and lattice point g: each partition's monomials
    # together have every row sums, so every one of the 165 weight matrices
    # is a g
    assert len(records) == 3 * 165 and all(rec["check"] == "divided" for rec in records)
    # the records themselves, byte for byte
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "9e16e8e1ee78874cf973d2154dcf4f17dde213122cf559f405da2406d11fee8f")


def test_verify_unknown_check(capsys):
    # exactness checks the contracting-homotopy identities as its proof that
    # each Borel resolution is exact, so they are no suite of their own
    for name in ("nonsense", "homotopy"):
        code, _, err = run(capsys, "verify", "-n", "2", "-r", "2", "--checks", name)
        assert code == 2
        assert f"unknown check {name!r}" in err


def test_verify_has_no_associativity_suite(capsys):
    # oracle matches every product with composition in End(V^r), which is
    # associative, so associativity needs no suite of its own
    assert list(cli.SUITES) == ["exactness", "oracle", "filtration",
                                "embedding", "boltje", "divided"]
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", "--checks", "associativity")
    assert (code, out) == (2, "")
    assert err == ("error: unknown check 'associativity'; available: "
                   "exactness, oracle, filtration, embedding, boltje, divided\n")


def test_verify_refuses_lambda_with_all_before_any_check(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", "--lambda", "1,1", "--all")
    assert code == 2
    assert out == ""
    assert err == "error: --lambda and --all are exclusive\n"


def test_verify_refuses_a_repeated_check_before_any_check(capsys):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2",
                         "--checks", "oracle,exactness,oracle")
    assert code == 2
    assert out == ""
    assert err == "error: --checks oracle,exactness,oracle names a check more than once\n"


@pytest.mark.parametrize("argv", [
    ("--checks", "oracle", "--mod", "4"),  # no check reaches the mod-p loop
    ("--lambda", "0,2", "--mod", "4"),  # a composition that is not a partition
    ("--mod", "2,,3"),  # an empty entry is malformed, as in a composition
])
def test_verify_rejects_a_non_prime_modulus_before_any_check(capsys, argv):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == {"4": "error: 4 is not prime\n",
                   "2,,3": "error: malformed --mod list '2,,3'\n"}[argv[-1]]


def test_corrupt_builds_a_copy():
    cx = build_weyl_resolution((1, 1))
    before = cx.differential(1).rows
    bad = _maybe_corrupt(cx, (1, 0, 0, 1))
    assert cx.differential(1).rows == before
    assert bad.differential(1).rows[0][0] == before[0][0] + 1
    assert bad.labels == cx.labels


def test_corrupt_leaves_the_built_complex_unchanged():
    cx = build_weyl_resolution((1, 1, 1))
    before = {k: mat.rows for k, mat in cx.differentials.items()}
    i, j, v = next(cx.differential(2).entries())
    bad = _maybe_corrupt(cx, (2, i, j, -v))
    assert {k: mat.rows for k, mat in cx.differentials.items()} == before
    assert isinstance(before[2], tuple)
    # the cancelled entry is dropped, not stored as a zero
    assert bad.differential(2).rows[i][j] == 0
    assert len(list(bad.differential(2).entries())) == len(list(cx.differential(2).entries())) - 1
    assert all(bad.differential(k) is cx.differential(k) for k in before if k != 2)


def test_verify_skips_embedding_when_n_below_r(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-r", "3", "--checks", "embedding")
    assert code == 0
    assert out.splitlines() == ["skipped embedding (n < r)"]


def test_verify_skips_boltje_when_n_below_r(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-r", "3",
                       "--checks", "boltje,exactness")
    assert code == 0
    assert out.splitlines() == ["skipped boltje (n < r)", "ok exactness (n=2, r=3)"]


def test_verify_skips_boltje_when_no_lambda_is_a_partition(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "-r", "3",
                       "--checks", "boltje", "--lambda", "1,2,0")
    assert code == 0
    assert out.splitlines() == ["skipped boltje (no partition)"]


@pytest.mark.parametrize("directive", ["1,0", "1,0,0,1,2", "1,0,x,1", "1,0,0,0", ""])
def test_verify_rejects_a_malformed_corrupt_directive_before_any_check(capsys, directive):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", "--corrupt", directive)
    assert code == 2
    assert out == ""
    assert "k,i,j,delta" in err


@pytest.mark.parametrize("argv", [
    ("--corrupt", "9,0,0,1"),  # no such degree
    ("--corrupt", "1,99,0,1"),  # no such row
    ("--corrupt", "1,-1,0,1"),  # negative indices name no entry
    ("--checks", "oracle", "--corrupt", "1,0,0,1"),  # no check builds a complex
])
def test_verify_refuses_a_corruption_that_changed_nothing(capsys, argv):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", *argv)
    assert code == 2
    assert out == ""
    directive = argv[-1]
    assert err == f"error: --corrupt {directive} changed no differential\n"


def test_verify_refuses_at_the_first_check_the_corruption_left_unchanged(capsys):
    # filtration builds no complex and runs; exactness builds complexes with
    # no degree 9, and is refused
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", "--lambda", "1,1",
                         "--checks", "filtration,exactness", "--corrupt", "9,0,0,1")
    assert code == 2
    assert out == "ok filtration (n=2, r=2)\n"
    assert err == "error: --corrupt 9,0,0,1 changed no differential\n"


def test_verify_corrupt_fails_the_benchmark_control(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "-r", "3",
                       "--checks", "exactness", "--corrupt", "1,0,0,1")
    assert code == 1
    assert "FAIL exactness (n=3, r=3)" in out.splitlines()


ALL_CHECKS = "exactness,oracle,filtration,embedding,boltje,divided"


@pytest.mark.parametrize("argv, expected_code, expected_out", [
    (("-n", "3", "-r", "3", "--all", "--checks", ALL_CHECKS, "--mod", "2,3,5"), 0,
     "".join(f"ok {name} (n=3, r=3)\n" for name in ALL_CHECKS.split(","))),
    (("-n", "2", "-r", "3", "--checks", "boltje,exactness,embedding"), 0,
     "skipped boltje (n < r)\nok exactness (n=2, r=3)\nskipped embedding (n < r)\n"),
    (("-n", "3", "-r", "3", "--checks", "boltje", "--lambda", "1,2,0"), 0,
     "skipped boltje (no partition)\n"),
    # entry (3, 2) exists in the Weyl d_1 of (1,1) (4 x 3), not in the d_1
    # (2 x 1) of the Borel resolution, which carries the homotopy: only the
    # Weyl resolution fails
    (("-n", "2", "-r", "2", "--lambda", "1,1", "--checks", "exactness",
      "--corrupt", "1,3,2,1"), 1,
     '{"check":"exactness","variant":"weyl","lambda":[1,1],"expected_rank":1,'
     '"failures":["(0, HomologyGroup(free_rank=1, torsion=(2,)))"]}\n'
     "FAIL exactness (n=2, r=2)\n"),
    (("-n", "2", "-r", "2", "--checks", "oracle", "--corrupt", "1,0,0,1"), 2, ""),
    # the augmentation of the diagonal tuple becomes 2, so d_0 h_{-1} = 2 and
    # the identity fails at degrees -1 and 0; H_{-1} = Z/2 is not computed
    (("-n", "2", "-r", "2", "--lambda", "2,0", "--checks", "exactness",
      "--corrupt", "0,0,0,1"), 1,
     '{"check":"exactness","variant":"borel","lambda":[2,0],"failures":[-1,0]}\n'
     "FAIL exactness (n=2, r=2)\n"),
], ids=["all-checks", "skipped-n-below-r", "skipped-no-partition",
        "corrupt-misses-homotopy", "corrupt-without-complexes", "corrupt-augmentation"])
def test_verify_stdout_is_pinned(capsys, argv, expected_code, expected_out):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == expected_code
    assert out == expected_out


def test_verify_records_of_every_corrupted_check_are_pinned(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3", "-r", "3", "--all",
                       "--checks", ALL_CHECKS, "--mod", "2,3,5", "--corrupt", "1,0,0,1")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert [rec["check"] for rec in records] == ["exactness"] * 11
    summaries = [line for line in out.splitlines() if not line.startswith("{")]
    assert summaries == [f"{'FAIL' if name == 'exactness' else 'ok'} "
                         f"{name} (n=3, r=3)" for name in ALL_CHECKS.split(",")]
    # each record printed before its check's summary line, byte for byte
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "ccf1cc9905f7a4af52acae694aa1d431a1f05e2b911ca86c9f892a165562c0d2")


VARIANTS = ("borel", "weyl", "schur-functor", "bh")


@pytest.fixture
def walks(monkeypatch):
    """The complexes that ChainComplex.check_complex walks, in call order."""
    calls = []
    check = ChainComplex.check_complex

    def counted(cx):
        calls.append(cx)
        return check(cx)

    monkeypatch.setattr(ChainComplex, "check_complex", counted)
    return calls


@pytest.mark.parametrize("argv, count", [
    # one walk per Borel and per Weyl complex of the four partitions
    (("verify", "-n", "3", "-r", "4", "--checks", "exactness"), 8),
    # one walk per Borel complex of the two compositions, one per Weyl
    # complex of the partition
    (("verify", "-n", "2", "-r", "1", "--all", "--checks", "exactness"), 3),
    # one walk per truncation of the five partitions; the BH complex is not walked
    (("verify", "-n", "4", "-r", "4", "--checks", "boltje"), 5),
    *((("resolve", "-n", "3", "-r", "3", "--lambda", "2,1", "--variant", variant), 1)
      for variant in VARIANTS),
])
def test_each_verdict_walks_d_squared_once_per_complex(capsys, walks, argv, count):
    assert main(list(argv)) == 0
    assert len(walks) == count


@pytest.mark.parametrize("build", [build_borel_resolution, build_weyl_resolution,
                                   truncated_resolution, build_bh_complex])
def test_builders_do_not_walk_d_squared(walks, build):
    build((2, 1, 0))
    assert walks == []


@pytest.fixture
def doubled_first_products(monkeypatch):
    """Every builder's alternating sum with its head products doubled:
    d_1 d_2 then sends a label (x0, x1, x2) to 2 x0 x1 x2, not 0."""
    for module in (barcomplex, tableaux):
        assemble = module.alternating_differential

        def broken(cur, prev, head_product, tail_product, assemble=assemble):
            return assemble(cur, prev, lambda a, b: [
                (key, 2 * c) for key, c in head_product(a, b)], tail_product)

        monkeypatch.setattr(module, "alternating_differential", broken)


@pytest.mark.parametrize("variant", VARIANTS)
def test_resolve_refuses_a_complex_whose_product_breaks_d_squared(
        capsys, doubled_first_products, variant):
    code, out, err = run(capsys, "resolve", "-n", "3", "-r", "3", "--lambda", "1,1,1",
                         "--variant", variant)
    assert (code, out) == (2, "")
    assert err.startswith("error: d o d != 0 between degrees ")


@pytest.mark.parametrize("check, expected_code, expected_last_line", [
    ("exactness", 1, "FAIL exactness (n=3, r=3)"),
    # the comparison checks the truncation, and refuses one whose d o d is
    # not zero
    ("boltje", 2, None),
])
def test_verify_judges_a_complex_whose_product_breaks_d_squared(
        capsys, doubled_first_products, check, expected_code, expected_last_line):
    code, out, err = run(capsys, "verify", "-n", "3", "-r", "3", "--lambda", "1,1,1",
                         "--checks", check)
    assert code == expected_code
    if expected_last_line:
        assert out.splitlines()[-1] == expected_last_line
        assert '"failures":["(\'complex axiom\', None)"' in out
    else:
        assert out == "" and err.startswith("error: d o d != 0 between degrees ")


def test_a_verify_run_leaves_no_reference_cycle(capsys):
    """Building an argparse parser leaves cycles inside argparse, so the
    parser is built once; a run after the first must leave no garbage that
    only the cyclic collector frees."""
    argv = ("verify", "-n", "2", "-r", "3", "--checks", "exactness,oracle", "--mod", "2")
    assert run(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        code, out, _ = run(capsys, *argv)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert code == 0 and "ok exactness (n=2, r=3)" in out
    assert unreachable == 0


def test_verify_refuses_an_oversized_oracle_before_any_suite(capsys, set_oracle_limit):
    set_oracle_limit(None)
    with pytest.raises(ValueError) as refused:
        size_guard(2, 13)
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "13", "--checks", "divided,oracle")
    assert (code, out) == (2, "")
    assert err == f"error: {refused.value}\n"


def test_filtration_caches_only_the_composable_pairs_it_asks_for(capsys, monkeypatch):
    asked = set()
    ask = cli.multiply_basis

    def record(omega, pi):
        asked.add((omega, pi))
        return ask(omega, pi)

    monkeypatch.setattr(cli, "multiply_basis", record)
    structure_constants.cache_clear()
    assert run(capsys, "verify", "-n", "3", "-r", "3", "--all", "--checks", "filtration")[0] == 0
    # every upper-triangular pair that composes, and no other
    uppers = enumerate_weight_matrices(3, 3, upper_triangular=True)
    composable = {(a, b) for a in uppers for b in uppers
                  if matrix_marginal(a, 1) == matrix_marginal(b, 2)}
    assert asked == composable
    assert structure_constants.cache_info().currsize == len(composable)


# suite -> (verify arguments, None or (name bound in cli, or in
# dividedpowers for gl_action, function of the real binding giving its
# broken stand-in), records the control must print).
# Every record printed must have the keys of one of the records listed.
NEGATIVE_CONTROLS = {
    "exactness": (
        ("-n", "2", "-r", "2", "--lambda", "1,1", "--checks", "exactness",
         "--corrupt", "1,0,0,1"), None,
        [{"check": "exactness", "variant": "borel", "lambda": [1, 1],
          "failures": [0, 1]},
         {"check": "exactness", "variant": "weyl", "lambda": [1, 1], "expected_rank": 1,
          "failures": ["(0, HomologyGroup(free_rank=1, torsion=(2,)))"]}]),
    "oracle": (
        ("-n", "2", "-r", "1", "--checks", "oracle"),
        ("green_convolution", lambda real: lambda omega, pi: real(omega, pi) * 2),
        [{"check": "oracle", "omega": [[1, 0], [0, 0]], "pi": [[1, 0], [0, 0]]}]),
    # a product that keeps its left factor keeps its filtration degree
    "filtration": (
        ("-n", "2", "-r", "2", "--checks", "filtration"),
        ("multiply_basis", lambda real: lambda omega, pi: basis_element(omega)),
        [{"check": "filtration", "omega": [[2, 0], [0, 0]], "pi": [[1, 1], [0, 0]]}]),
    "embedding": (
        ("-n", "3", "-r", "3", "--checks", "embedding"),
        ("compose_permutations", lambda real: lambda sigma, tau: real(tau, sigma)),
        [{"check": "embedding", "sigma": [1, 3, 2], "tau": [2, 1, 3]}]),
    "boltje": (
        ("-n", "3", "-r", "3", "--lambda", "2,1,0", "--checks", "boltje"),
        ("compare_with_schur_functor", lambda real: lambda lam: real(
            lam, bh=_maybe_corrupt(build_bh_complex(lam), (1, 0, 0, 1)))),
        [{"check": "boltje", "lambda": [2, 1, 0], "degree_match": True,
          "matrices_equal": {"1": False}, "cokernel_ranks": [2, 2], "expected": 2}]),
    # an action that is wrong only at entrywise non-negative g, where a
    # sample of integer matrices with entries in [-3, 3] may never land
    "divided": (
        ("-n", "3", "-r", "3", "--checks", "divided"),
        ("gl_action", lambda real: lambda g, pi: (
            {k: c + 1 for k, c in real(g, pi).items()} if min(map(min, g)) >= 0
            else real(g, pi))),
        [{"check": "divided", "lambda": [3, 0, 0], "g": [[3, 0, 0], [0, 0, 0], [0, 0, 0]],
          "failures": 1}]),
}


@pytest.mark.parametrize("name", list(cli.SUITES))
def test_every_suite_has_a_negative_control(name):
    assert name in NEGATIVE_CONTROLS


@pytest.mark.parametrize("name", list(NEGATIVE_CONTROLS))
def test_every_failure_record_is_printed_by_a_negative_control(capsys, monkeypatch, name):
    argv, patch, expected = NEGATIVE_CONTROLS[name]
    if patch:
        binding, broken = patch
        owner = dividedpowers if binding == "gl_action" else cli
        monkeypatch.setattr(owner, binding, broken(getattr(owner, binding)))
    code, out, _ = run(capsys, "verify", *argv)
    lines = out.splitlines()
    assert code == 1
    assert lines[-1].startswith(f"FAIL {name} ")
    records = [json.loads(line) for line in lines[:-1]]
    assert all(record in records for record in expected)
    assert {tuple(record) for record in records} == {tuple(record) for record in expected}
