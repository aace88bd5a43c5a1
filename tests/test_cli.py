import json

import pytest

from schurres import dividedpowers
from schurres.barcomplex import build_weyl_resolution
from schurres.cli import _maybe_corrupt, main


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


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "-n", "2", "-r", "2", "--all",
                       "--checks", "exactness,homotopy,oracle", "--mod", "2,3,5")
    assert code == 0
    assert out.count("ok ") == 3


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


def test_verify_divided_fails_on_a_wrong_action(capsys, monkeypatch):
    real = dividedpowers.gl_action
    monkeypatch.setattr(dividedpowers, "gl_action",
                        lambda g, pi: {k: c + 1 for k, c in real(g, pi).items()})
    code, out, _ = run(capsys, "verify", "-n", "3", "-r", "3", "--checks", "divided")
    assert code != 0
    assert "FAIL divided (n=3, r=3)" in out.splitlines()
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert records and all(rec["check"] == "divided" for rec in records)


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "-n", "2", "-r", "2",
                       "--checks", "nonsense")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("argv", [
    ("--checks", "oracle", "--mod", "4"),  # no check reaches the mod-p loop
    ("--lambda", "0,2", "--mod", "4"),  # a composition that is not a partition
])
def test_verify_rejects_a_non_prime_modulus_before_any_check(capsys, argv):
    code, out, err = run(capsys, "verify", "-n", "2", "-r", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: 4 is not prime\n"


def test_corrupt_builds_a_copy():
    cx = build_weyl_resolution((1, 1))
    before = cx.differential(1).rows
    bad = _maybe_corrupt(cx, "1,0,0,1")
    assert cx.differential(1).rows == before
    assert bad.differential(1).rows[0][0] == before[0][0] + 1
    assert bad.labels == cx.labels


def test_corrupt_leaves_the_built_complex_unchanged():
    cx = build_weyl_resolution((1, 1, 1))
    before = {k: mat.rows for k, mat in cx.differentials.items()}
    i, j, v = cx.differential(2).entries()[0]
    bad = _maybe_corrupt(cx, f"2,{i},{j},{-v}")
    assert {k: mat.rows for k, mat in cx.differentials.items()} == before
    assert isinstance(before[2], tuple)
    # the cancelled entry is dropped, not stored as a zero
    assert bad.differential(2).rows[i][j] == 0
    assert len(bad.differential(2).entries()) == len(cx.differential(2).entries()) - 1
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
