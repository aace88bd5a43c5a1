"""Batch command-line front end.

Subcommands: enumerate (index families), multiply (basis products),
resolve (build a complex and emit one JSON document), verify (run named
invariant suites over one or all compositions).  Output is deterministic:
two runs with identical flags produce byte-identical files.  Exit codes:
0 success, 1 verification failure, 2 usage error; every subcommand takes
the sizes -n and -r and refuses n < 1 or r < 0 before doing any work.

resolve holds the complex and its homology, and while writing, the text
of each distinct weight matrix (and of its rows) at each depth and the row
buckets of one differential or homotopy at a time: the document keeps each
Matrix, and the writer writes the document straight to the output, item by
item, each Matrix one entries() triplet at a time.  The complex is checked
to be one (d o d = 0) before anything is written.
"""

import argparse
import contextlib
import io
import json
import random
import sys
from functools import lru_cache
from itertools import product
from math import comb

from . import __version__
from .barcomplex import build_borel_resolution, build_weyl_resolution
from .combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weight_matrices,
    filtration_degree,
    is_partition,
    is_upper_triangular,
    matrix_marginal,
    max_chain_length,
    pair_weight,
)
from .complexes import ChainComplex, Matrix
from .homology import (
    HomologyGroup,
    homology_groups,
    is_prime,
    verify_exactness,
)
from .oracles import (
    compose,
    decode,
    endo_of_basis,
    green_convolution,
    size_guard,
    tensor_power_action,
)
from .schur import (
    basis_element,
    format_element,
    multiply,
    multiply_basis,
)
from .schurfunctor import (
    all_permutations,
    compose_permutations,
    truncated_resolution,
)
from .tableaux import (
    build_bh_complex,
    compare_with_schur_functor,
    semistandard_tableau_count,
)
from .dividedpowers import matmul, verify_equivariance


def _parse_composition(text, n, r):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}")
    if any(p < 0 for p in parts):
        raise ValueError("composition parts must be non-negative")
    if len(parts) > n:
        raise ValueError(f"composition {text!r} has more than {n} parts")
    parts = parts + (0,) * (n - len(parts))
    if sum(parts) != r:
        raise ValueError(f"composition {text!r} does not sum to {r}")
    return parts


def _parse_matrix(text, n, r):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"malformed matrix literal {text!r}")
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(row, list) or len(row) != n for row in rows)
            or any(not isinstance(v, int) or isinstance(v, bool) or v < 0
                   for row in rows for v in row)):
        raise ValueError(f"{text!r} is not an {n}x{n} matrix of non-negative integers")
    m = tuple(tuple(row) for row in rows)
    if sum(v for row in m for v in row) != r:
        raise ValueError(f"matrix {text!r} does not sum to {r}")
    return m


@contextlib.contextmanager
def _output(path):
    """The file at path, opened for writing, or stdout when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text, path):
    with _output(path) as out:
        out.write(text)


# ---------------------------------------------------------------------------
# enumerate

def cmd_enumerate(args):
    n, r = args.n, args.r
    if args.kind == "compositions":
        lines = [",".join(map(str, c)) for c in enumerate_compositions(n, r)]
    elif args.kind == "partitions":
        lines = [",".join(map(str, c)) for c in enumerate_partitions(n, r)]
    else:
        col = _parse_composition(args.col_sums, n, r) if args.col_sums else None
        row = _parse_composition(args.row_sums, n, r) if args.row_sums else None
        mats = enumerate_weight_matrices(
            n, r, col_sums=col, row_sums=row,
            upper_triangular=args.upper_triangular, min_degree=args.min_degree)
        lines = [json.dumps([list(rw) for rw in m], separators=(",", ":"))
                 for m in mats]
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# multiply

def cmd_multiply(args):
    omega = _parse_matrix(args.omega, args.n, args.r)
    pi = _parse_matrix(args.pi, args.n, args.r)
    _emit(format_element(multiply_basis(omega, pi)) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# resolve

def _build_variant(variant, lam):
    if variant == "borel":
        return build_borel_resolution(lam)
    if variant == "weyl":
        return build_weyl_resolution(lam)
    if variant == "schur-functor":
        return truncated_resolution(lam)
    if variant == "bh":
        return build_bh_complex(lam)
    raise ValueError(f"unknown variant {variant!r}")


def _matrix_doc(mat):
    return {"rows": mat.nrows, "cols": mat.ncols, "entries": mat}


def complex_document(cx, lam, variant):
    """The `resolve` document of cx: plain JSON values, except that each
    matrix's "entries" is the Matrix itself, which `_indented_json` writes
    as the list of its (row, col, value) triplets."""
    doc = {
        "metadata": {
            "tool": "schurres",
            "version": __version__,
            "n": len(lam),
            "r": sum(lam),
            "lambda": list(lam),
            "variant": variant,
        },
        "degrees": list(cx.degrees()),
        "ranks": {str(k): cx.rank(k) for k in cx.degrees()},
        # lists, so that the writer streams each basis label by label
        "basis": {str(k): list(cx.labels[k]) for k in cx.degrees()},
        "differentials": {str(k): _matrix_doc(cx.differential(k))
                          for k in range(cx.lo + 1, cx.hi + 1)},
    }
    if cx.homotopies:
        doc["homotopies"] = {str(k): _matrix_doc(cx.homotopy(k))
                             for k in sorted(cx.homotopies)}
    doc["homology"] = {str(k): {"free_rank": h.free_rank, "torsion": list(h.torsion)}
                       for k, h in homology_groups(cx).items()}
    return doc


def cmd_resolve(args):
    lam = _parse_composition(args.lam, args.n, args.r)
    cx = _build_variant(args.variant, lam)
    cx.check_complex()
    doc = complex_document(cx, lam, args.variant)
    with _output(args.output) as out:
        _indented_json(doc, out, 0, {})
        out.write("\n")
    return 0


def _indented_json(value, out, depth, texts):
    """Write the text of `json.dumps(value, indent=2)`, nested at depth, to
    out, with a Matrix standing for the list of its entries().

    Dicts, whose keys are str, and lists are written item by item, and a
    Matrix entry by entry, so no text of a whole degree is held.  A
    non-empty tuple, such as a label (a tuple of weight matrices), is
    joined from the texts of its items, kept in texts per (item, depth):
    labels never repeat, but their matrices repeat many times.  Texts are
    looked up by equality, and True == 1, so a tuple holds no bools.  Only
    leaves and empty values go through json.dumps, unindented: with indent
    set it runs the pure-Python encoder, whose closures leave a reference
    cycle behind on every call.
    """
    indent = "\n" + "  " * (depth + 1)
    end = "\n" + "  " * depth
    if isinstance(value, (dict, list)) and value:
        keyed = isinstance(value, dict)
        sep = "{" + indent if keyed else "[" + indent
        for key, item in value.items() if keyed else enumerate(value):
            out.write(sep + json.dumps(key) + ": " if keyed else sep)
            _indented_json(item, out, depth + 1, texts)
            sep = "," + indent
        out.write(end + ("}" if keyed else "]"))
    elif isinstance(value, Matrix):
        inner = indent + "  "
        triplet = "[" + inner + "%d," + inner + "%d," + inner + "%d" + indent + "]"
        sep = "[" + indent
        for entry in value.entries():
            out.write(sep + triplet % entry)
            sep = "," + indent
        out.write("[]" if sep[0] == "[" else end + "]")
    elif isinstance(value, tuple) and value:
        items = []
        for item in value:
            text = texts.get((item, depth))
            if text is None:
                buffer = io.StringIO()
                _indented_json(item, buffer, depth + 1, texts)
                text = texts[item, depth] = buffer.getvalue()
            items.append(text)
        out.write("[" + indent + ("," + indent).join(items) + end + "]")
    else:
        out.write(json.dumps(value))


# ---------------------------------------------------------------------------
# verify

def _parse_corrupt(text):
    """The --corrupt directive "k,i,j,delta" as four integers, delta nonzero."""
    try:
        k, i, j, delta = map(int, text.split(","))
    except ValueError:
        delta = 0
    if not delta:
        raise ValueError(f"--corrupt {text!r} is not of the form k,i,j,delta, delta != 0")
    return k, i, j, delta


def _maybe_corrupt(cx, corrupt):
    """A new complex, cx with delta added to entry (i, j) of the differential
    at degree k, for corrupt = (k, i, j, delta); cx itself, left as it is,
    when d_k has no entry (i, j)."""
    k, i, j, delta = corrupt
    mat = cx.differential(k)
    if not (cx.lo < k <= cx.hi and 0 <= i < mat.nrows and 0 <= j < mat.ncols):
        return cx
    mat = mat + Matrix.from_entries(mat.nrows, mat.ncols, [(i, j, delta)])
    return ChainComplex(cx.labels, {**cx.differentials, k: mat}, cx.homotopies)


def _check_exactness(n, r, lams, corrupt):
    for lam in lams:
        borel = corrupt(build_borel_resolution(lam))
        report = verify_exactness(borel)
        if not report.ok:
            yield {"check": "exactness", "variant": "borel", "lambda": list(lam),
                   "failures": [str(entry) for entry in report.failures()]}
        if not is_partition(lam):
            continue
        weyl = corrupt(build_weyl_resolution(lam))
        expected = semistandard_tableau_count(lam, n)
        h0 = HomologyGroup(expected, ())
        report = verify_exactness(weyl, expected={0: h0})
        if not report.ok:
            yield {"check": "exactness", "variant": "weyl", "lambda": list(lam),
                   "expected_rank": expected,
                   "failures": [str(entry) for entry in report.failures()]}


def _check_homotopy(n, r, lams, corrupt):
    for lam in lams:
        cx = build_borel_resolution(lam)
        cx.check_complex()
        cx = corrupt(cx)
        for k in range(0, cx.hi + 1):
            lhs = (cx.differential(k + 1) @ cx.homotopy(k)
                   + cx.homotopy(k - 1) @ cx.differential(k))
            if lhs != Matrix.identity(cx.rank(k)):
                yield {"check": "homotopy", "lambda": list(lam), "degree": k}
        if cx.differential(0) @ cx.homotopy(-1) != Matrix.identity(1):
            yield {"check": "homotopy", "lambda": list(lam), "degree": -1}


def _check_oracle(n, r, lams, corrupt):
    mats = enumerate_weight_matrices(n, r)
    for omega in mats:
        fo = endo_of_basis(omega)
        for pi in mats:
            direct = multiply_basis(omega, pi)
            composed = decode(compose(fo, endo_of_basis(pi)))
            convolved = green_convolution(omega, pi)
            if not (direct == composed == convolved):
                yield {"check": "oracle", "omega": [list(rw) for rw in omega],
                       "pi": [list(rw) for rw in pi]}


def _check_associativity(n, r, lams, corrupt):
    mats = enumerate_weight_matrices(n, r)
    for a, b, c in product(mats, repeat=3):
        left = multiply(multiply(basis_element(a), basis_element(b)), basis_element(c))
        right = multiply(basis_element(a), multiply(basis_element(b), basis_element(c)))
        if left != right:
            yield {"check": "associativity", "triple": [
                [list(rw) for rw in m] for m in (a, b, c)]}


def _by_row_sums(matrices):
    """{row sums: the matrices with them, in the order given}."""
    groups = {}
    for b in matrices:
        groups.setdefault(matrix_marginal(b, 2), []).append(b)
    return groups


def _check_filtration(n, r, lams, corrupt):
    # a product that does not compose is zero, so each left factor is paired
    # only with the right factors whose row sums are its column sums
    uppers = enumerate_weight_matrices(n, r, upper_triangular=True)
    right = _by_row_sums(uppers)
    for omega in uppers:
        s = filtration_degree(omega)
        for pi in right.get(matrix_marginal(omega, 1), ()):
            t = filtration_degree(pi)
            for key in multiply_basis(omega, pi).terms:
                if not (is_upper_triangular(key) and filtration_degree(key) >= s + t):
                    yield {"check": "filtration", "omega": [list(rw) for rw in omega],
                           "pi": [list(rw) for rw in pi]}
    bound = max_chain_length(n, r)
    generators = enumerate_weight_matrices(n, r, min_degree=1)
    right = _by_row_sums(generators)
    support = set(generators)
    for _ in range(bound):
        support = {key for a in support for b in right.get(matrix_marginal(a, 1), ())
                   for key in multiply_basis(a, b).terms}
        if not support:
            break
    if support:
        yield {"check": "filtration", "nilpotency": False, "power": bound + 1}


def _check_embedding(n, r, lams, corrupt):
    # a permutation sigma is the basis element of the 0/1 weight matrix
    # pair_weight(sigma, identity, n), with entry (s, t) = 1 when s = sigma(t)
    identity = tuple(range(1, r + 1))
    for sigma in all_permutations(r):
        ws = pair_weight(sigma, identity, n)
        for tau in all_permutations(r):
            expected = pair_weight(compose_permutations(sigma, tau), identity, n)
            if multiply_basis(ws, pair_weight(tau, identity, n)).terms != {expected: 1}:
                yield {"check": "embedding", "sigma": list(sigma), "tau": list(tau)}


def _check_boltje(n, r, lams, corrupt):
    for lam in filter(is_partition, lams):
        report = compare_with_schur_functor(lam)
        if not report.ok:
            yield {"check": "boltje", "lambda": list(lam),
                   "degree_match": report.degree_match,
                   "matrices_equal": {str(k): v for k, v in report.matrices_equal.items()},
                   "cokernel_ranks": list(report.cokernel_ranks),
                   "expected": report.standard_count}


def _check_divided(n, r, lams, corrupt):
    rng = random.Random(0)
    for lam in lams:
        for _ in range(5):
            g = tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))
            good, failures = verify_equivariance(lam, g)
            if not good:
                yield {"check": "divided", "lambda": list(lam),
                       "g": [list(rw) for rw in g], "failures": len(failures)}
    for _ in range(20):
        g = tuple(tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(n))
        h = tuple(tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(n))
        if multiply(tensor_power_action(g, r), tensor_power_action(h, r)) != \
                tensor_power_action(matmul(g, h), r):
            yield {"check": "divided", "multiplicative": False}


def _n_below_r(n, r, lams):
    return "n < r" if n < r else None


def _n_below_r_or_no_partition(n, r, lams):
    return _n_below_r(n, r, lams) or (None if any(map(is_partition, lams))
                                      else "no partition")


_MAX_TRIPLES = 10000


def _too_many_triples(n, r, lams):
    triples = comb(r + n * n - 1, r) ** 3  # n x n matrices of total r, cubed
    return f"{triples} triples > {_MAX_TRIPLES}" if triples > _MAX_TRIPLES else None


# name -> (suite, why it is skipped on (n, r, lams) or None, whether it
# builds the complexes that --corrupt changes).  A suite takes
# (n, r, lams, corrupt) and yields one JSON record per failure; embedding
# and boltje compare with permutations of r letters, which need n >= r, and
# associativity checks every triple of basis elements, or none: a sample
# of triples would print ok without proving it.
SUITES = {
    "exactness": (_check_exactness, None, True),
    "homotopy": (_check_homotopy, None, True),
    "oracle": (_check_oracle, None, False),
    "associativity": (_check_associativity, _too_many_triples, False),
    "filtration": (_check_filtration, None, False),
    "embedding": (_check_embedding, _n_below_r, False),
    "boltje": (_check_boltje, _n_below_r_or_no_partition, False),
    "divided": (_check_divided, None, False),
}


def cmd_verify(args):
    n, r = args.n, args.r
    checks = args.checks.split(",")
    for name in checks:
        if name not in SUITES:
            raise ValueError(f"unknown check {name!r}; available: {', '.join(SUITES)}")
    if len(set(checks)) < len(checks):
        raise ValueError(f"--checks {args.checks} names a check more than once")
    if "oracle" in checks:
        size_guard(n, r)
    # exactness over F_p follows from the groups over Z (universal
    # coefficients), so the primes are only validated
    try:
        primes = [int(p) for p in args.mod.split(",")] if args.mod else []
    except ValueError:
        raise ValueError(f"malformed --mod list {args.mod!r}")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if args.all and args.lam:
        raise ValueError("--lambda and --all are exclusive")
    if args.all:
        lams = list(enumerate_compositions(n, r))
    elif args.lam:
        lams = [_parse_composition(args.lam, n, r)]
    else:
        lams = list(enumerate_partitions(n, r))
    directive = None if args.corrupt is None else _parse_corrupt(args.corrupt)
    unchanged = ValueError(f"--corrupt {args.corrupt} changed no differential")
    if directive and not any(SUITES[name][2] for name in checks):
        raise unchanged
    changed = []

    def corrupt(cx):
        bad = _maybe_corrupt(cx, directive) if directive else cx
        changed.append(bad is not cx)
        return bad

    ok = True
    for name in checks:
        suite, skip, builds_complexes = SUITES[name]
        reason = skip and skip(n, r, lams)
        if reason:
            print(f"skipped {name} ({reason})")
            continue
        changed.clear()
        good = True
        for record in suite(n, r, lams, corrupt):
            print(json.dumps(record, separators=(",", ":")))
            good = False
        if directive and builds_complexes and not any(changed):
            raise unchanged
        print(f"{'ok' if good else 'FAIL'} {name} (n={n}, r={r})")
        ok = ok and good
    return 0 if ok else 1


# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser():
    """The parser, built once per process: parsing leaves it as it was,
    and building one leaves reference cycles inside argparse that hold it
    until the cyclic collector runs."""
    parser = argparse.ArgumentParser(
        prog="schurres",
        description="Exact Schur-algebra resolutions and their verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list index families")
    p.add_argument("kind", choices=("compositions", "partitions", "matrices"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--col-sums", dest="col_sums")
    p.add_argument("--row-sums", dest="row_sums")
    p.add_argument("--upper-triangular", action="store_true")
    p.add_argument("--min-degree", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("multiply", help="product of two basis elements")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("omega")
    p.add_argument("pi")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("resolve", help="build a resolution as JSON")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--variant", choices=("borel", "weyl", "bh", "schur-functor"),
                   default="weyl")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("verify", help="run invariant suites; exit 1 on failure")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--all", action="store_true",
                   help="run over every composition, not only partitions")
    p.add_argument("--checks", default="exactness")
    p.add_argument("--mod", help="comma-separated primes, each checked to be prime; "
                   "exactness over F_p follows from the result over Z by "
                   "universal coefficients")
    p.add_argument("--corrupt", metavar="K,I,J,DELTA",
                   help="testing only: add DELTA to entry (I, J) of d_K in every "
                   "complex that exactness and homotopy build, as a negative "
                   "control; exactness cannot detect a change that leaves every "
                   "homology group as it was, so a control that must fail needs "
                   "one that changes a group, such as H_0, or breaks d o d")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every subcommand takes -n and -r, refused here before any work
        if args.n < 1 or args.r < 0:
            raise ValueError("need n >= 1 and r >= 0")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
