"""Batch command-line front end.

Subcommands: enumerate (index families), multiply (basis products),
resolve (build a complex and emit one JSON document), verify (run named
invariant suites over one or all compositions).  Output is deterministic:
two runs with identical flags produce byte-identical files.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

import argparse
import contextlib
import json
import random
import sys

from . import __version__
from .barcomplex import build_borel_resolution, build_weyl_resolution
from .combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    enumerate_weight_matrices,
    filtration_degree,
    is_partition,
    is_upper_triangular,
    max_chain_length,
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
    tensor_power_action,
)
from .schur import (
    basis_element,
    format_element,
    multiply,
    multiply_basis,
    structure_constants,
)
from .schurfunctor import (
    all_permutations,
    compose_permutations,
    permutation_weight_matrix,
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
    return {"rows": mat.nrows, "cols": mat.ncols, "entries": mat.entries()}


def complex_document(cx, lam, variant):
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
    doc = complex_document(cx, lam, args.variant)
    with _output(args.output) as out:
        _indented_json(doc, out)
        out.write("\n")
    return 0


JSON_CHUNK = 1 << 16


def _indented_json(obj, out):
    """Write the text of `json.dumps(obj, indent=2)` to out, in writes of
    about JSON_CHUNK characters, for dicts with string keys, lists, tuples,
    ints and strings.

    With `indent` set, json.dumps runs the stdlib's pure-Python encoder;
    here only leaves and keys go through json.dumps.  Dicts and lists are
    written item by item, so no text of a whole document or degree is held;
    an all-int sequence is joined at once, and any other tuple is formatted
    once per distinct value and depth, since labels repeat the same weight
    matrices many times.
    """
    parts = []
    size = 0

    def emit(text):
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= JSON_CHUNK:
            out.write("".join(parts))
            parts.clear()
            size = 0

    _stream_json(obj, 0, {}, emit)
    out.write("".join(parts))


def _stream_json(value, depth, tuples, emit):
    """Pass the text of value at depth to emit: a non-empty dict, list or
    tuple item by item, unless its items are all ints, and anything else
    whole."""
    if isinstance(value, dict) and value:
        brackets = "{}"
        items = ((json.dumps(key) + ": ", item) for key, item in value.items())
    elif (isinstance(value, (list, tuple)) and value
          and not all(type(item) is int for item in value)):
        brackets = "[]"
        items = (("", item) for item in value)
    else:
        emit(_json_text(value, depth, tuples))
        return
    indent = "\n" + "  " * (depth + 1)
    sep = brackets[0] + indent
    for head, item in items:
        if isinstance(item, (dict, list)):
            emit(sep + head)
            _stream_json(item, depth + 1, tuples, emit)
        else:
            emit(sep + head + _json_text(item, depth + 1, tuples))
        sep = "," + indent
    emit("\n" + "  " * depth + brackets[1])


def _json_text(value, depth, tuples):
    """The text of value at depth; a tuple's text is kept in tuples under
    (value, depth) and reused."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    if not isinstance(value, dict) and all(type(item) is int for item in value):
        indent = "\n" + "  " * (depth + 1)
        return "[" + indent + ("," + indent).join(map(str, value)) + "\n" + "  " * depth + "]"
    key = (value, depth) if isinstance(value, tuple) else None
    try:
        text = tuples.get(key)
    except TypeError:  # a tuple holding a list or a dict is no key
        key = text = None
    if text is None:
        pieces = []
        _stream_json(value, depth, tuples, pieces.append)
        text = "".join(pieces)
        if key is not None:
            tuples[key] = text
    return text


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
        cx = corrupt(build_borel_resolution(lam))
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
    rng = random.Random(0)
    if len(mats) ** 3 <= 10000:
        triples = [(a, b, c) for a in mats for b in mats for c in mats]
    else:
        triples = [tuple(rng.choice(mats) for _ in range(3)) for _ in range(1000)]
    for a, b, c in triples:
        left = multiply(multiply(basis_element(a), basis_element(b)), basis_element(c))
        right = multiply(basis_element(a), multiply(basis_element(b), basis_element(c)))
        if left != right:
            yield {"check": "associativity", "triple": [
                [list(rw) for rw in m] for m in (a, b, c)]}


def _check_filtration(n, r, lams, corrupt):
    uppers = enumerate_weight_matrices(n, r, upper_triangular=True)
    for omega in uppers:
        s = filtration_degree(omega)
        for pi in uppers:
            t = filtration_degree(pi)
            for key, _ in structure_constants(omega, pi):
                if not (is_upper_triangular(key) and filtration_degree(key) >= s + t):
                    yield {"check": "filtration", "omega": [list(rw) for rw in omega],
                           "pi": [list(rw) for rw in pi]}
    bound = max_chain_length(n, r)
    support = set(enumerate_weight_matrices(n, r, min_degree=1))
    generators = tuple(support)
    for _ in range(bound):
        nxt = set()
        for a in support:
            for b in generators:
                for key, _ in structure_constants(a, b):
                    nxt.add(key)
        support = nxt
        if not support:
            break
    if support:
        yield {"check": "filtration", "nilpotency": False, "power": bound + 1}


def _check_embedding(n, r, lams, corrupt):
    for sigma in all_permutations(r):
        ws = permutation_weight_matrix(sigma, n)
        for tau in all_permutations(r):
            expected = permutation_weight_matrix(compose_permutations(sigma, tau), n)
            terms = structure_constants(ws, permutation_weight_matrix(tau, n))
            if terms != ((expected, 1),):
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


# name -> (suite, why it is skipped on (n, r, lams) or None, whether it
# builds the complexes that --corrupt changes).  A suite takes
# (n, r, lams, corrupt) and yields one JSON record per failure; embedding
# and boltje compare with permutations of r letters, which need n >= r.
SUITES = {
    "exactness": (_check_exactness, None, True),
    "homotopy": (_check_homotopy, None, True),
    "oracle": (_check_oracle, None, False),
    "associativity": (_check_associativity, None, False),
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
    # exactness over F_p follows from the groups over Z (universal
    # coefficients), so the primes are only validated
    for p in map(int, args.mod.split(",") if args.mod else ()):
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

def build_parser():
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
    p.add_argument("--corrupt", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
