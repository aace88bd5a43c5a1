"""The benchmark's workloads: fixed inputs, one pass each, every answer checked.

A pass is a sequence of cases.  Each case runs the program on one input and
checks the result; a case counts as passed only when every check holds, and
a failed case is counted, never dropped.  Only ``algebra-products`` uses the
seed (it draws the matrices g); the other two workloads have fixed inputs.
"""

import contextlib
import hashlib
import io
import json
import random

from schurres import cli, combinatorics, dividedpowers, oracles, schur, tableaux

N3R5_EXACT = ("verify", "-n", "3", "-r", "5", "--checks", "exactness", "--mod", "2,3,5")
N3R6_EXACT = ("verify", "-n", "3", "-r", "6", "--lambda", "3,2,1",
              "--checks", "exactness", "--mod", "2,3,5")
RESOLVE_221 = ("resolve", "-n", "3", "-r", "5", "--lambda", "2,2,1", "--variant", "weyl")
N4R4_BOLTJE = ("verify", "-n", "4", "-r", "4", "--checks", "boltje")
N5R5_BOLTJE = ("verify", "-n", "5", "-r", "5", "--lambda", "2,1,1,1", "--checks", "boltje")
CORRUPT = ("--corrupt", "1,0,0,1")
MATRICES_PER_SEED = 12


class Tally:
    """Cases attempted and failed in one pass, plus resolve-document digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = set()
        self.resolve_bytes = 0

    def record(self, ok, what):
        """Count one case; ``what`` is formatted only when the case failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(" ".join(map(str, what)))


def run_cli(argv):
    """Run ``schurres.cli.main`` in process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _options(argv):
    """argv is a subcommand followed by option/value pairs."""
    return dict(zip(argv[1::2], argv[2::2]))


def verify_case(tally, argv):
    """Passes only on exit code 0 and an ``ok`` line for every named check."""
    code, text = run_cli(argv)
    opt = _options(argv)
    lines = set(text.splitlines())
    ok = code == 0 and all(f"ok {name} (n={opt['-n']}, r={opt['-r']})" in lines
                           for name in opt["--checks"].split(","))
    tally.record(ok, argv)


def resolve_case(tally, argv, expected_h0=None):
    """The document's H0 must be free of the semistandard-tableau rank and
    every other degree must have zero homology."""
    code, text = run_cli(argv)
    opt = _options(argv)
    lam = tuple(int(v) for v in opt["--lambda"].split(","))
    if expected_h0 is None:
        expected_h0 = tableaux.semistandard_tableau_count(lam, int(opt["-n"]))
    ok = code == 0
    if ok:
        data = text.encode()
        tally.digests.add(hashlib.sha256(data).hexdigest())
        tally.resolve_bytes = len(data)
        groups = json.loads(text)["homology"]
        ok = all(h == {"free_rank": expected_h0 if k == "0" else 0, "torsion": []}
                 for k, h in groups.items()) and "0" in groups
    tally.record(ok, argv)


def products_case(tally, n=3, r=3):
    """Every basis product three ways: structure constants, composed
    tensor-space endomorphisms, and the convolution product."""
    mats = combinatorics.enumerate_weight_matrices(n, r)
    for omega in mats:
        fo = oracles.endo_of_basis(omega)
        for pi in mats:
            direct = schur.multiply_basis(omega, pi)
            composed = oracles.decode(oracles.compose(fo, oracles.endo_of_basis(pi)))
            convolved = oracles.green_convolution(omega, pi)
            tally.record(direct == composed == convolved, ("product", omega, pi))


def equivariance_case(tally, seed, n=3, r=3, count=MATRICES_PER_SEED):
    """gl_action(g, pi) against the algebra image of g times pi, on every
    divided basis, for seed-drawn integer matrices g."""
    rng = random.Random(seed)
    for _ in range(count):
        g = tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n))
        rho = oracles.tensor_power_action(g, r)
        for lam in combinatorics.enumerate_compositions(n, r):
            for pi in dividedpowers.divided_basis(lam):
                lhs = schur.AlgebraElement(n, r, dividedpowers.gl_action(g, pi))
                rhs = schur.multiply(rho, schur.basis_element(pi))
                tally.record(lhs == rhs, ("gl_action", g, pi))


def weyl_exact(tally, seed):
    verify_case(tally, N3R5_EXACT)
    verify_case(tally, N3R6_EXACT)
    resolve_case(tally, RESOLVE_221)


def bh_compare(tally, seed):
    verify_case(tally, N4R4_BOLTJE)
    verify_case(tally, N5R5_BOLTJE)


def algebra_products(tally, seed):
    products_case(tally)
    equivariance_case(tally, seed)


WORKLOADS = {
    "weyl-exact": weyl_exact,
    "bh-compare": bh_compare,
    "algebra-products": algebra_products,
}
