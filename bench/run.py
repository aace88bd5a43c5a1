"""Benchmark of the schurres verifier: fixed workloads, fresh processes,
checked answers, one JSON result line.

    python3 bench/run.py --workload weyl-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` passes of the chosen workload run one at a time, each in
a fresh worker process so every ``lru_cache`` starts cold, until
``--seconds`` have elapsed (and at least MIN_PASSES); the end-to-end
metrics are medians over the passes.  With ``--trace 1`` every workload runs
one untraced and one traced pass, and the per-layer metrics of all
workloads come from the traced passes.  Every invocation also samples
set-up time (interpreter start plus ``import schurres``) before the first
pass and after each one, and runs the frontier probe, whose cases are
expected to exceed their budget today.

End-to-end metrics, per pass: ``wall_s`` (wall seconds after import),
``cpu_s`` (user plus system seconds), ``peak_rss_mb`` (the worker's
``ru_maxrss``), and per run: ``setup_s`` and ``passed_frac`` (cases passed
over cases attempted).

All output but the last line is a JSON report (per-pass figures, resolve
document digests, failures, frontier); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 when the
package is missing, 1 when a worker crashes.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("weyl-exact", "bh-compare", "algebra-products")
MIN_PASSES = 2
SETUP_SAMPLES = 3  # before the first pass and after each pass
WORKER_TIMEOUT_S = 150

# Frontier cases: (name, CLI arguments).  Each runs once per invocation in a
# child with its own address-space limit and time cap; not gated.
FRONTIER = (
    ("weyl-1111-n4", ("verify", "-n", "4", "-r", "4", "--lambda", "1,1,1,1",
                      "--checks", "exactness")),
    ("weyl-222-n3", ("verify", "-n", "3", "-r", "6", "--lambda", "2,2,2",
                     "--checks", "exactness")),
    ("bh-11111-n5", ("verify", "-n", "5", "-r", "5", "--lambda", "1,1,1,1,1",
                     "--checks", "boltje")),
)
FRONTIER_CAP_S = 1.5
FRONTIER_AS_BYTES = 1 << 30
FRONTIER_CHILD = ("import sys\nfrom schurres.cli import main\n"
                  "try:\n    code = main(sys.argv[1:])\n"
                  "except MemoryError:\n    code = 3\nsys.exit(code)\n")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("passed_frac", "ratio"))

SNF = "homology.smith_normal_form"
MODP = "homology.rank_mod_p"
BAR = "barcomplex.enumerate_bar_basis"
DIFF = "barcomplex.differential"
TRUNC = "schurfunctor.truncated_resolution"
WMAT = "combinatorics.enumerate_weight_matrices"
SC = "schur.structure_constants"
CHECK = "complexes.check_complex"
MATMUL = "complexes.matmul"
COMMON = ((WMAT, "calls"), (WMAT, "self_s"),
          (SC, "calls"), (SC, "self_s"), (SC, "hit_ratio"))
# the root span's own time, the tracer's own time, traced / untraced wall
TAIL = (("pass", "self_s"), ("trace", "self_s"), ("trace", "overhead"))
# Per-layer metrics reported for each workload: the layers it loads, and
# the end-to-end metric each should move.
#   homology.*: wall_s and peak_rss_mb on weyl-exact; nothing on
#     algebra-products.
#   barcomplex.enumerate_bar_basis: wall_s and peak_rss_mb on bh-compare.
#   barcomplex.differential (dense cells against nnz): peak_rss_mb on
#     weyl-exact.
#   schurfunctor.truncated_resolution (kept_ratio = labels kept / full-variant
#     labels enumerated inside it), combinatorics.*, tableaux.*: wall_s on
#     bh-compare.
#   schur.* (hit_ratio from cache_info): wall_s on algebra-products and part
#     of bh-compare.
#   complexes.check_complex and complexes.matmul (the d o d check), cli.*:
#     wall_s on weyl-exact.
#   oracles.*, dividedpowers.gl_action: wall_s on algebra-products.
PER_LAYER = {
    "weyl-exact": ((SNF, "calls"), (SNF, "self_s"), (SNF, "cells"),
                   (MODP, "calls"), (MODP, "self_s"), (MODP, "cells"),
                   (BAR, "self_s"), (BAR, "labels"),
                   (DIFF, "self_s"), (DIFF, "cells"), (DIFF, "nnz"),
                   *COMMON,
                   (CHECK, "self_s"), (MATMUL, "self_s"),
                   ("cli.complex_document", "self_s"), ("cli.resolve", "self_s"),
                   ("cli.resolve", "bytes"), *TAIL),
    "bh-compare": ((BAR, "self_s"), (BAR, "labels"),
                   (TRUNC, "self_s"), (TRUNC, "kept_ratio"),
                   *COMMON,
                   ("tableaux.build_bh_complex", "self_s"), ("tableaux.tableau_hom", "calls"),
                   ("tableaux.tableau_hom", "self_s"),
                   ("tableaux.compare_with_schur_functor", "self_s"),
                   (SNF, "calls"), (SNF, "self_s"), (SNF, "cells"),
                   (CHECK, "self_s"), (MATMUL, "self_s"), *TAIL),
    "algebra-products": (*COMMON, ("schur.multiply", "self_s"),
                         ("oracles.endo_of_basis", "self_s"), ("oracles.compose", "self_s"),
                         ("oracles.decode", "self_s"),
                         ("oracles.green_convolution", "self_s"),
                         ("oracles.tensor_power_action", "self_s"),
                         ("dividedpowers.gl_action", "calls"),
                         ("dividedpowers.gl_action", "self_s"), *TAIL),
}
UNITS = {"calls": "count", "cells": "count", "nnz": "count", "labels": "count",
         "bytes": "bytes", "self_s": "s", "hit_ratio": "ratio", "kept_ratio": "ratio",
         "overhead": "ratio"}


class WorkerError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def import_seconds(env):
    """Wall seconds for a fresh interpreter to start and import schurres."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import schurres"], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode:
        raise WorkerError(done.stderr.decode(errors="replace"))
    return elapsed


def run_worker(env, workload, seed, traced):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode:
        raise WorkerError(f"{workload} worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def probe(env, name, argv, cap_s=FRONTIER_CAP_S):
    """Run one frontier case under its own limits; never raises on the case."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (FRONTIER_AS_BYTES, FRONTIER_AS_BYTES))

    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", FRONTIER_CHILD, *argv], env=env,
                             preexec_fn=limit, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > cap_s:
            child.kill()
            pid, status, usage = os.wait4(child.pid, 0)
            break
        time.sleep(0.01)
    seconds = time.perf_counter() - start
    # os.wait4 reaped the child (for its own rusage); record that on the Popen
    child.returncode = os.waitstatus_to_exitcode(status)
    outcome = {0: "completed", 1: "failed", 3: "over_budget"}.get(
        child.returncode, "over_budget" if child.returncode < 0 else "error")
    return {"case": name, "argv": list(argv), "outcome": outcome, "exit": child.returncode,
            "seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024,
            "cap_s": cap_s, "address_space_mb": FRONTIER_AS_BYTES >> 20}


def layer_metrics(workload, untraced, traced):
    layers = traced["layers"]
    out = {}
    for layer, stat in PER_LAYER[workload]:
        if (layer, stat) == ("trace", "overhead"):
            value = traced["wall_s"] / untraced["wall_s"]
        elif (layer, stat) == ("cli.resolve", "bytes"):
            value = traced["resolve_bytes"]
        else:
            value = layers.get(layer, {}).get(stat, 0)
        out[f"{workload}.{layer}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    return out


def end_to_end(passes, setup):
    """Medians over passes; a failed case lowers passed_frac, never vanishes."""
    attempted = sum(p["attempted"] for p in passes)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": setup,
        "passed_frac": (attempted - sum(p["failed"] for p in passes)) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def result(passes, metrics):
    """The result line: correct only when no case failed and every resolve
    document of the run had the same SHA-256."""
    failed = sum(p["failed"] for p in passes)
    digests = {d for p in passes for d in p["digests"]}
    return {"correct": failed == 0 and len(digests) <= 1,
            "attempted": sum(p["attempted"] for p in passes), "failed": failed,
            "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "schurres" / "__init__.py").is_file():
        print(f"error: no schurres package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        import_seconds(env)  # compiles bytecode once, outside the measurement
        setup = [import_seconds(env) for _ in range(SETUP_SAMPLES)]
        passes = []
        metrics = {}
        if args.trace:
            for workload in WORKLOADS:
                untraced = run_worker(env, workload, args.seed, False)
                traced = run_worker(env, workload, args.seed, True)
                passes += [dict(untraced, workload=workload),
                           dict(traced, workload=workload, traced=True)]
                metrics.update(layer_metrics(workload, untraced, traced))
        else:
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                passes.append(dict(run_worker(env, args.workload, args.seed, False),
                                   workload=args.workload))
                setup += [import_seconds(env) for _ in range(SETUP_SAMPLES)]
        frontier = [probe(env, name, case) for name, case in FRONTIER]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup = statistics.median(setup)
    if not args.trace:
        metrics = end_to_end(passes, setup)
    for p in passes:
        p.pop("layers", None)
    digests = sorted({d for p in passes for d in p["digests"]})
    print(json.dumps({"setup_s": setup, "passes": passes, "resolve_sha256": digests,
                      "frontier": frontier}))
    print(json.dumps(result(passes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
