"""One pass of one workload, in a fresh interpreter so every cache starts cold.

Prints one JSON line: the wall and CPU seconds of the pass (after import),
the process's peak RSS, the cases attempted and failed, the SHA-256 of every
resolve document produced and, when traced, the per-layer span totals.

    PYTHONPATH=src python3 bench/worker.py --workload weyl-exact --seed 1 --trace 0
"""

import argparse
import json
import resource
import time

import spans
import workloads


def run_pass(workload, seed, traced):
    tally = workloads.Tally()
    body = workloads.WORKLOADS[workload]
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
        body = tracer.span("pass", body)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    body(tally, seed)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "digests": sorted(tally.digests),
        "resolve_bytes": tally.resolve_bytes,
    }
    if tracer is not None:
        record["layers"] = tracer.report()
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
