"""Tests of the benchmark itself: negative controls, span installation,
determinism and agreement with BENCHMARK.json.

    python3 -m pytest bench/test_bench.py -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from schurres import dividedpowers  # noqa: E402
from schurres.barcomplex import build_weyl_resolution  # noqa: E402

homology = importlib.import_module("schurres.homology")  # the package rebinds the name

SMALL_VERIFY = ("verify", "-n", "3", "-r", "3", "--checks", "exactness")
SMALL_RESOLVE = ("resolve", "-n", "3", "-r", "3", "--lambda", "2,1", "--variant", "weyl")


def test_verify_case_counts_corruption_as_failed():
    tally = workloads.Tally()
    workloads.verify_case(tally, SMALL_VERIFY)
    workloads.verify_case(tally, SMALL_VERIFY + workloads.CORRUPT)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "--corrupt" in tally.failures[0]


def test_resolve_case_counts_mutated_expectation_as_failed():
    tally = workloads.Tally()
    workloads.resolve_case(tally, SMALL_RESOLVE)
    assert (tally.attempted, tally.failed) == (1, 0)
    workloads.resolve_case(tally, SMALL_RESOLVE, expected_h0=9)  # the true rank is 8
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(tally.digests) == 1


def test_product_routes_agree_and_a_wrong_route_is_counted(monkeypatch):
    tally = workloads.Tally()
    workloads.products_case(tally, n=2, r=2)
    workloads.equivariance_case(tally, seed=5, n=2, r=2, count=2)
    assert tally.attempted == 10 * 10 + 2 * 10 and tally.failed == 0

    real = dividedpowers.gl_action
    monkeypatch.setattr(dividedpowers, "gl_action",
                        lambda g, pi: {k: c + 1 for k, c in real(g, pi).items()})
    bad = workloads.Tally()
    workloads.equivariance_case(bad, seed=5, n=2, r=2, count=1)
    assert bad.failed > 0


def test_failed_pass_lowers_passed_frac_and_clears_correct():
    good = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0, "attempted": 3, "failed": 0,
            "digests": ["a"]}
    bad = dict(good, failed=1)
    metrics = run.end_to_end([good, bad], setup=0.1)
    assert metrics["passed_frac"]["value"] == 5 / 6
    assert run.result([good, bad], metrics)["correct"] is False
    assert run.result([good, good], metrics)["correct"] is True
    assert run.result([good, dict(good, digests=["b"])], metrics)["correct"] is False


def test_tracer_replaces_every_binding_and_sums_to_wall():
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        for name, (module_name, attr, _) in spans.LAYERS.items():
            if "." in attr:
                continue
            original = tracer.originals[name]
            for module in list(sys.modules.values()):
                for key, value in getattr(module, "__dict__", {}).items():
                    assert value is not original, f"{module.__name__}.{key} unpatched"

        def body():
            cx = build_weyl_resolution((2, 1, 1))
            return homology.verify_exactness(cx, [1, 2]).ok

        root = tracer.span("pass", body)
        start = time.perf_counter()
        assert root()
        wall = time.perf_counter() - start
    finally:
        uninstall()
    report = tracer.report()
    assert report["homology.smith_normal_form"]["calls"] > 0
    assert report["homology.smith_normal_form"]["cells"] > 0
    assert report["barcomplex.differential"]["nnz"] > 0
    assert report["complexes.check_complex"]["calls"] == 1
    assert report["pass"]["calls"] == 1
    # the self times of all spans partition the root span's wall time
    total = sum(stats.get("self_s", 0.0) for stats in report.values())
    assert abs(total - wall) < 0.01 * wall
    assert homology.smith_normal_form is tracer.originals["homology.smith_normal_form"]


def test_tracer_skips_a_layer_that_no_longer_exists(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "homology.gone", ("schurres.homology", "gone", None))
    tracer = spans.Tracer()
    tracer.install()()
    assert "homology.gone" not in tracer.report()


def test_resolve_document_identical_across_processes():
    env = run.child_env()
    digests = set()
    for hash_seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-m", "schurres.cli", *SMALL_RESOLVE],
                             env=dict(env, PYTHONHASHSEED=hash_seed),
                             capture_output=True, check=True).stdout
        digests.add(out)
    assert len(digests) == 1


def test_frontier_probe_records_completion_and_cutoff():
    env = run.child_env()
    done = run.probe(env, "small", ("verify", "-n", "2", "-r", "2", "--checks", "exactness"),
                     cap_s=60)
    assert done["outcome"] == "completed" and done["peak_rss_mb"] > 0
    cut = run.probe(env, "cut", run.FRONTIER[1][1], cap_s=0.5)
    assert cut["outcome"] == "over_budget" and cut["seconds"] < 5


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    expected = [(f"{w}.{layer}.{stat}", run.UNITS[stat])
                for w in run.WORKLOADS for layer, stat in run.PER_LAYER[w]]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == expected
    for w in run.WORKLOADS:
        for layer, _ in run.PER_LAYER[w]:
            assert layer in spans.LAYERS or layer in ("pass", "trace")


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "weyl-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
