"""The benchmark's layer spans still see the functions they name.

bench/spans.py wraps each layer's function by module and name, and its
Tracer skips a name that no longer resolves, so that the benchmark outlives
a refactor.  A renamed method, or a changed call that a count hook reads,
would then report zeros without failing anything (bench/test_bench.py
checks only the plain functions).  These tests read the layer table from
bench/ without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from schurres import oracles, schur, schurfunctor, tableaux
from schurres.combinatorics import matrix_marginal

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("layer", sorted(spans.LAYERS))
def test_every_layer_resolves_to_a_function_of_the_package(layer):
    # looked up as Tracer.install looks it up, methods (Class.method) included
    module_name, attr, _ = spans.LAYERS[layer]
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(vars(owner).get(name)), f"{layer} names no function of {module_name}"


def test_traced_truncation_counts_its_block_labels():
    # the bar-basis span sees only calls through the name enumerate_bar_basis,
    # so kept_ratio reads 0 if a builder enumerates its bases another way
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        schurfunctor.truncated_resolution((2, 1, 0))
    finally:
        uninstall()
    report = tracer.report()
    assert report["barcomplex.enumerate_bar_basis"]["full_labels_in_truncation"] > 0
    assert report[spans.TRUNCATION]["kept_ratio"] == 1.0
    assert report["barcomplex.differential"]["nnz"] > 0


def test_traced_comparison_counts_its_tableau_homs():
    # the hom and build spans see only calls through the names tableau_hom
    # and build_bh_complex, so each reads nothing if the comparison builds
    # the complex, or the complex its homs, through another name
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        tableaux.compare_with_schur_functor((2, 1, 1, 0))
    finally:
        uninstall()
    report = tracer.report()
    assert report["tableaux.tableau_hom"].get("calls", 0) > 0
    assert report["tableaux.build_bh_complex"].get("calls", 0) >= 1


def test_traced_product_reports_its_structure_constant_hit_ratio():
    # hit_ratio is read from structure_constants.cache_info, and the span
    # counts only the term pairs that compose
    x = oracles.tensor_power_action(((1, 2, 0), (0, 1, -1), (3, 0, 1)), 3)
    y = oracles.tensor_power_action(((2, 0, 1), (1, 1, 0), (0, -1, 1)), 3)
    composable = sum(matrix_marginal(a, 1) == matrix_marginal(b, 2)
                     for a in x.terms for b in y.terms)
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        schur.multiply(x, y)
    finally:
        uninstall()
    report = tracer.report()["schur.structure_constants"]
    assert report["calls"] == composable < len(x.terms) * len(y.terms)
    assert 0.0 <= report["hit_ratio"] <= 1.0
