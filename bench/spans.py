"""Layer spans for a traced pass, installed from the benchmark's own files.

Each layer is a public function (or method) of a ``schurres`` module.  The
package binds functions with ``from ... import``, so the wrapper replaces
every module attribute in the process that is bound to the original, not
only the one in its home module.  Each call opens a span with its name,
start, end and parent; when the span closes its self time (duration minus
the durations of its child spans) and its counts are folded into per-layer
totals, so memory stays flat however many calls a pass makes.  Time spent
closing a span and computing its counts is charged to ``trace``, not to the
enclosing layer, so the self times of all spans, the root ``pass`` span
included, add up to the traced pass's wall time.
"""

import sys
from collections import Counter
from time import perf_counter

TRUNCATION = "schurfunctor.truncated_resolution"


def _cells(mat):
    return mat.nrows * mat.ncols


def _count_input_cells(stats, args, kwargs, result, depth):
    stats["cells"] += _cells(args[0])


def _count_bar_labels(stats, args, kwargs, result, depth):
    stats["labels"] += len(result)
    variant = args[2] if len(args) > 2 else kwargs.get("variant", "borel")
    if variant == "full" and depth[TRUNCATION]:
        stats["full_labels_in_truncation"] += len(result)


def _count_differential(stats, args, kwargs, result, depth):
    stats["cells"] += _cells(result)
    stats["nnz"] += sum(1 for row in result.rows for v in row if v)


def _count_kept(stats, args, kwargs, result, depth):
    stats["kept_labels"] += sum(result.rank(k) for k in result.degrees())


# layer name -> (module, attribute or Class.method, count hook or None)
LAYERS = {
    "homology.smith_normal_form": ("schurres.homology", "smith_normal_form", _count_input_cells),
    "homology.rank_mod_p": ("schurres.homology", "rank_mod_p", _count_input_cells),
    "barcomplex.enumerate_bar_basis": ("schurres.barcomplex", "enumerate_bar_basis",
                                       _count_bar_labels),
    "barcomplex.differential": ("schurres.barcomplex", "differential", _count_differential),
    TRUNCATION: ("schurres.schurfunctor", "truncated_resolution", _count_kept),
    "combinatorics.enumerate_weight_matrices": ("schurres.combinatorics",
                                                "enumerate_weight_matrices", None),
    "schur.structure_constants": ("schurres.schur", "structure_constants", None),
    "schur.multiply": ("schurres.schur", "multiply", None),
    "complexes.check_complex": ("schurres.complexes", "ChainComplex.check_complex", None),
    "complexes.matmul": ("schurres.complexes", "Matrix.__matmul__", None),
    "tableaux.build_bh_complex": ("schurres.tableaux", "build_bh_complex", None),
    "tableaux.tableau_hom": ("schurres.tableaux", "tableau_hom", None),
    "tableaux.compare_with_schur_functor": ("schurres.tableaux",
                                            "compare_with_schur_functor", None),
    "oracles.endo_of_basis": ("schurres.oracles", "endo_of_basis", None),
    "oracles.compose": ("schurres.oracles", "compose", None),
    "oracles.decode": ("schurres.oracles", "decode", None),
    "oracles.green_convolution": ("schurres.oracles", "green_convolution", None),
    "oracles.tensor_power_action": ("schurres.oracles", "tensor_power_action", None),
    "dividedpowers.gl_action": ("schurres.dividedpowers", "gl_action", None),
    "cli.complex_document": ("schurres.cli", "complex_document", None),
    "cli.resolve": ("schurres.cli", "cmd_resolve", None),
}


class Tracer:
    """Open spans on a stack; closed spans folded into per-layer totals."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.depth = Counter()
        self.originals = {}
        self.stats["trace"] = Counter()

    def span(self, name, fn, count=None):
        stats = self.stats.setdefault(name, Counter())
        stack, depth, overhead = self.stack, self.depth, self.stats["trace"]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            children = [0.0]
            stack.append(children)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += end - start - children[0]
            if count is not None:
                count(stats, args, kwargs, result, depth)
            now = perf_counter()
            overhead["self_s"] += now - end
            if parent is not None:
                parent[0] += now - start
            return result

        return traced

    def install(self):
        """Wrap every layer in LAYERS; return a function that undoes it.

        A layer whose function no longer exists is left out and reports
        nothing, so the benchmark outlives refactors that remove one.
        """
        undo = []
        modules = list(sys.modules.values())
        for name, (module_name, attr, count) in LAYERS.items():
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, "__dict__", {}).get(method)
            if original is None:
                continue
            wrapper = self.span(name, original, count)
            if owner_name:
                undo.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            self.originals[name] = original
            for module in modules:
                for key, value in list(getattr(module, "__dict__", {}).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)

        def uninstall():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
        return uninstall

    def report(self):
        """Per-layer totals, with the derived ratios."""
        out = {name: dict(stats) for name, stats in self.stats.items()}
        sc = self.originals.get("schur.structure_constants")
        if hasattr(sc, "cache_info"):
            info = sc.cache_info()
            out["schur.structure_constants"]["hit_ratio"] = (
                info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0)
        trunc = out.setdefault(TRUNCATION, {})
        full = out.get("barcomplex.enumerate_bar_basis", {}).get("full_labels_in_truncation", 0)
        trunc["kept_ratio"] = trunc.get("kept_labels", 0) / full if full else 0.0
        return out
