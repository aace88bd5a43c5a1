"""Every name a module of the package imports, and every private function
or class it defines, is used in that module; every public function, class
and method it defines is named outside its own definition by the code the
verifier runs, the package and the benchmark; every import sits at
module level; no function nested in another names itself; no module
reads the dense `rows` view of a matrix; and `import schurres` loads none
of the standard modules that the package does not need.

`__init__.py` is left out of the use checks: it imports names only to
re-export them, and a re-export is not a use.  Names that only tests or
demos use belong in the tests, as `tests/dense.py` holds the dense matrix
builders and the dense Smith normal form.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schurres"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """The names the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"cli", "tableaux", "schur", "homology"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def unreferenced_private_definitions(tree):
    """Module-level private functions and classes that the module names
    nowhere outside their own definition."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            inside = set(map(id, ast.walk(node)))
            if not any(isinstance(other, ast.Name) and other.id == node.name
                       and id(other) not in inside for other in ast.walk(tree)):
                yield node.name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_private_definition(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(unreferenced_private_definitions(tree))
    assert not unused, f"{path.name} defines {unused} and never uses them"


def test_a_private_function_used_only_by_itself_is_reported():
    tree = ast.parse("def _fail(x):\n    return _fail(x - 1) if x else 0\n\n"
                     "def _used():\n    pass\n\nVALUE = _used()\n")
    assert list(unreferenced_private_definitions(tree)) == ["_fail"]


def referenced_names(tree):
    """Every name the tree reads, as a plain name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def public_definitions(tree):
    """Module-level public functions and classes, and the public methods of
    those classes; dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (method for method in node.body
                            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)))


def unreferenced_public_definitions(tree, references):
    """Public definitions of tree that `references`, a Counter of the names
    read across the project, holds only inside their own definitions."""
    for node in public_definitions(tree):
        if not node.name.startswith("_"):
            inside = Counter(referenced_names(node))
            if references[node.name] <= inside[node.name]:
                yield node.name


# bench/spans.py traces homology.rank_mod_p as a benchmark layer; it stays
# until ROADMAP item 8 retires that layer
BENCH_LAYERS = {"rank_mod_p"}


def unreferenced_public_names(root):
    """{module file name: public definitions of root/src/schurres that no
    file of root/src or root/bench, the package's `__init__.py` aside, names
    outside their own definition}."""
    package = root / "src" / "schurres"
    references = Counter()
    for folder in ("src", "bench"):
        for path in (root / folder).rglob("*.py"):
            if path != package / "__init__.py":
                references.update(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    return {path.name: sorted(unreferenced_public_definitions(
                ast.parse(path.read_text(encoding="utf-8")), references))
            for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}


def test_every_public_definition_is_named_outside_itself():
    unused = {name for names in unreferenced_public_names(ROOT).values() for name in names}
    assert unused == BENCH_LAYERS, f"defined and named by no code of src/ or bench/: {unused}"


def test_a_definition_named_only_in_tests_is_reported(tmp_path):
    files = {
        "src/schurres/__init__.py": "from .mod import checked, helper, traced\n",
        "src/schurres/mod.py": "def checked():\n    pass\n\ndef helper():\n    pass\n\n"
                               "def traced():\n    pass\n",
        "src/schurres/cli.py": "from .mod import checked\n\nchecked()\n",
        "bench/run.py": "from schurres import mod\n\nmod.traced()\n",
        "tests/test_mod.py": "from schurres.mod import helper\n\nhelper()\n",
        "demos/demo.py": "import schurres\n\nschurres.helper()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreferenced_public_names(tmp_path) == {"cli.py": [], "mod.py": ["helper"]}


def test_a_public_method_named_only_by_itself_is_reported():
    source = ("class Walk:\n    def first(self):\n        return self.first()\n\n"
              "    def used(self):\n        pass\n\nWalk().used()\n")
    tree = ast.parse(source)
    references = Counter(referenced_names(tree))
    assert list(unreferenced_public_definitions(tree, references)) == ["first"]


def imports_inside_functions(tree):
    """Line numbers of import statements inside a function body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = sorted(set(imports_inside_functions(tree)))
    assert not lines, f"{path.name} imports inside a function at lines {lines}"


def test_an_import_inside_a_function_is_reported():
    tree = ast.parse("import os\n\ndef f():\n    from math import pi\n    return pi\n")
    assert list(imports_inside_functions(tree)) == [4]


def self_referring_nested_functions(tree):
    """Names of the functions defined inside another function that name
    themselves in their own body.  Such a function and its closure cell
    form a reference cycle, which keeps the call's locals alive until the
    cyclic collector runs; module-level recursion leaves none."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(tree):
        if isinstance(outer, functions):
            for node in ast.walk(outer):
                if (node is not outer and isinstance(node, functions)
                        and any(isinstance(inner, ast.Name) and inner.id == node.name
                                for stmt in node.body for inner in ast.walk(stmt))):
                    yield node.name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_nested_function_refers_to_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(set(self_referring_nested_functions(tree)))
    assert not found, f"{path.name} nests self-referring functions {found}"


def test_a_nested_function_that_calls_itself_is_reported():
    tree = ast.parse("def walk(n):\n    return walk(n - 1) if n else 0\n\n"
                     "def outer(k):\n    def fill(j):\n        return fill(j - 1) if j else k\n"
                     "    def emit(j):\n        return j\n    return fill(k) + emit(k)\n")
    assert list(self_referring_nested_functions(tree)) == ["fill"]


def dense_view_reads(tree):
    """Line numbers where the tree reads an attribute named `rows`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "rows":
            yield node.lineno


def test_package_never_reads_the_dense_rows_view():
    reads = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := sorted(dense_view_reads(ast.parse(path.read_text(encoding="utf-8")))))}
    assert not reads, f"modules reading the dense rows view, at lines: {reads}"


def test_a_read_of_the_dense_rows_view_is_reported():
    tree = ast.parse("rows = 2\n\ndef f(mat):\n    return mat.rows[rows]\n")
    assert list(dense_view_reads(tree)) == [4]


# dataclasses brings inspect, ast, dis and tokenize with it; json its own
# submodules.  The package needs none of them, and every process that
# imports it would pay for loading them.
UNNEEDED = {"dataclasses", "inspect", "json", "ast", "dis", "tokenize"}


def modules_after(code):
    """The names in sys.modules once a fresh interpreter has run code."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_importing_the_package_loads_no_unneeded_module():
    bare = modules_after("")
    loaded = modules_after("import schurres")
    assert "schurres.tableaux" in loaded
    assert sorted((loaded - bare) & UNNEEDED) == []
