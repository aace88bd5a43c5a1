"""Only `complexes` writes past an immutable object's `__setattr__`.

`Matrix` refuses attribute assignment, and its constructor sets its fields
through `object.__setattr__`; any other module doing the same would be
changing a matrix that may be cached and shared by every caller.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schurres"


def setattr_bypasses(tree):
    """Line numbers of the calls `object.__setattr__(...)` in tree."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"]


def test_only_complexes_bypasses_setattr():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = setattr_bypasses(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[path.name] = lines
    assert set(found) == {"complexes.py"}, found
