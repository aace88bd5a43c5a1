"""Only an immutable class writes past its own `__setattr__`.

`Matrix`, the shared zero element and the cached basis endomorphisms refuse
attribute assignment, and their constructors set their fields through
`object.__setattr__`; any other code doing the same would be changing an
object that may be cached and shared by every caller.
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


def immutable_classes(tree):
    """The classes of tree that define `__setattr__`, as {name: class node}."""
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                    for item in node.body)}


def test_only_immutable_classes_bypass_their_own_setattr():
    owners, stray = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = set(setattr_bypasses(tree))
        for name, node in immutable_classes(tree).items():
            inside = lines & set(setattr_bypasses(node))
            if inside:
                owners.add(f"{path.stem}.{name}")
            lines -= inside
        if lines:
            stray[path.name] = sorted(lines)
    assert stray == {}
    assert owners == {"complexes.Matrix", "schur._SharedZero", "oracles._SharedEndomorphism"}
