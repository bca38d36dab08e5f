"""Source hygiene of the library, read with the standard ``ast`` module:
no import goes unused, and no private helper outlives its last caller."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abinertia"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    """Every name read, attribute taken or name imported under node."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name] += 1
    return refs


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's __all__."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return {elt.value for elt in stmt.value.elts}
    return set()


def test_every_imported_name_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported(tree)
        for stmt in ast.walk(tree):
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or \
                    isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}: {bound}")
    assert not unused, f"imported but never used: {unused}"


def test_every_private_helper_has_a_caller():
    refs: Counter = Counter()
    for tree in MODULES.values():
        refs += _references(tree)
    orphans = []
    for name, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name.startswith("_") and not stmt.name.startswith("__"):
                # a helper that only calls itself has no caller
                if refs[stmt.name] - _references(stmt)[stmt.name] == 0:
                    orphans.append(f"{name}: {stmt.name}")
    assert not orphans, f"private helpers nothing in src/ refers to: {orphans}"
