"""Source hygiene of the library, read with the standard ``ast`` module:
no import goes unused, no private helper outlives its last caller, every
name that the benchmark's tracer wraps still exists, only the listed
witness templates read the map they search, and the oracle, linmap and
exactnum keep no state between calls."""
from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abinertia"
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


def _private(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
        node.name.startswith("_") and not node.name.startswith("__")


def _private_definitions(tree: ast.Module):
    """The module-level private functions and classes, and the private
    methods of module-level classes, each with its qualified name."""
    for stmt in tree.body:
        if _private(stmt):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if _private(sub):
                    yield f"{stmt.name}.{sub.name}", sub


def test_every_private_helper_has_a_caller():
    refs: Counter = Counter()
    for tree in MODULES.values():
        refs += _references(tree)
    orphans = []
    for name, tree in MODULES.items():
        for qual, node in _private_definitions(tree):
            # a helper that only calls itself has no caller
            if refs[node.name] - _references(node)[node.name] == 0:
                orphans.append(f"{name}: {qual}")
    assert not orphans, f"private helpers nothing in src/ refers to: {orphans}"


def test_every_traced_name_resolves():
    # bench/tracing.py wraps each module.function of its LAYERS table and
    # counts the constructions of two classes; it is read, not imported,
    # so a deletion fails here on every Python version
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(stmt.value) for stmt in tree.body
                  if isinstance(stmt, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in stmt.targets))
    names = [(mod, fn) for mod, fns in layers.items() for fn in fns]
    names += [("groupkit", "Element"), ("oracle", "FiniteLattice")]
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"abinertia.{mod}"), fn, None))]
    assert len(names) > 30 and not missing, f"traced names the library lacks: {missing}"


def test_witness_builders_read_phi_only_where_listed():
    # a template offers every family that the group and the violated prime
    # allow, and the measured index picks the witness; these two still pick
    # their source from phi's normal form
    reads_phi = {"_wit_tau", "_wit_div_matrix"}
    tree = MODULES["oracle.py"]
    table = next(stmt.value for stmt in tree.body
                 if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_FAMILY_BUILDERS"
                         for t in stmt.targets))
    defs = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    builders = {value.id for value in table.values}
    readers = set()
    for name in builders:
        phi = defs[name].args.args[1].arg
        if any(isinstance(n, ast.Name) and n.id == phi for n in ast.walk(defs[name])):
            readers.add(name)
    assert len(builders) == 6 and readers == reads_phi, \
        f"builders that read phi: {sorted(readers)}, listed: {sorted(reads_phi)}"


# the module-level names of oracle, linmap and exactnum that bind more than
# a constant; linmap's Field is the type alias int | str
BOUND_AT_IMPORT = {"__all__", "_FAMILY_BUILDERS", "OMEGA", "INF", "Field"}
GENERICS = {"tuple", "list", "dict", "set", "frozenset", "type", "Callable", "Iterable",
            "Iterator", "Mapping", "Sequence"}


def _constant(value: ast.expr) -> bool:
    """An int, a str, a tuple of them, or a type alias (a subscripted generic)."""
    if isinstance(value, ast.Constant):
        return type(value.value) in (int, str)
    if isinstance(value, ast.Tuple):
        return all(map(_constant, value.elts))
    return isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name) \
        and value.value.id in GENERICS


def test_the_oracle_linmap_and_exactnum_keep_no_module_state():
    # every call starts from nothing: a result shared across calls would
    # need a global rebinding, a memoising decorator or a mutable binding
    found = []
    for name in ("oracle.py", "linmap.py", "exactnum.py"):
        tree = MODULES[name]
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{name}:{node.lineno} global {', '.join(node.names)}")
            for dec in getattr(node, "decorator_list", ()):
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "attr", getattr(dec, "id", None)) in ("cache", "lru_cache"):
                    found.append(f"{name}:{node.lineno} @{ast.unparse(dec)}")
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                if stmt.value and names - BOUND_AT_IMPORT and not _constant(stmt.value):
                    found.append(f"{name}:{stmt.lineno} {ast.unparse(stmt)[:60]}")
    assert not found, f"module state in the oracle, linmap or exactnum: {found}"
