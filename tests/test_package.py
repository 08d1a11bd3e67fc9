"""The package keeps only code that its engines, front end or exported API use."""

import ast
from pathlib import Path

import modhier

PACKAGE = Path(modhier.__file__).parent

# Module-level names that no code in the package refers to, each kept for its role.
KEPT_UNREFERENCED = {
    ("lang", "equivalent"): "language operation that tests compare against",
    ("lang", "is_empty"): "language operation that tests compare against",
    ("semiring", "TableSemiring"): "the explicit semiring that tests and tests/gen.py build",
}

# `refcheck` is the oracle module: tests call its checkers, the package need not.
ORACLE_MODULES = {"refcheck"}


def referenced_names(node: ast.AST) -> set:
    """Names a statement reads, as bare names, as attributes, or as the
    string a `getattr` looks up."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unreferenced_definitions() -> list:
    """(module, name) of every module-level function or class that no
    statement other than its own definition refers to."""
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                definitions.append((module, own))
            uses.append((module, own, referenced_names(stmt)))
    return [
        (module, name)
        for module, name in definitions
        if not any(name in names and (m, o) != (module, name) for m, o, names in uses)
    ]


def unreferenced_methods() -> list:
    """(module, class, method) of every method, dunders aside, whose name
    no statement other than its own definition refers to."""
    definitions, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                uses.append((None, referenced_names(stmt)))
                continue
            uses += [(None, referenced_names(node)) for node in stmt.decorator_list + stmt.bases]
            for node in stmt.body:
                own = None
                if isinstance(node, ast.FunctionDef):
                    own = (module, stmt.name, node.name)
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        definitions.append(own)
                uses.append((own, referenced_names(node)))
    return [
        method
        for method in definitions
        if not any(method[2] in names and own != method for own, names in uses)
    ]


def test_every_definition_is_used_or_exported():
    dead = [
        (module, name)
        for module, name in unreferenced_definitions()
        if module not in ORACLE_MODULES
        and name not in modhier.__all__
        and (module, name) not in KEPT_UNREFERENCED
    ]
    assert dead == []


def test_kept_exceptions_are_still_unreferenced():
    assert set(KEPT_UNREFERENCED) <= set(unreferenced_definitions())


def test_every_method_is_used():
    dead = [method for method in unreferenced_methods() if method[0] not in ORACLE_MODULES]
    assert dead == []
