"""The package keeps only code that its engines, front end or exported API use."""

import ast
from pathlib import Path

import modhier

PACKAGE = Path(modhier.__file__).parent

# Module-level names that no code in the package refers to, each kept for its role.
KEPT_UNREFERENCED = {
    ("lang", "equivalent"): "language operation that tests compare against",
    ("lang", "is_empty"): "language operation that tests compare against",
}

# Methods that no code in the package calls, each kept for its role.
KEPT_UNCALLED = {
    ("lang", "Dfa", "accepts"): "membership reference that tests check monoids and regexes against",
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


def attribute_uses(node: ast.AST) -> set:
    """Names a statement reads as attributes, or as the string a
    `getattr` looks up: the only ways to reach a method."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "getattr"
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Constant)
        ):
            out.add(sub.args[1].value)
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


def unreferenced_methods(sources=None) -> list:
    """(module, class, method) of every method, dunders aside, whose name
    no statement other than its own definition reads as an attribute.
    `sources` maps module names to source text, the package's by default."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    definitions, uses = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.ClassDef):
                uses.append((None, attribute_uses(stmt)))
                continue
            uses += [(None, attribute_uses(node)) for node in stmt.decorator_list + stmt.bases]
            for node in stmt.body:
                own = None
                if isinstance(node, ast.FunctionDef):
                    own = (module, stmt.name, node.name)
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        definitions.append(own)
                uses.append((own, attribute_uses(node)))
    return [
        method
        for method in definitions
        if not any(method[2] in names and own != method for own, names in uses)
    ]


def self_calls(source: str) -> list:
    """Names of the functions in `source` that call themselves by bare
    name, and of the methods that call `self.<their own name>`."""
    tree = ast.parse(source)
    methods = {
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if fn in methods:
                hit = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                )
            else:
                hit = isinstance(callee, ast.Name) and callee.id == fn.name
            if hit:
                found.append(fn.name)
    return found


# The functions that may raise a budget error, one per kind of growth:
# reachability walks, fixpoint rounds, antichains and materialized
# downsets. Every engine and oracle draws through them.
BUDGET_CALLERS = {
    "lang.explore",
    "errors.Budget.rounds",
    "semiring.Antichain.add",
    "semiring.DownSet.to_set",
}


def budget_callers(source: str, module: str) -> set:
    """Qualified names of the functions in `source` that call `.exceeded(`."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef) and any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "exceeded"
                    for call in ast.walk(child)
                ):
                    found.add(name)
                visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_only_the_allowed_functions_raise_budget_errors():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= budget_callers(path.read_text(), path.stem)
    assert found == BUDGET_CALLERS
    loop = "def walk(b):\n    while True:\n        raise b.exceeded('states')\n"
    assert budget_callers(loop, "lang") == {"lang.walk"}


def test_regex_front_end_does_not_recurse():
    # Regexes nest past Python's recursion limit, so `lang` keeps its
    # pending work on explicit stacks.
    assert self_calls((PACKAGE / "lang.py").read_text()) == []
    assert self_calls("def f(r):\n    return [f(c) for c in r]\n") == ["f"]
    method = "class T:\n    def d(self, t):\n        return self.d(t - 1)\n"
    assert self_calls(method) == ["d"]


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
    dead = [
        method
        for method in unreferenced_methods()
        if method[0] not in ORACLE_MODULES and method not in KEPT_UNCALLED
    ]
    assert dead == []


def test_kept_methods_are_still_uncalled():
    assert set(KEPT_UNCALLED) <= set(unreferenced_methods())


def test_a_bare_name_does_not_use_a_method():
    # A local function, a module function or a string of the method's
    # name reaches no method; an attribute or a `getattr` does.
    source = (
        "class D:\n    def step(self):\n        pass\n    def run(self):\n        pass\n"
        "    def part(self):\n        pass\n"
        "def run():\n    step = 1\n    return step, 'run', getattr(x, 'part')\n"
    )
    assert unreferenced_methods({"m": source}) == [("m", "D", "step"), ("m", "D", "run")]
    assert unreferenced_methods({"m": source + "y = x.step\n"}) == [("m", "D", "run")]
