"""The package keeps only code that its engines, front end or exported API
use, and the test suite defines each shared fixture and checker once."""

import ast
import re
from pathlib import Path

import modhier

PACKAGE = Path(modhier.__file__).parent
TESTS = Path(__file__).parent

# Where a query starts: the command line's entry points. The names the
# package root exports are read by its `__all__` statement.
ENTRY_POINTS = {("cli", "main"), ("cli", "run")}


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


def members(node: ast.stmt) -> list:
    """The names a class-body statement defines as members, dunders
    aside: a method's, or each target of a plain assignment. An
    annotated statement, such as a dataclass field, defines none.

    Dunders stay outside the guard because Python calls them
    implicitly (`in`, `len`, iteration), so no attribute names them;
    `tools/reached.py` lists the ones no query runs. One it lists,
    `DownSet.__contains__`, stays: the tests read downsets through
    `in`, and without it 39 tier-1 tests, of 14 test functions, fail."""
    if isinstance(node, ast.FunctionDef):
        names = [node.name]
    elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
        names = [t.id for t in node.targets]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unreachable(sources=None, roots=ENTRY_POINTS) -> list:
    """Every module-level function or class, as (module, name), and every
    class member (`members`), as (module, class, name), that no walk
    from the roots reaches. `sources` maps module names to source text,
    the package's by default.

    The walk starts at the roots and at every module-level statement
    that is not a definition, as those run at import. What it reaches
    reaches in turn each module-level definition whose name it reads
    (`referenced_names`), and each member of a reached class whose name
    it reads as an attribute (`attribute_uses`). A class brings along
    its decorators, bases, other class-level statements and dunders.
    """
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    parts, todo = {}, []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.ClassDef):
                own = parts[(module, stmt.name)] = stmt.decorator_list + stmt.bases
                for node in stmt.body:
                    names = members(node)
                    for name in names:
                        parts[(module, stmt.name, name)] = [node]
                    if not names:
                        own.append(node)
            elif isinstance(stmt, ast.FunctionDef):
                parts[(module, stmt.name)] = [stmt]
            else:
                todo.append(stmt)
    reached, names, attributes = set(), set(), set()
    frontier = set(roots)
    while frontier or todo:
        reached |= frontier
        todo += [node for key in frontier for node in parts[key]]
        for node in todo:
            names |= referenced_names(node)
            attributes |= attribute_uses(node)
        todo = []
        frontier = {
            key
            for key in parts
            if key not in reached
            and (key[2] in attributes and key[:2] in reached if len(key) == 3 else key[1] in names)
        }
    return [key for key in parts if key not in reached]


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
# reachability walks and searches, fixpoint rounds and antichains.
# Every engine draws through them.
BUDGET_CALLERS = {
    "lang.explore",
    "errors.Budget.rounds",
    "semiring.Antichain.add",
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


# The abstract interfaces the package keeps. `BasisOracle` is the
# paper's basis contract (an iopti and a separation test), which the
# generic route takes as its input; `ModOracle` implements it in the
# package and `gen.SeparationOnlyOracle` in the tests. Every other
# concept has one implementation, so it needs no interface above it.
ABSTRACT_INTERFACES = {"basis.BasisOracle"}


def abstract_classes(source: str, module: str) -> set:
    """Qualified names of the classes in `source` with a method whose
    body, its docstring aside, is only `raise NotImplementedError`."""
    found = set()
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            body = method.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if (
                len(body) == 1
                and isinstance(body[0], ast.Raise)
                and "NotImplementedError" in referenced_names(body[0])
            ):
                found.add(f"{module}.{cls.name}")
    return found


def test_only_the_kept_interfaces_are_abstract():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= abstract_classes(path.read_text(), path.stem)
    assert found == ABSTRACT_INTERFACES
    snippet = (
        "class Base:\n    def f(self):\n        \"\"\"Doc.\"\"\"\n        raise NotImplementedError\n"
        "class Impl(Base):\n    def f(self):\n        raise NotImplementedError('no')\n"
        "        return 1\n"
        "class Other:\n    def g(self):\n        raise NotImplementedError()\n"
    )
    assert abstract_classes(snippet, "m") == {"m.Base", "m.Other"}


def test_regex_front_end_does_not_recurse():
    # Regexes nest past Python's recursion limit, so `lang` keeps its
    # pending work on explicit stacks.
    assert self_calls((PACKAGE / "lang.py").read_text()) == []
    assert self_calls("def f(r):\n    return [f(c) for c in r]\n") == ["f"]
    method = "class T:\n    def d(self, t):\n        return self.d(t - 1)\n"
    assert self_calls(method) == ["d"]


def test_every_definition_is_used_or_exported():
    assert [key for key in unreachable() if len(key) == 2] == []


def test_every_method_is_used():
    assert [key for key in unreachable() if len(key) == 3] == []


def test_what_only_dead_code_calls_is_dead():
    source = (
        "class C:\n    def live(self):\n        pass\n    def only_dead(self):\n        pass\n"
        "def main():\n    return C().live()\n"
        "def dead():\n    return helper(), C().only_dead()\n"
        "def helper():\n    pass\n"
    )
    assert unreachable({"m": source}, {("m", "main")}) == [
        ("m", "C", "only_dead"), ("m", "dead"), ("m", "helper"),
    ]


def test_a_class_attribute_is_used_like_a_method():
    # A plain class-level assignment is reached by its name as an
    # attribute; a dataclass field belongs to the class, as do dunders.
    source = (
        "@dataclass\nclass F:\n    size: int = 0\n"
        "class K:\n    __slots__ = ()\n    label = 'k'\n    used = spare = 1\n"
        "def main():\n    return K().used, F()\n"
    )
    assert unreachable({"m": source}, {("m", "main")}) == [("m", "K", "label"), ("m", "K", "spare")]


def test_a_bare_name_does_not_use_a_method():
    # A local function, a module function or a string of the method's
    # name reaches no method; an attribute or a `getattr` does.
    source = (
        "class D:\n    def step(self):\n        pass\n    def run(self):\n        pass\n"
        "    def part(self):\n        pass\n"
        "def run():\n    step = 1\n    return D, step, 'run', getattr(x, 'part')\n"
    )
    roots = {("m", "run")}
    assert unreachable({"m": source}, roots) == [("m", "D", "step"), ("m", "D", "run")]
    assert unreachable({"m": source + "y = x.step\n"}, roots) == [("m", "D", "run")]


def top_level_names(source: str) -> set:
    """The names a module's own top-level statements define: its
    functions, its classes and the targets of its assignments. A name
    it imports is not one of them."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def imported_modules(source: str) -> set:
    """The top-level names of the modules a source imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_test_modules_import_the_shared_fixtures():
    """`tests/gen.py` holds the shared fixtures, builders and counters,
    and `tests/oracles.py` the references and the rule checkers; a test
    module imports them rather than defining its own copy, and imports
    no other test module."""
    shared = top_level_names((TESTS / "gen.py").read_text())
    shared |= top_level_names((TESTS / "oracles.py").read_text())
    modules = sorted(TESTS.glob("test_*.py"))
    copies = {path.name: sorted(top_level_names(path.read_text()) & shared) for path in modules}
    assert {name: names for name, names in copies.items() if names} == {}
    tests = {path.stem for path in modules}
    imports = {path.name: sorted(imported_modules(path.read_text()) & tests) for path in modules}
    assert {name: names for name, names in imports.items() if names} == {}
    source = (
        "from gen import lang\nA, B = 1, 2\nC: int = 3\n"
        "class K:\n    D = 4\ndef f():\n    E = 5\n"
    )
    assert top_level_names(source) == {"A", "B", "C", "K", "f"}
    source = "import test_a, os.path\nfrom test_b import x\ndef f():\n    from test_c.d import y\n"
    assert imported_modules(source) == {"test_a", "os", "test_b", "test_c"}


# The modules a test file imports once, at module level: the package, the
# shared test modules and Hypothesis.
SHARED_MODULES = {"modhier", "gen", "oracles", "hypothesis"}


def call_time_imports(source: str) -> list:
    """The lines of a source that import one of `SHARED_MODULES` inside a
    function or another block rather than at module level."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if node.col_offset and any(n.split(".")[0] in SHARED_MODULES for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_shared_modules_are_imported_at_module_level():
    """A test module names what it takes from the package, the shared
    fixtures and Hypothesis in its header, not at call time. An import
    that needs a path set up first, such as the bench's `corpus`, stays."""
    found = {path.name: call_time_imports(path.read_text()) for path in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    source = (
        "import os\nfrom gen import fs\ndef f():\n    import json, corpus\n"
        "    from gen import lang\n    if True:\n        import modhier.lang\n"
        "    from hypothesis import assume\n"
    )
    assert call_time_imports(source) == [5, 7, 8]


# What README may name inside the package besides its modules and the
# names the root exports: the command line's entry points and the error
# every input fault raises.
README_NAMES = ENTRY_POINTS | {("errors", "InputError")}


def readme_internals(text: str, sources=None) -> list:
    """The dotted names in the inline code of `text` that point into the
    package at anything but a module, a name in `README_NAMES` or an
    exported name: `module.name` or `Class.member`, `modhier.` in front
    or not. Fenced code blocks are skipped, and a `.py` suffix names
    its module. `sources` maps module names to source text, the
    package's by default."""
    if sources is None:
        sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    owners = {name: module for module, source in sources.items() for name in top_level_names(source)}
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for dotted in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", re.sub(r"\.py\b", "", span)):
            parts = dotted.split(".")
            if parts[0] == "modhier":
                parts = parts[1:]
            if parts[0] in sources:
                target = tuple(parts)
            elif parts[0] in owners:
                target = (owners[parts[0]], *parts)
            else:
                continue
            exported = len(target) == 2 and target[1] in modhier.__all__
            if len(target) > 1 and target not in README_NAMES and not exported:
                found.append(dotted)
    return found


def test_readme_names_only_the_public_surface():
    """README states what a caller can observe; how the package works is
    for its docstrings, so README names no internal function, table or
    member."""
    readme = (TESTS.parent / "README.md").read_text()
    assert readme_internals(readme) == []
    sources = {
        "lang": "def explore():\n    pass\n",
        "errors": "class Budget:\n    pass\nclass InputError:\n    pass\n",
        "cli": "def run():\n    pass\nQUERY_OPTIONS = {}\n",
    }
    text = (
        "`modhier.lang`, `errors.Budget`, `modhier.errors.InputError`, `lang.explore`,\n"
        "`Budget.rounds()`, `modhier.cli.run`, `cli.QUERY_OPTIONS`, `lang.py`, `x.y`\n"
        "```python\nlang.explore()\n```\n"
    )
    assert readme_internals(text, sources) == ["lang.explore", "Budget.rounds", "cli.QUERY_OPTIONS"]
