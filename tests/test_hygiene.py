"""Static checks on the package sources, and a run of the README's library
example."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import cutgroups
from cutgroups import constructions, group
from cutgroups.group import PermGroup

MODULES = sorted(
    p for p in Path(cutgroups.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads('0'))\n"
    assert unused_imports(source) == ["os (line 1)", "dumps (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level defs and classes, given each module's source by name,
    that no other top-level statement of the package reads, that
    ``__init__`` does not import, and that no decorator defined in the
    package registers."""
    definitions = []  # (module, name, statement)
    reads = []  # (statement, names it reads)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node))
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if module == "__init__" and isinstance(node, ast.ImportFrom):
                names |= {alias.asname or alias.name for alias in node.names}
            reads.append((node, names))
    defined = {name for _, name, _ in definitions}

    def registered(node) -> bool:
        decorators = (
            d.func if isinstance(d, ast.Call) else d for d in node.decorator_list
        )
        return any(isinstance(d, ast.Name) and d.id in defined for d in decorators)

    return [
        f"{module}.{name}"
        for module, name, node in definitions
        if not registered(node)
        and not any(name in names for other, names in reads if other is not node)
    ]


def test_definition_scanner_finds_an_unreferenced_def():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported(): pass\n"
            "def helper(): return helper()\n"
            "def used(): pass\n"
            "class Orphan: pass\n"
            "def register(f): return f\n"
            "@register\ndef bare(): pass\n"
            "def check(name): return register\n"
            "@check('x')\ndef called(): pass\n"
            "@staticmethod\ndef foreign(): pass\n"
        ),
        "b": "from .a import used\nused()\n",
    }
    assert unreferenced_definitions(sources) == ["a.helper", "a.Orphan", "a.foreign"]


def unreferenced_members(sources: dict[str, str], inherited) -> list[str]:
    """Methods and properties of the module-level classes, given each
    module's source by name, whose name no statement of the package reads
    as an attribute.  Dunders are exempt, and so is a member whose name
    ``inherited(module, class name)`` lists: an override of a base class's
    attribute, which the base's callers read."""
    members = []  # (module, class, name)
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members.extend(
                    (module, node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [
        f"{module}.{cls}.{name}"
        for module, cls, name in members
        if not (name.startswith("__") and name.endswith("__"))
        and name not in read
        and name not in inherited(module, cls)
    ]


def test_member_scanner_finds_an_unread_member():
    sources = {
        "a": (
            "class Base:\n"
            "    def hook(self): pass\n"
            "    def orphan(self): pass\n"
            "    def __len__(self): return 0\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "class Child(Base):\n"
            "    def hook(self): pass\n"
            "    @classmethod\n"
            "    def make(cls): return cls()\n"
        ),
        "b": "from .a import Child\nChild.make().size\n",
    }
    inherited = {("a", "Base"): set(), ("a", "Child"): {"hook", "orphan", "size"}}
    assert unreferenced_members(sources, lambda m, c: inherited[m, c]) == [
        "a.Base.hook", "a.Base.orphan"
    ]


def base_attributes(module: str, cls: str) -> set[str]:
    """Every attribute name the bases of the package class ``cls`` have."""
    found = getattr(importlib.import_module(f"cutgroups.{module}"), cls)
    return {name for base in found.__mro__[1:] for name in dir(base)}


# Members no package statement reads, each with the reason it stays.
UNREAD_MEMBERS = [
    # the benchmark's traced runs count enumerations through this span
    # (perfbench/spans.py); it can move to tests/oracles.py once the span goes
    "group.PermGroup.elements",
]


def test_every_definition_is_referenced():
    package = Path(cutgroups.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert unreferenced_definitions(sources) == []
    assert unreferenced_members(sources, base_attributes) == UNREAD_MEMBERS


MEMO_DECORATORS = {"cached_property", "cache", "lru_cache"}


def memo_members(source: str, cls: str) -> list[str]:
    """Members of the module-level class ``cls`` that a functools memo
    decorates, called or not, bare or through ``functools.``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                for deco in getattr(item, "decorator_list", []):
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in MEMO_DECORATORS:
                        found.append(f"{cls}.{item.name} (line {deco.lineno})")
    return found


def test_scanner_finds_a_memo_member():
    source = (
        "import functools\n"
        "@functools.lru_cache\n"
        "def units(n): pass\n"
        "class Analysis:\n"
        "    @cached_property\n"
        "    def table(self): pass\n"
        "    @property\n"
        "    @functools.cache\n"
        "    def classes(self): pass\n"
        "    @lru_cache(maxsize=2)\n"
        "    def sylow(self, p): pass\n"
        "    @property\n"
        "    @_fact\n"
        "    def report(self): pass\n"
        "class Other:\n"
        "    @cached_property\n"
        "    def x(self): pass\n"
    )
    assert memo_members(source, "Analysis") == [
        "Analysis.table (line 5)", "Analysis.classes (line 8)", "Analysis.sylow (line 10)"
    ]


def test_analysis_has_one_memo():
    # every fact goes through rationality._fact into Analysis.facts
    source = (Path(cutgroups.__file__).parent / "rationality.py").read_text(encoding="utf-8")
    assert memo_members(source, "Analysis") == []


def private_group_imports(source: str) -> list[str]:
    """Underscore-prefixed names a module imports from ``cutgroups.group``:
    chain handling stays inside group.py."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in {("group", 1), ("cutgroups.group", 0)}
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scanner_finds_a_private_group_import():
    source = (
        "from .group import PermGroup, _Chain\n"
        "from cutgroups.group import _share_chain\n"
        "from .perm import _private\n"
        "from .structure import group\n"
    )
    assert private_group_imports(source) == ["_Chain (line 1)", "_share_chain (line 2)"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "group.py"], ids=lambda p: p.name
)
def test_no_private_group_imports(path):
    assert private_group_imports(path.read_text(encoding="utf-8")) == []


def test_traced_permgroup_methods_exist():
    # the benchmark's traced runs patch each ("group", "PermGroup.x") span
    # through PermGroup.__dict__ with no fallback, so a method folded away or
    # renamed would end every traced run with a KeyError
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    methods = [
        attr.split(".", 1)[1]
        for module, attr in spans.SPAN_TARGETS
        if module == "group" and attr.startswith("PermGroup.")
    ]
    assert methods
    assert [m for m in methods if m not in PermGroup.__dict__] == []


# the names a test may call to build a group: the constructions and group
# functions that return one, the class itself and the corpus parser
GROUP_BUILDERS = {
    name
    for module in (constructions, group)
    for name, f in vars(module).items()
    if inspect.isfunction(f) and f.__annotations__.get("return") in ("PermGroup", PermGroup)
} | {"PermGroup", "parse_corpus"}


def called_name(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def eager_group_parameters(source: str) -> list[str]:
    """Calls of a group builder in the arguments of a ``parametrize``, outside
    a lambda.  Each builds its group when the module is imported, so a chain
    build that never ends would hang the collection of the whole module
    before any test could fail; a builder lambda builds it in its test."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and called_name(node.func) == "parametrize"):
            continue
        stack = [*node.args, *(keyword.value for keyword in node.keywords)]
        while stack:
            arg = stack.pop()
            if isinstance(arg, ast.Lambda):
                continue
            if isinstance(arg, ast.Call) and called_name(arg.func) in GROUP_BUILDERS:
                found.append((arg.lineno, f"{called_name(arg.func)} (line {arg.lineno})"))
            stack.extend(ast.iter_child_nodes(arg))
    return [name for _, name in sorted(found)]


def test_scanner_finds_an_eager_group_parameter():
    source = (
        "@pytest.mark.parametrize('G', [symmetric(4), lambda: cyclic(3)])\n"
        "def test_a(G): pass\n"
        "@parametrize('make,p', [(lambda: alternating(5), 2)], ids=[str(PermGroup)])\n"
        "def test_b(make, p): pass\n"
        "pytestmark = pytest.mark.parametrize(\n"
        "    'r', [pytest.param(r, id=r.id) for r in parse_corpus(path)])\n"
        "@pytest.mark.parametrize('n', [cyclic(2).order(), group.trivial_group(1)])\n"
        "def test_c(n): pass\n"
        "GROUPS = [symmetric(5)]\n"
    )
    assert eager_group_parameters(source) == [
        "symmetric (line 1)", "parse_corpus (line 6)", "cyclic (line 7)",
        "trivial_group (line 7)",
    ]


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).resolve().parent.glob("*.py")), ids=lambda p: p.name
)
def test_parametrized_groups_are_built_in_their_tests(path):
    assert eager_group_parameters(path.read_text(encoding="utf-8")) == []


def threading_imports(source: str) -> list[str]:
    """The lines that import ``threading``, at any depth.  A group builds
    its chain in its constructor and never changes after, so no package
    object needs a lock."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "threading" for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_scanner_finds_a_threading_import():
    source = (
        "import os, threading as t\n"
        "from threading import Lock\n"
        "from .threading import local\n"
        "from json import threading\n"
        "def f():\n"
        "    import threading\n"
    )
    assert threading_imports(source) == ["line 1", "line 2", "line 6"]


@pytest.mark.parametrize(
    "path", sorted(Path(cutgroups.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_threading_imports(path):
    assert threading_imports(path.read_text(encoding="utf-8")) == []


def repr_conversions(source: str) -> list[str]:
    """Each f-string ``!r`` conversion, named by its enclosing class and
    function.  A refusal shows user input through ``errors.excerpt``, which
    bounds it; ``!r`` would echo the input whole."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.FormattedValue) and child.conversion == ord("r"):
                found.append(f"{'.'.join(scope) or '<module>'} (line {child.lineno})")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_scanner_finds_a_repr_conversion():
    source = (
        "x = f'{1!r}'\n"
        "class A:\n"
        "    def f(self, y):\n"
        "        return f'{y!s} {y!a} {y}', f'{y!r}'\n"
    )
    assert repr_conversions(source) == ["<module> (line 1)", "A.f (line 4)"]


@pytest.mark.parametrize(
    "path", sorted(Path(cutgroups.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_repr_conversions_but_permutation_repr(path):
    allowed = ["Permutation.__repr__"] if path.name == "perm.py" else []
    found = repr_conversions(path.read_text(encoding="utf-8"))
    assert [f.split(" ")[0] for f in found] == allowed


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
