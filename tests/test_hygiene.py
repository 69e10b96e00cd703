"""Static checks on the package sources."""

import ast
import importlib.util
from pathlib import Path

import pytest

import cutgroups
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


def test_every_definition_is_referenced():
    package = Path(cutgroups.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in package.glob("*.py")}
    assert unreferenced_definitions(sources) == []


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
