"""Every name a package or test module imports is read in that module,
and every top-level function and class of the package is read outside its
own definition, in the package or in the benchmark harness.

The package's __init__.py is exempt: its imports are the package's public
names.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import occreid

PACKAGE = sorted(p for p in Path(occreid.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize(
    "path", PACKAGE + TESTS, ids=[p.name for p in PACKAGE] + [f"tests/{p.name}" for p in TESTS]
)
def test_every_import_is_read(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_guard_flags_an_unread_import():
    assert unused_imports("import math\nimport warnings\n\nmath.floor(1.5)\n") == [
        "warnings (line 2)"
    ]
    assert unused_imports("from a import b as c, d\n\nc()\n") == ["d (line 1)"]


def _reads(node) -> set:
    """Names read under node, bare or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def unread_definitions(package: dict, readers: list) -> list:
    """Top-level functions and classes of the `package` sources (name ->
    source) that nothing reads outside their own definition, in the
    package or in the `readers` sources."""
    statements = [(name, stmt) for name, src in package.items() for stmt in ast.parse(src).body]
    reads = [_reads(stmt) for _, stmt in statements]
    counts = Counter(name for r in reads for name in r)
    outside = set().union(*(_reads(ast.parse(src)) for src in readers))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{module}: {stmt.name}"
        for (module, stmt), r in zip(statements, reads)
        if isinstance(stmt, defs)
        and stmt.name not in outside
        and counts[stmt.name] == (stmt.name in r)
    ]


def test_every_definition_is_read():
    # code only the tests call is not part of the program; perfbench
    # traces and drives the package, so its reads count
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    unread = unread_definitions(package, [p.read_text(encoding="utf-8") for p in PERFBENCH])
    assert not unread, f"defined in the package but never read outside the tests: {unread}"


def test_guard_flags_an_unread_definition():
    package = {
        "a.py": "def used():\n    return _helper()\n\ndef _helper():\n    return 1\n",
        "b.py": "import a\n\ndef loop(n):\n    return loop(n)\n\nclass Lone: pass\n\na.used()\n",
    }
    # a function that only calls itself is unread; a reader's attribute counts
    assert unread_definitions(package, []) == ["b.py: loop", "b.py: Lone"]
    assert unread_definitions(package, ["import b\n\nb.Lone()\n"]) == ["b.py: loop"]
