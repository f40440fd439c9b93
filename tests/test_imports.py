"""Every name a package or test module imports is read in that module.

The package's __init__.py is exempt: its imports are the package's public
names.
"""

import ast
from pathlib import Path

import pytest

import occreid

PACKAGE = sorted(p for p in Path(occreid.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
