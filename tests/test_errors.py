"""Every error type in occreid.errors is raised or warned by the package."""

import ast
import inspect
from pathlib import Path

import occreid
from occreid import errors


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_names():
    """Names the package outside errors.py raises or passes to warnings.warn."""
    names = set()
    for path in Path(occreid.__file__).parent.rglob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(_name(exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                names.update(_name(a) for a in node.args[1:] + [k.value for k in node.keywords])
    return names


def test_every_error_type_is_raised():
    # a type other error types derive from is used through them
    types = [
        c
        for _, c in inspect.getmembers(errors, inspect.isclass)
        if c.__module__ == errors.__name__ and issubclass(c, BaseException)
    ]
    bases = {b for c in types for b in c.__bases__}
    raised = raised_names()
    unused = [c.__name__ for c in types if c not in bases and c.__name__ not in raised]
    assert not unused, f"never raised or warned outside errors.py: {unused}"
