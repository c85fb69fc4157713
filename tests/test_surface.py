"""The library surface: every public name in ``src/evosq`` has a caller outside the tests,
and every imported name is read where it is imported.

A module-level public ``def`` or ``class``, and a public method or property
of such a class, must be referenced from ``src/``, ``demos/`` or
``bench/*.py``: by a name, an attribute, an import alias, or (in ``bench/``,
whose tracer wraps functions by name) a string. Reference implementations
that only the tests need live in ``tests/oracles.py``. The match is by name
alone, so a member named like a numpy attribute (a ``.T`` property, say)
is invisible to it: any transpose counts as its caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions():
    for path in sorted((ROOT / "src" / "evosq").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name


def _references(paths, strings=False):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    code = [*(ROOT / "src" / "evosq").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = _references(code) | _references((ROOT / "bench").glob("*.py"), strings=True)
    defined = dict(_public_definitions())
    unused = sorted(q for q, name in defined.items() if name not in used)
    assert not unused, f"no caller outside the tests: {', '.join(unused)}"


def _unread_imports(path):
    """Names that ``path`` imports and never reads; a string in ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - read)


def test_every_imported_name_is_read():
    paths = [*(ROOT / "src" / "evosq").glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    unread = [f"{p.relative_to(ROOT)}: {name}" for p in sorted(paths) for name in _unread_imports(p)]
    assert not unread, f"imported and never read: {', '.join(unread)}"
