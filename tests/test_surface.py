"""The library surface: every public name in ``src/evosq`` has a caller outside the tests.

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
# the subject of acceptance criterion 12, which the tests run and no scenario does
ALLOWED = {"coercivity_probe"}


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
    unused = sorted(q for q, name in defined.items() if name not in used | ALLOWED)
    assert not unused, f"no caller outside the tests: {', '.join(unused)}"
    # the allowlist names a defined name that still has no caller
    assert ALLOWED <= set(defined.values()) and not ALLOWED & used
