"""Every definition in the package has a reader.

A function, method, property or class defined under ``src/`` that no
code in ``src/`` or ``tests/`` names is dead code. A reader is a name
load, an attribute access or an import alias; a string that spells the
name (a report key, an ``__all__`` entry) is not one.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _readers(trees) -> set[str]:
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def _definitions(trees):
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                yield f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"


def test_every_definition_in_src_is_read_somewhere():
    src = list(_trees("src"))
    readers = _readers(src + list(_trees("tests")))
    unread = [where for where in _definitions(src)
              if where.rpartition(" ")[2] not in readers]
    assert unread == []
