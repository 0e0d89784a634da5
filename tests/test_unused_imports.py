"""Guard: every module-level import under ``src/repro`` is used.

An import nothing in its module references is dead weight: it costs import
time, hides the module's real dependencies and survives every refactor that
removed its last use.  Package ``__init__.py`` files re-export by importing,
``from __future__`` imports are directives, and a name listed in
``__all__`` is exported on purpose, so all three are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(tree):
    """Import statements outside any function or class body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))


def _bound_names(node):
    """(line, bound name) per imported alias."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        name = alias.asname or alias.name.split(".")[0]
        yield node.lineno, name


def _annotation_strings(tree):
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _referenced(tree):
    """Every name the module reads, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            quoted = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str):
    """(line, name) for every module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = _referenced(tree) | _exported(tree)
    return [
        (line, name)
        for node in _module_imports(tree)
        for line, name in _bound_names(node)
        if name not in used
    ]


MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_unused_imports():
    """The guard can fail: it names each unused binding and nothing else."""
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Dict, Optional, TYPE_CHECKING\n"
        "from dataclasses import dataclass, field\n"
        "from re import compile\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['compile']\n"
        "@dataclass\n"
        "class C:\n"
        "    price: 'Decimal'\n"
        "    def f(self) -> Dict[str, int]:\n"
        "        import sys\n"
        "        return {}\n"
    )
    assert unused_imports(source) == [
        (2, "os"), (3, "os"), (4, "js"), (5, "Optional"), (6, "field"),
    ]
