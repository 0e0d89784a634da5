"""Guard: :mod:`repro.crypto` keeps no process-wide mutable state.

Verdict memos, body hashes and counters live per system, on the key
directory (:mod:`repro.core.identity`).  A module- or class-level dict,
list or set in ``repro.crypto`` -- or a ``global`` rebinding -- would be
shared by every system in the process, so one run's memo or counters could
leak into another's.  ``__all__`` is a declaration, not state.
"""

import ast
from pathlib import Path

import pytest

CRYPTO = Path(__file__).resolve().parent.parent / "src" / "repro" / "crypto"

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CALLS = {
    "dict", "list", "set", "bytearray", "OrderedDict", "defaultdict", "Counter", "deque",
}


def _is_mutable(value) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def _targets(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id if isinstance(t, ast.Name) else ast.unparse(t) for t in targets]


def offences(source: str):
    """(line, what) for every module- or class-level mutable container and
    every ``global`` statement in ``source``; function bodies are skipped,
    except for ``global``."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Global):
            found.append((node.lineno, "global " + ", ".join(node.names)))
        elif not in_function and isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            names = [name for name in _targets(node) if name != "__all__"]
            if names and node.value is not None and _is_mutable(node.value):
                found.append((node.lineno, " = ".join(names)))
        inner = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize(
    "path", sorted(CRYPTO.glob("*.py")), ids=lambda path: path.name
)
def test_no_process_wide_state(path):
    assert offences(path.read_text()) == []


def test_guard_flags_state():
    """The guard can fail: it names each kind of shared state."""
    source = (
        "from collections import OrderedDict\n"
        "_STATS: dict = {'batches': 0}\n"
        "_SEEN = set()\n"
        "_MEMO = OrderedDict()\n"
        "__all__ = ['fine']\n"
        "LIMIT = 3\n"
        "PRIMES = (2, 3)\n"
        "class C:\n"
        "    cache = []\n"
        "    def f(self):\n"
        "        local = {}\n"
        "        global LIMIT\n"
    )
    assert offences(source) == [
        (2, "_STATS"), (3, "_SEEN"), (4, "_MEMO"), (9, "cache"), (12, "global LIMIT"),
    ]
