"""No broad ``except`` under ``src/`` outside an allowlist with reasons.

A handler that catches ``Exception``, ``BaseException`` or everything (a
bare ``except:``) turns a bug into a silent fallback.  Each remaining site
is listed below, keyed by file and enclosing function so the list survives
unrelated edits, with the reason it is allowed.  A new site fails this
test; so does an entry whose site has gone.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
BROAD = {"Exception", "BaseException"}

ALLOWED = {
    ("repro/chaos/campaign.py", "run_cell"):
        '"never crash" is the campaign\'s invariant: a crash is a recorded outcome',
    ("repro/obs/ioutil.py", "atomic_open"):
        "removes the temporary file and re-raises",
    ("repro/core/auditing.py", "_replay_full"):
        "pending: task logic errors read as a garbage bundle (refuse item)",
}


def broad_handlers(source: str):
    """(enclosing function or None, line) of every broad handler."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.ExceptHandler):
                caught = child.type
                types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
                if caught is None or any(
                    isinstance(t, ast.Name) and t.id in BROAD for t in types
                ):
                    found.append((function, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def _sites():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for function, line in broad_handlers(path.read_text()):
            sites.setdefault((rel, function), []).append(line)
    return sites


def test_scanner_flags_bare_broad_and_tuple_handlers():
    source = (
        "def f():\n"
        "    try: pass\n"
        "    except: pass\n"
        "    try: pass\n"
        "    except (ValueError, BaseException): pass\n"
        "try: pass\n"
        "except Exception as exc: pass\n"
        "try: pass\n"
        "except ValueError: pass\n"
    )
    assert broad_handlers(source) == [("f", 3), ("f", 5), (None, 7)]


def test_no_broad_except_outside_allowlist():
    sites = _sites()
    unlisted = {
        f"{rel}:{line} ({function})"
        for (rel, function), lines in sites.items()
        if (rel, function) not in ALLOWED
        for line in lines
    }
    assert not unlisted, f"broad except outside the allowlist: {sorted(unlisted)}"
    stale = set(ALLOWED) - set(sites)
    assert not stale, f"allowlist entries with no broad except left: {sorted(stale)}"
