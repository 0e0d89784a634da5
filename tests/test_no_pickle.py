"""No module under ``src/`` imports a deserialiser of untrusted bytes.

``pickle``, ``marshal`` and ``shelve`` turn bytes read from disk or a peer
into arbitrary objects, and ``pickle.loads`` runs code.  Durable state is
the chained log, decoded through the canonical wire codec, so none of the
three is needed.  A new import fails this test; an allowlist entry would
have to name the site and why its bytes are trusted.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
UNSAFE = {"pickle", "marshal", "shelve"}

ALLOWED = {}


def unsafe_imports(source: str):
    """(module, line) of every import of an unsafe deserialiser."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in UNSAFE:
                found.append((name, node.lineno))
    return sorted(found, key=lambda site: site[1])


def test_scanner_flags_every_import_form():
    source = (
        "import pickle\n"
        "import os, marshal\n"
        "from shelve import open\n"
        "def f():\n"
        "    import pickle as p\n"
        "from . import pickle\n"
        "import pickletools\n"
    )
    assert unsafe_imports(source) == [
        ("pickle", 1), ("marshal", 2), ("shelve", 3), ("pickle", 5)
    ]


def test_no_unsafe_deserialiser_under_src():
    sites = {
        f"{path.relative_to(SRC).as_posix()}:{line} ({name})"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in unsafe_imports(path.read_text())
    }
    assert sites == set(ALLOWED), f"unsafe deserialiser imported: {sorted(sites)}"
