"""No protocol or oracle window is written out by hand under ``src/``.

Every window -- message expiry, the Rule A--C suspensions, the admission
caps, the monitor's grace, ``r_max`` and the Req-S bound -- is derived once
in :mod:`repro.core.bounds` and read from the system's ``Bounds``.  This
test scans the code (not comments or strings) for window arithmetic; a
hit means a window is being derived a second time.  ``d_max`` itself may
appear as an operand only where it *is* the window (the coverage DP
horizon, the aggregate admission age).  ``sched/``, ``experiments/`` and
``plant/`` are outside the protocol and are not scanned.
"""

import io
import pathlib
import re
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SKIPPED = ("core/bounds.py", "sched/", "experiments/", "plant/")

WINDOW_ARITHMETIC = [
    re.compile(pattern)
    for pattern in (
        r"\bd_max [-+] \d+\b",
        r"\b\d+ [-+] (\w+ \. )*d_max\b",
        r"\b\d+ \* (\w+ \. )*d_max\b",
        r"\bd_max \* \d+\b",
        r"\baudit_interval \+",
        r"\b\d+ [-+] (\w+ \. )*audit_interval\b",
        r"\bjoined_round \+ 1\b",
        r"\blast_evidence_change \+ 2\b",
        r"stable_since \+ 4\b",
        r"_round \+ 2\b",
    )
]

_SKIP_TOKENS = {
    tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def window_arithmetic(source: str):
    """(line, code) of every logical line whose code -- comments and
    strings removed, tokens joined by single spaces -- spells a window."""
    found = []
    words, start = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            code = " ".join(words)
            if any(p.search(code) for p in WINDOW_ARITHMETIC):
                found.append((start, code))
            words, start = [], None
        elif tok.type not in _SKIP_TOKENS:
            if start is None:
                start = tok.start[0]
            words.append(tok.string)
    return found


def test_scanner_flags_every_pattern_and_skips_comments_and_strings():
    source = (
        "a = self.d_max + 2\n"
        "b = 2 * self.d_max\n"
        "c = (2 * audit_interval\n"
        "     + d_max)\n"
        "d = r <= obs.joined_round + 1\n"
        "e = obs.last_evidence_change + 2\n"
        "f = paths_stable_since + 4\n"
        "g = max(p, self._round + 2)\n"
        "h = d_max - 1\n"
        "# d_max + 2 in a comment\n"
        "i = 'd_max + 2 in a string'\n"
        "j = self._resolve_d_max() + 1\n"
        "k = self._round + 20\n"
        "m = bounds.expiry_window + 1\n"
        "n = 2 + d_max\n"
        "o = 4 + self.d_max\n"
        "p = r - 1 - self.d_max\n"
        "q = 1 + config.audit_interval\n"
        "s = d_max_of(x) + 1\n"
    )
    assert [line for line, _ in window_arithmetic(source)] == [
        1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 17, 18
    ]


def test_no_window_arithmetic_under_src():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(SKIPPED):
            continue
        for line, code in window_arithmetic(path.read_text()):
            hits.append(f"{rel}:{line}: {code}")
    assert hits == [], "window derived outside core/bounds.py:\n" + "\n".join(hits)
