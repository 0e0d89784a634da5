"""Crash-safe file output shared by exporters and the durability layer.

Artifact writers (flight-recorder exports, BENCH reports, log rollbacks,
chain-head anchors) must never leave a torn file behind: a reader that
races a mid-write crash would see half a JSON document and misdiagnose the
run.  The standard fix is write-to-temp + ``os.replace`` -- the rename is
atomic on POSIX, so the destination either holds the old content or the
complete new content, never a prefix.

Stdlib-only so :mod:`repro.obs` and :mod:`repro.durability` can both import
it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


def ensure_parent_dir(path: str) -> None:
    """Create the directory that will hold ``path`` (and any ancestors)."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


@contextmanager
def atomic_open(path: str, mode: str = "w") -> Iterator[IO]:
    """Open a temp file next to ``path``; atomically rename on clean exit.

    Missing parent directories are created.  On an exception inside the
    block the temp file is removed and the destination is untouched --
    exactly the "campaign artifact dumps can't be torn" guarantee.  The
    temp name embeds the pid so concurrent processes exporting to the same
    destination cannot clobber each other's in-progress file.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_open only supports fresh writes, not {mode!r}")
    ensure_parent_dir(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp_path, mode)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp_path, path)
    except BaseException:
        fh.close()
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (parent dirs created)."""
    with atomic_open(path) as fh:
        fh.write(text)


def append_lines(path: str, lines: list) -> None:
    """Append text lines to ``path`` with one durable write.

    Not a replace: append-only logs (the hash-chained event log) grow in
    place; the accompanying head anchor is what gets atomically replaced.
    """
    ensure_parent_dir(path)
    with open(path, "a") as fh:
        for line in lines:
            fh.write(line)
            if not line.endswith("\n"):
                fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
