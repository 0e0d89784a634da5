"""Sealed snapshots: a consistent cut of one node's protocol state.

File layout (binary)::

    4 bytes  big-endian header length H
    H bytes  header JSON: {"round", "manifest", "root", "seal"}
    rest     the state blob (pickled node, network handle detached)

``root`` is SHA-256 of the blob; ``seal`` is ``HMAC(key, domain || round
|| root || manifest)``.  Both are checked **before** the blob is
unpickled -- with the per-node key secret, a tampered blob is rejected at
the seal, so untrusted bytes never reach ``pickle.loads``.  The file
lands via temp-and-rename, so a crash mid-snapshot leaves the previous
snapshot intact.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from typing import Any, Dict, Tuple

from repro.durability.chain import TamperDetected
from repro.obs.ioutil import atomic_open

_SEAL_DOMAIN = b"rebound-snapshot-v1"


def _seal(key: bytes, round_no: int, root: bytes, manifest_json: bytes) -> bytes:
    material = (
        _SEAL_DOMAIN
        + int(round_no).to_bytes(8, "big", signed=True)
        + root
        + manifest_json
    )
    return hmac.new(key, material, hashlib.sha256).digest()


def write_snapshot(
    path: str, key: bytes, round_no: int, manifest: Dict[str, Any], blob: bytes
) -> str:
    """Atomically write a sealed snapshot; returns the root hash (hex)."""
    root = hashlib.sha256(blob).digest()
    manifest_json = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    header = json.dumps(
        {
            "round": round_no,
            "manifest": manifest,
            "root": root.hex(),
            "seal": _seal(key, round_no, root, manifest_json.encode()).hex(),
        },
        sort_keys=True,
    ).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(len(header).to_bytes(4, "big"))
        fh.write(header)
        fh.write(blob)
    return root.hex()


def read_snapshot(path: str, key: bytes) -> Tuple[int, Dict[str, Any], bytes]:
    """Read and verify a sealed snapshot: ``(round, manifest, blob)``.

    Raises :class:`TamperDetected` if the root hash or the HMAC seal fails
    (the blob is never unpickled by this function).
    """
    with open(path, "rb") as fh:
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise TamperDetected("snapshot header truncated")
        header_len = int.from_bytes(raw_len, "big")
        header_raw = fh.read(header_len)
        if len(header_raw) != header_len:
            raise TamperDetected("snapshot header truncated")
        try:
            header = json.loads(header_raw)
        except json.JSONDecodeError as exc:
            raise TamperDetected(f"snapshot header is not JSON: {exc}") from exc
        blob = fh.read()
    try:
        round_no = int(header["round"])
        manifest = header["manifest"]
        root = bytes.fromhex(header["root"])
        seal = bytes.fromhex(header["seal"])
    except (KeyError, ValueError, TypeError) as exc:
        raise TamperDetected("snapshot header malformed") from exc
    if hashlib.sha256(blob).digest() != root:
        raise TamperDetected("snapshot root hash mismatch")
    manifest_json = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    if not hmac.compare_digest(
        seal, _seal(key, round_no, root, manifest_json.encode())
    ):
        raise TamperDetected("snapshot seal (HMAC) mismatch")
    return round_no, manifest, blob

