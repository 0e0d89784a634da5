"""HMAC-chain primitives for the durable event log.

The construction (PeerReview-style tamper-evident logs): each record's
authenticator is ``HMAC(key, prev_tag || canonical_body)``, where
``prev_tag`` is the previous record's authenticator and the genesis value
is 32 zero bytes.  Any in-place modification, reorder, or cross-log splice
breaks the recomputed chain at the first affected record; truncation to a
flush boundary is caught by the separately-anchored head commitment (see
:mod:`repro.durability.log`).

The key is derived per node from the deployment seed, so it is
re-derivable after a process restart without any key escrow, and a log
written under one node's key can never verify under another's (splice
resistance across nodes).
"""

from __future__ import annotations

import hashlib
import hmac
import json
from typing import Any, Dict, Optional

#: The chain's genesis "previous tag": 32 zero bytes.
GENESIS = b"\x00" * 32

#: Domain-separation prefix for key derivation; bump on format changes.
_KEY_DOMAIN = b"rebound-durability-v1"

#: Record fields covered by the authenticator (everything but the chain
#: fields themselves).
BODY_FIELDS = ("kind", "name", "node", "round", "seq", "data")


class TamperDetected(Exception):
    """Chain verification failed: the durable state was modified on disk.

    ``index`` is the first record index that fails verification (None for
    whole-file problems like a truncated log or a stranded head anchor);
    everything before ``index`` is the verified prefix and may be trusted.
    """

    def __init__(self, reason: str, index: Optional[int] = None):
        super().__init__(
            reason if index is None else f"{reason} (record {index})"
        )
        self.reason = reason
        self.index = index


def derive_key(seed: int, node_id: int) -> bytes:
    """Per-node log key: a deterministic function of (deployment seed, id)."""
    material = (
        _KEY_DOMAIN
        + int(seed).to_bytes(8, "big", signed=True)
        + int(node_id).to_bytes(8, "big")
    )
    return hashlib.sha256(material).digest()


def canonical_body(record: Dict[str, Any]) -> bytes:
    """The byte string the authenticator covers: the record's schema fields
    in canonical JSON (sorted keys, no whitespace), chain fields excluded.

    Canonicalization matters: the same record must produce the same bytes
    whether it was just built or round-tripped through the JSONL file.
    """
    body = {field: record[field] for field in BODY_FIELDS if field in record}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def chain_tag(key: bytes, prev: bytes, body: bytes) -> bytes:
    """``HMAC-SHA256(key, prev_tag || body)`` -- one chain link."""
    return hmac.new(key, prev + body, hashlib.sha256).digest()


def tags_equal(a: bytes, b: bytes) -> bool:
    """Constant-time tag comparison (verification must not leak prefixes)."""
    return hmac.compare_digest(a, b)
