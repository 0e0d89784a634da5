"""The append-only, HMAC-chained event log.

Records are :mod:`repro.obs.events` schema dicts -- the durable log is a
persistence backend for the flight-recorder format, so every line also
passes ``repro.obs.events.validate_record`` -- extended with two chain
fields:

* ``prev`` -- hex of the previous record's authenticator (genesis: 32
  zero bytes);
* ``tag`` -- hex of ``HMAC(key, prev || canonical_body)``.

Appends buffer in memory and land with one durable write per flush (the
node flushes once per round); each flush atomically replaces the **head
anchor** file ``<log>.head`` holding ``{"count": n, "tag": ...}``.  The
anchor is the truncation defense: a pure hash chain verifies fine after
its tail is cut at a record boundary, but the anchor still names the tag
the chain must reach.  The anchor stands in for an operator-held
commitment -- the tamper model is an adversary with write access to the
log file, not to the operator's anchor (and even an anchor rewrite cannot
forge tags for *modified* records without the key).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.chain import (
    GENESIS,
    TamperDetected,
    canonical_body,
    chain_tag,
    tags_equal,
)
from repro.obs.events import EVENT_NAMES, EVENT_SCHEMA_VERSION
from repro.obs.ioutil import append_lines, atomic_write_text


def head_path(log_path: str) -> str:
    return log_path + ".head"


class ChainedEventLog:
    """One node's append-only chained log (see module docstring).

    The in-memory tail (``count``, last tag) is authoritative between
    flushes; :meth:`resync` re-derives it from a verified on-disk chain
    after a restart.
    """

    def __init__(self, path: str, key: bytes):
        self.path = path
        self.key = key
        self.count = 0
        self._tail = GENESIS
        self._buffer: List[str] = []
        #: per-round sequence counter (the obs-schema ``seq`` field).
        self._seq_round = -1
        self._seq = 0

    # -- appending -----------------------------------------------------------

    def append(
        self, kind: int, node: int, round_no: int, data: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Chain one schema event; buffered until :meth:`flush`."""
        if round_no != self._seq_round:
            self._seq_round = round_no
            self._seq = 0
        record: Dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "name": EVENT_NAMES[kind],
            "node": node,
            "round": round_no,
            "seq": self._seq,
            "data": data,
        }
        self._seq += 1
        tag = chain_tag(self.key, self._tail, canonical_body(record))
        record["prev"] = self._tail.hex()
        record["tag"] = tag.hex()
        self._tail = tag
        self.count += 1
        self._buffer.append(json.dumps(record, sort_keys=True))
        return record

    @property
    def pending(self) -> int:
        """Buffered records not yet on disk."""
        return len(self._buffer)

    def flush(self) -> None:
        """Append buffered records, then atomically re-anchor the head."""
        if not self._buffer:
            return
        lines, self._buffer = self._buffer, []
        append_lines(self.path, lines)
        atomic_write_text(
            head_path(self.path),
            json.dumps({"count": self.count, "tag": self._tail.hex()}) + "\n",
        )

    # -- verification / restore ----------------------------------------------

    def read_head(self) -> Optional[Dict[str, Any]]:
        try:
            with open(head_path(self.path)) as fh:
                head = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError) as exc:
            raise TamperDetected(f"unreadable head anchor: {exc}") from exc
        if not isinstance(head, dict) or "count" not in head or "tag" not in head:
            raise TamperDetected("malformed head anchor")
        try:
            head["count"] = int(head["count"])
            bytes.fromhex(head["tag"])
        except (ValueError, TypeError) as exc:
            raise TamperDetected("malformed head anchor") from exc
        return head

    def verify(self) -> List[Dict[str, Any]]:
        """Recompute the whole chain against the on-disk log + anchor.

        Returns the verified records.  Raises :class:`TamperDetected` on
        the first record whose recomputed tag, prev link, or body fails,
        or when the chain stops short of the anchored (count, tag).
        """
        head = self.read_head()
        records: List[Dict[str, Any]] = []
        prev = GENESIS
        anchored_ok = head is None or (
            head["count"] == 0 and tags_equal(GENESIS, bytes.fromhex(head["tag"]))
        )
        try:
            fh = open(self.path)
        except FileNotFoundError:
            if head is not None and head["count"] > 0:
                raise TamperDetected("log file missing but anchor expects records")
            return []
        with fh:
            for index, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TamperDetected(
                        f"record is not JSON: {exc}", index=index
                    ) from exc
                try:
                    rec_prev = bytes.fromhex(record["prev"])
                    rec_tag = bytes.fromhex(record["tag"])
                except (KeyError, ValueError, TypeError) as exc:
                    raise TamperDetected(
                        "record is missing chain fields", index=index
                    ) from exc
                if not tags_equal(rec_prev, prev):
                    raise TamperDetected("prev-digest link broken", index=index)
                expected = chain_tag(self.key, prev, canonical_body(record))
                if not tags_equal(rec_tag, expected):
                    raise TamperDetected("record HMAC mismatch", index=index)
                prev = rec_tag
                records.append(record)
                if (
                    head is not None
                    and len(records) == head["count"]
                    and tags_equal(rec_tag, bytes.fromhex(head["tag"]))
                ):
                    # Records past the anchor are a benign flush race
                    # (lines land before the anchor is replaced), and their
                    # HMACs still prove authenticity.
                    anchored_ok = True
        if head is not None and not anchored_ok:
            raise TamperDetected(
                f"chain has {len(records)} record(s) but never reaches the "
                f"anchored state (count={head['count']})"
            )
        return records

    def verified_prefix(
        self,
    ) -> Tuple[List[Dict[str, Any]], Optional[TamperDetected]]:
        """Best-effort verification: the longest verified prefix plus the
        failure (None when the whole chain verifies).

        The restore path uses this to *refuse the corrupted suffix* while
        still replaying everything provably authentic.
        """
        try:
            return self.verify(), None
        except TamperDetected as exc:
            # A whole-file failure (truncation/anchor, no index) still
            # leaves every record that chains from genesis trustworthy.
            return self._prefix_ignoring_anchor(stop_at=exc.index), exc

    def _prefix_ignoring_anchor(
        self, stop_at: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        prev = GENESIS
        try:
            fh = open(self.path)
        except FileNotFoundError:
            return []
        with fh:
            for index, line in enumerate(fh):
                if stop_at is not None and index >= stop_at:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    rec_prev = bytes.fromhex(record["prev"])
                    rec_tag = bytes.fromhex(record["tag"])
                except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                    break
                if not tags_equal(rec_prev, prev):
                    break
                if not tags_equal(
                    rec_tag, chain_tag(self.key, prev, canonical_body(record))
                ):
                    break
                prev = rec_tag
                records.append(record)
        return records

    def resync(self) -> List[Dict[str, Any]]:
        """Verify the on-disk chain and adopt its tail as the in-memory
        state (post-restart continuation point).  Raises on tamper."""
        records = self.verify()
        self._buffer = []
        self.count = len(records)
        self._tail = (
            bytes.fromhex(records[-1]["tag"]) if records else GENESIS
        )
        if records:
            last = records[-1]
            self._seq_round = last["round"]
            self._seq = last["seq"] + 1
        else:
            self._seq_round = -1
            self._seq = 0
        return records

    def exists(self) -> bool:
        return os.path.exists(self.path)
