"""Per-node durable store: the chained log, its snapshot records, restore.

One :class:`NodeDurableStore` owns a directory ``<root>/node_<id>/``::

    events.log       the HMAC-chained JSONL event log
    events.log.head  the atomically-replaced head anchor {count, tag}

The write path is observation-only: the store records what the protocol
decided (evidence admissions, snapshot cuts) and never feeds a decision
back, so transcripts are byte-identical with persistence on or off.  A
snapshot is one more chained record: every ``snapshot_interval`` rounds
the node's consistent-cut inventory (evidence digest, heartbeat-store
size, mode pointer, quota ledger) is appended as ``persist-snapshot``.

The restore path (:meth:`load`) re-verifies the chain from genesis and
decodes every ``persist-evidence`` record of the verified prefix back
into its evidence item; the caller admits them into a fresh node.
Tampering (truncation, record bit-flips, chain splice) is surfaced as a
:class:`~repro.durability.chain.TamperDetected` inside the result -- the
corrupted suffix is *refused* (the on-disk log is rolled back to the
verified prefix, stage53-style safe rollback) and the caller decides how
loudly to react.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.chain import TamperDetected, derive_key
from repro.durability.log import ChainedEventLog, head_path
from repro.net.message import decode, encode
from repro.obs.events import (
    EV_PERSIST_EVIDENCE,
    EV_PERSIST_RESTORE,
    EV_PERSIST_SNAPSHOT,
)
from repro.obs.ioutil import atomic_write_text, ensure_parent_dir

LOG_NAME = "events.log"


@dataclass
class RestoreResult:
    """What :meth:`NodeDurableStore.load` recovered.

    ``evidence`` holds the decoded items of the verified log, in append
    order; ``snapshot_round`` is the round of its last ``persist-snapshot``
    record.  ``node`` is the node the restart installed (set by
    :meth:`~repro.core.runtime.ReboundSystem.restart_from_durable`).
    """

    node: Any = None
    snapshot_round: Optional[int] = None
    evidence: List[Any] = field(default_factory=list)
    verified_records: int = 0
    tampered: bool = False
    tamper_reason: Optional[str] = None
    refused_records: int = 0


class NodeDurableStore:
    """Owns one node's on-disk durable state (see module docstring).

    No open file handles are held: appends buffer in memory until
    :meth:`flush`.
    """

    def __init__(
        self,
        root_dir: str,
        node_id: int,
        seed: int = 0,
        snapshot_interval: int = 8,
    ):
        if snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        self.node_id = node_id
        self.snapshot_interval = snapshot_interval
        self.dir = os.path.join(root_dir, f"node_{node_id:04d}")
        self.key = derive_key(seed, node_id)
        self.log = ChainedEventLog(os.path.join(self.dir, LOG_NAME), self.key)
        self.timings: Dict[str, float] = {
            "append_s": 0.0,
            "appends": 0,
            "flush_s": 0.0,
            "flushes": 0,
            "snapshot_s": 0.0,
            "snapshots": 0,
            "restore_s": 0.0,
            "restores": 0,
        }
        ensure_parent_dir(os.path.join(self.dir, LOG_NAME))

    # -- write path (called from the node's hooks) ----------------------------

    def record_evidence(self, round_no: int, items: List[Any]) -> None:
        """Chain one ``persist-evidence`` record per newly admitted item.

        The record's ``enc`` field is the item's canonical codec encoding,
        so replay reconstructs the exact object (signatures included).
        """
        t0 = time.perf_counter()
        for item in items:
            self.log.append(
                EV_PERSIST_EVIDENCE,
                self.node_id,
                round_no,
                {"item": type(item).__name__, "enc": encode(item).hex()},
            )
            self.timings["appends"] += 1
        self.timings["append_s"] += time.perf_counter() - t0

    def end_round(self, node: Any, round_no: int) -> None:
        """Round-end hook: flush the log; chain a snapshot on the interval."""
        self.flush()
        if round_no > 0 and round_no % self.snapshot_interval == 0:
            self.snapshot(node, round_no)

    def flush(self) -> None:
        if self.log.pending == 0:
            return
        t0 = time.perf_counter()
        self.log.flush()
        self.timings["flushes"] += 1
        self.timings["flush_s"] += time.perf_counter() - t0

    def snapshot(self, node: Any, round_no: int) -> None:
        """Chain ``node``'s consistent-cut inventory as a ``persist-snapshot``
        record (docs/PROTOCOL.md S14).

        ``log_count`` is the number of records before this one, so it
        splits the log into "reflected in the manifest" and "after the cut".
        """
        t0 = time.perf_counter()
        self.log.append(
            EV_PERSIST_SNAPSHOT, self.node_id, round_no, self._manifest(node)
        )
        self.flush()
        self.timings["snapshots"] += 1
        self.timings["snapshot_s"] += time.perf_counter() - t0

    def _manifest(self, node: Any) -> Dict[str, Any]:
        """The human-auditable inventory of every store the node's state
        depends on, at the current log position."""
        fwd = node.forwarding
        scenario = node.current_scenario
        quotas = fwd.quotas
        return {
            "log_count": self.log.count,
            "evidence_digest": fwd.evidence.digest().hex(),
            "evidence_items": len(fwd.evidence),
            "heartbeat_records": len(fwd.store),
            "mode_pointer": {
                "failed_nodes": sorted(scenario.nodes),
                "failed_links": [list(link) for link in sorted(scenario.links)],
            },
            "quotas": {
                "suspects": sorted(quotas.suspects),
                "charged": quotas.total_charged,
                "dropped": quotas.total_dropped,
            },
        }

    # -- restore path ----------------------------------------------------------

    def verified_evidence(
        self,
    ) -> Tuple[List[Any], List[Dict[str, Any]], Optional[TamperDetected]]:
        """Flush, verify the chain, and decode the verified prefix.

        Returns ``(evidence, records, error)``: every ``persist-evidence``
        item of the verified prefix in append order, the prefix's records,
        and the tamper failure (None when the whole chain verifies).
        """
        self.flush()
        records, error = self.log.verified_prefix()
        evidence = [
            decode(bytes.fromhex(record["data"]["enc"]))
            for record in records
            if record["kind"] == EV_PERSIST_EVIDENCE
        ]
        return evidence, records, error

    def load(self) -> RestoreResult:
        """Verify the log and decode its evidence (see module docstring)."""
        t0 = time.perf_counter()
        evidence, records, error = self.verified_evidence()
        result = RestoreResult(evidence=evidence, verified_records=len(records))
        if error is not None:
            result.tampered = True
            result.tamper_reason = f"log: {error.reason}"
            result.refused_records = self._count_disk_records() - len(records)
            # Refuse the corrupted suffix: roll the on-disk log back to the
            # verified prefix so the continuation chains from known-good
            # state (stage53's safe rollback).
            self._rollback_to(records)
        else:
            self.log.resync()
        result.snapshot_round = next(
            (r["round"] for r in reversed(records) if r["kind"] == EV_PERSIST_SNAPSHOT),
            None,
        )
        self.timings["restores"] += 1
        self.timings["restore_s"] += time.perf_counter() - t0
        return result

    def record_restore(self, round_no: int, result: RestoreResult) -> None:
        """Chain a ``persist-restore`` marker (the rejoin audit trail)."""
        self.log.append(
            EV_PERSIST_RESTORE,
            self.node_id,
            round_no,
            {
                "snapshot_round": result.snapshot_round,
                "replayed": len(result.evidence),
                "tampered": result.tampered,
                "reason": result.tamper_reason,
            },
        )
        self.flush()

    # -- rollback helpers ------------------------------------------------------

    def _count_disk_records(self) -> int:
        try:
            with open(self.log.path) as fh:
                return sum(1 for line in fh if line.strip())
        except FileNotFoundError:
            return 0

    def _rollback_to(self, records: List[Dict[str, Any]]) -> None:
        lines = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        atomic_write_text(self.log.path, lines)
        tail = records[-1]["tag"] if records else ("00" * 32)
        atomic_write_text(
            head_path(self.log.path),
            json.dumps({"count": len(records), "tag": tail}) + "\n",
        )
        self.log.resync()
