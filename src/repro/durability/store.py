"""Per-node durable store: chained log + sealed snapshots + restore.

One :class:`NodeDurableStore` owns a directory ``<root>/node_<id>/``::

    events.log       the HMAC-chained JSONL event log
    events.log.head  the atomically-replaced head anchor {count, tag}
    snapshot.bin     the latest sealed snapshot (temp-and-rename)

The write path is observation-only: the store records what the protocol
decided (evidence admissions, snapshot cuts) and never feeds a decision
back, so transcripts are byte-identical with persistence on or off.

The restore path (:meth:`load`) rebuilds ``snapshot + chained suffix``:
the snapshot blob is seal-verified and unpickled, the log chain is
re-verified from genesis, and every ``persist-evidence`` record past the
snapshot's anchored log position is decoded back into an evidence item
for replay.  Tampering (truncation, record bit-flips, chain splice) is
surfaced as a :class:`~repro.durability.chain.TamperDetected` inside the
result -- the corrupted suffix is *refused* (the on-disk log is rolled
back to the verified prefix, stage53-style safe rollback) and the caller
decides how loudly to react.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durability.chain import TamperDetected, derive_key
from repro.durability.log import ChainedEventLog, head_path
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.net.message import decode, encode
from repro.obs.events import (
    EV_PERSIST_EVIDENCE,
    EV_PERSIST_RESTORE,
    EV_PERSIST_SNAPSHOT,
)
from repro.obs.ioutil import atomic_write_text, ensure_parent_dir

LOG_NAME = "events.log"
SNAPSHOT_NAME = "snapshot.bin"


@dataclass
class RestoreResult:
    """What :meth:`NodeDurableStore.load` recovered.

    ``node`` is the unpickled snapshot node (None when no usable snapshot
    exists -- the caller provisions a fresh node and replays everything);
    ``evidence`` holds the decoded items of the verified chained suffix,
    in append order.
    """

    node: Any = None
    snapshot_round: Optional[int] = None
    manifest: Optional[Dict[str, Any]] = None
    evidence: List[Any] = field(default_factory=list)
    suffix_records: int = 0
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
        self.snapshot_path = os.path.join(self.dir, SNAPSHOT_NAME)
        #: log position (record count) covered by the latest snapshot.
        self.snapshot_log_count = 0
        self.timings: Dict[str, float] = {
            "append_s": 0.0,
            "appends": 0,
            "flush_s": 0.0,
            "flushes": 0,
            "snapshot_s": 0.0,
            "snapshots": 0,
            "snapshot_bytes": 0,
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
        """Round-end hook: flush the log; cut a snapshot on the interval."""
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

    def snapshot(self, node: Any, round_no: int) -> str:
        """Seal a consistent cut of ``node``'s state; returns the root hash.

        The log is flushed first so the snapshot's anchored log position
        (``log_count``) cleanly splits "reflected in the snapshot" from
        "replay from the chained suffix".
        """
        t0 = time.perf_counter()
        self.flush()
        blob = self._pickle_node(node)
        manifest = self._manifest(node, round_no)
        root = write_snapshot(
            self.snapshot_path, self.key, round_no, manifest, blob
        )
        self.snapshot_log_count = manifest["log_count"]
        self.log.append(
            EV_PERSIST_SNAPSHOT,
            self.node_id,
            round_no,
            {
                "root": root,
                "log_count": manifest["log_count"],
                "snapshot_round": round_no,
            },
        )
        self.flush()
        self.timings["snapshots"] += 1
        self.timings["snapshot_bytes"] += len(blob)
        self.timings["snapshot_s"] += time.perf_counter() - t0
        return root

    @staticmethod
    def _pickle_node(node: Any) -> bytes:
        # Detach the network handle and this store itself; both are
        # re-bound after restore.
        network, durable = node.network, node.durable
        node.network = None
        node.durable = None
        try:
            return pickle.dumps(node, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            node.network = network
            node.durable = durable

    def _manifest(self, node: Any, round_no: int) -> Dict[str, Any]:
        """The snapshot's human-auditable inventory: the consistent cut of
        every store the restore path depends on (S14)."""
        fwd = node.forwarding
        scenario = node.current_scenario
        quotas = fwd.quotas
        return {
            "node": self.node_id,
            "round": round_no,
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

    def load(self) -> RestoreResult:
        """Rebuild ``snapshot + chained suffix`` (see module docstring)."""
        t0 = time.perf_counter()
        result = RestoreResult()
        log_floor = 0
        blob: Optional[bytes] = None
        if os.path.exists(self.snapshot_path):
            try:
                round_no, manifest, blob = read_snapshot(
                    self.snapshot_path, self.key
                )
                result.snapshot_round = round_no
                result.manifest = manifest
                log_floor = int(manifest.get("log_count", 0))
            except TamperDetected as exc:
                result.tampered = True
                result.tamper_reason = f"snapshot: {exc.reason}"
                blob = None
        records, error = self.log.verified_prefix()
        result.verified_records = len(records)
        if error is not None:
            result.tampered = True
            reason = f"log: {error.reason}"
            result.tamper_reason = (
                reason
                if result.tamper_reason is None
                else f"{result.tamper_reason}; {reason}"
            )
            result.refused_records = self._count_disk_records() - len(records)
            # Refuse the corrupted suffix: roll the on-disk log back to the
            # verified prefix so the continuation chains from known-good
            # state (stage53's safe rollback).
            self._rollback_to(records)
        else:
            self.log.resync()
        if blob is not None and len(records) >= log_floor:
            result.node = pickle.loads(blob)
        elif blob is not None:
            # The verified chain stops *before* the snapshot's anchored
            # position: the snapshot claims history the log cannot prove.
            # Refuse the snapshot too and replay the prefix from scratch.
            result.tampered = True
            reason = "log verified prefix ends before the snapshot anchor"
            result.tamper_reason = (
                reason
                if result.tamper_reason is None
                else f"{result.tamper_reason}; {reason}"
            )
            log_floor = 0
        suffix = records[log_floor:] if result.node is not None else records
        for record in suffix:
            if record["kind"] != EV_PERSIST_EVIDENCE:
                continue
            result.suffix_records += 1
            result.evidence.append(
                decode(bytes.fromhex(record["data"]["enc"]))
            )
        self.timings["restores"] += 1
        self.timings["restore_s"] += time.perf_counter() - t0
        return result

    def restore_exact(self) -> Any:
        """Verify and unpickle the latest snapshot node, nothing else.

        The determinism-property path: ``restore_exact()`` after
        :meth:`snapshot` must yield a node whose transcript continuation
        is byte-identical to the never-snapshotted original.
        """
        round_no, _manifest, blob = read_snapshot(self.snapshot_path, self.key)
        del round_no
        return pickle.loads(blob)

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
