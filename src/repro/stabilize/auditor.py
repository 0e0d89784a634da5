"""The periodic per-node state auditor (docs/PROTOCOL.md §16).

Every ``audit_interval`` rounds the auditor computes a compact **audit
beacon** over one node's protocol state -- evidence root, epoch-digest
memo, mode pointer, quota ledger -- and checks it two ways:

* **Local invariants.**  Each audited field is either content-addressed
  (evidence items are keyed by canonical digest; the set digest is a hash
  of the keys), derivable (the mode pointer must equal the tree lookup for
  the current fault pattern; quota caps are copies of the system's frozen
  ``Bounds``), or bounded (ledger counters are non-negative, suspects are
  controllers).  Any single-field transient corruption therefore breaks at
  least one *locally checkable* invariant -- no network traffic needed to
  detect it.
* **Quorum cross-check.**  Correct stores are not byte-identical in steady
  state (own issues flood out with a lag; bounded buckets keep rank
  extremes), so the reference is the *majority-held, flood-stale core*:
  accusations a majority of the other correct controllers hold and that a
  correct controller first held more than ``d_max`` rounds ago.  The clock
  starts when the item enters the system, not at the round it accuses: a
  PoM minted after an auditing delay accuses a round long past while it is
  still flooding.  A node missing any of those
  provably dropped a flood; it resyncs by merging exactly that core (the
  same trust step ``repair_and_bless`` already takes) plus, when
  durability is on, the items decoded from its own durable log's verified
  prefix (tamper-evident by PR 8's HMAC chain, so corruption of the
  in-RAM store cannot be laundered into the resync source).

On divergence the auditor repairs in place -- re-key flipped store
entries, drop the poisoned digest memo, rebuild the quota ledger, force a
fresh mode adoption -- and reports the resync to the monitor so the node
is not condemned mid-convergence (the shared accusation-grace window).
Convergence is *quorum consistency*: local invariants hold and the node's
evidence covers everything the quorum reference knows.  The pass is
observation-only when nothing is corrupted and every flood reaches every
correct controller within ``d_max`` rounds of entering the system (no
fault has stretched the flooding distance past ``d_max``); it then leaves
transcripts byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.evidence import _accusation_round_of
from repro.crypto.hashing import hash_bytes
from repro.obs import recorder as _flight
from repro.obs.events import (
    EV_AUDIT_BEACON,
    EV_AUDIT_DIVERGENCE,
    EV_AUDIT_RESYNC,
)

class StateAuditor:
    """Audits one controller's in-RAM protocol state each audit interval.

    The auditor holds a system handle the way :class:`BTRMonitor` does: in
    the simulator the "beacon exchange" collapses to reading the other
    correct controllers' evidence roots directly, which is observationally
    equivalent to the broadcast round a live deployment would run.
    """

    def __init__(self, system, node_id: int, interval: int):
        self.system = system
        self.node_id = node_id
        self.interval = max(1, interval)
        self.beacons = 0
        #: One dict per detected divergence: ``node``, ``detected_round``,
        #: ``issues``, ``resynced_round``, ``resolved_round`` (None while
        #: open), ``repaired``/``merged``/``replayed`` item counts.
        self.divergences: List[Dict[str, Any]] = []
        #: ``(round, outstanding issues)`` per audit tick, post-resync.  A
        #: tick with no issues is a *clean* audit -- the convergence
        #: judgment accepts corruption that healed naturally (fresh
        #: evidence overwrote the damage before the tick) the same as
        #: corruption the resync repaired.
        self.audits: List[Tuple[int, Tuple[str, ...]]] = []

    # -- beacon -----------------------------------------------------------------

    def _node(self):
        return self.system.nodes[self.node_id]

    def beacon(self) -> Dict[str, Any]:
        """The compact state digest a live node would broadcast."""
        node = self._node()
        fwd = node.forwarding
        schedule = node.current_schedule
        mode_key = (
            (tuple(sorted(schedule.failed_nodes)),
             tuple(sorted(schedule.failed_links)))
            if schedule is not None
            else None
        )
        quotas = fwd.quotas
        quota_key = (
            tuple(sorted(quotas.suspects)),
            quotas.total_charged,
            quotas.total_dropped,
        )
        root = fwd.evidence.digest()
        return {
            "root": root,
            "items": len(fwd.evidence),
            "mode": mode_key,
            "quota": quota_key,
            "digest": hash_bytes(root, repr(mode_key).encode(),
                                 repr(quota_key).encode()),
        }

    # -- local invariants --------------------------------------------------------

    def local_issues(self) -> List[str]:
        """Locally checkable invariant violations, as short tags."""
        node = self._node()
        fwd = node.forwarding
        issues: List[str] = []
        if fwd.evidence.corrupted_keys():
            issues.append("evidence-key")
        if not fwd.evidence.digest_cache_coherent():
            issues.append("epoch-digest")
        expected = node.mode_tree.schedule_for(fwd.fault_pattern)
        if node.current_schedule != expected:
            issues.append("mode-pointer")
        if fwd.quotas.ledger_issues(self.system.topology.controllers):
            issues.append("quota-ledger")
        return issues

    # -- quorum cross-check ------------------------------------------------------

    def _quorum_items(self, round_no: int) -> Dict[bytes, Any]:
        """Accusations held by a majority of the *other* correct
        controllers and first held by a correct controller more than
        ``d_max`` rounds ago -- old enough that flooding must already have
        delivered them to every correct node.

        Correct stores are not byte-identical in steady state (each node
        keeps its own idiosyncratic issues, and bounded buckets keep rank
        extremes that depend on arrival order), so the reference is the
        majority-held *stale* core, not any single peer's store: fresh
        items may still be in flight, and single-holder items prove
        nothing about this node."""
        system = self.system
        peers = [p for p in system.correct_controllers() if p != self.node_id]
        if not peers:
            return {}
        d_max = system.bounds.d_max
        need = len(peers) // 2 + 1
        counts: Dict[bytes, int] = {}
        samples: Dict[bytes, Any] = {}
        for peer in peers:
            for digest, item in system.nodes[
                peer
            ].forwarding.evidence._items.items():
                counts[digest] = counts.get(digest, 0) + 1
                samples[digest] = item
        quorum: Dict[bytes, Any] = {}
        for digest, count in counts.items():
            if count < need:
                continue
            item = samples[digest]
            # An item not yet on the clock entered this round.
            entered = system.evidence_first_held.get(digest, round_no)
            if _accusation_round_of(item) is not None and entered + d_max < round_no:
                quorum[digest] = item
        return quorum

    def quorum_consistent(self, round_no: Optional[int] = None) -> bool:
        """Quorum consistency (§16.3): the node holds (or has a full
        bucket dominating) every majority-held, flood-stale item.  Being
        *ahead* -- holding items the quorum lacks -- is fine: that is its
        own fresh evidence still flooding out."""
        if round_no is None:
            round_no = self.system.round_no
        mine = self._node().forwarding.evidence
        quorum = self._quorum_items(round_no)
        for digest in sorted(quorum):
            if not mine.has_digest(digest) and not mine.dominated(quorum[digest]):
                return False
        return True

    def open_divergence(self) -> Optional[Dict[str, Any]]:
        for record in reversed(self.divergences):
            if record["resolved_round"] is None:
                return record
        return None

    # -- the audit tick ----------------------------------------------------------

    def maybe_audit(self, round_no: int) -> None:
        if round_no % self.interval:
            return
        self.audit(round_no)

    def _all_issues(self, round_no: int) -> List[str]:
        issues = self.local_issues()
        if not self.quorum_consistent(round_no):
            # Missing majority-held stale evidence: the node dropped a
            # flood while running from corrupted state.
            issues.append("evidence-lag")
        return issues

    def audit(self, round_no: int) -> None:
        self.beacons += 1
        issues = self._all_issues(round_no)
        record = self.open_divergence()
        rec = _flight.active
        if issues:
            if record is None:
                record = {
                    "node": self.node_id,
                    "detected_round": round_no,
                    "issues": list(issues),
                    "resynced_round": None,
                    "resolved_round": None,
                    "repaired": 0,
                    "merged": 0,
                    "replayed": 0,
                }
                self.divergences.append(record)
                if rec is not None:
                    rec.emit(
                        EV_AUDIT_DIVERGENCE,
                        self.node_id,
                        {"issues": list(issues)},
                        round_no=round_no,
                    )
            self._resync(round_no, record)
            issues = self._all_issues(round_no)
        self.audits.append((round_no, tuple(issues)))
        if record is not None and not issues:
            record["resolved_round"] = round_no
            if rec is not None:
                rec.emit(
                    EV_AUDIT_RESYNC,
                    self.node_id,
                    {
                        "merged": record["merged"],
                        "replayed": record["replayed"],
                        "repaired": record["repaired"],
                        "resolved": True,
                    },
                    round_no=round_no,
                )
        if rec is not None:
            rec.emit(
                EV_AUDIT_BEACON,
                self.node_id,
                {
                    "digest": self.beacon()["digest"][:8].hex(),
                    "items": len(self._node().evidence),
                    "ok": not issues,
                    "issues": list(issues),
                },
                round_no=round_no,
            )

    # -- resync ------------------------------------------------------------------

    def _resync(self, round_no: int, record: Dict[str, Any]) -> None:
        """Repair in place from quorum + the durable verified prefix."""
        node = self._node()
        fwd = node.forwarding

        # 1. Structural repair of the evidence store: re-key flipped
        #    entries, drop the (possibly poisoned) digest memo.
        repaired = fwd.evidence.repair()
        record["repaired"] += repaired

        # 2. Replay this node's own durable verified prefix (PR 8): every
        #    item it ever admitted, HMAC-chained on disk, so in-RAM loss
        #    is recovered from tamper-evident local history first.
        if node.durable is not None:
            evidence, _records, _error = node.durable.verified_evidence()
            replayed = 0
            for item in evidence:
                replayed += fwd.evidence.add(item)
            record["replayed"] += replayed

        # 3. Merge the majority-held stale core (same trust step as
        #    repair_and_bless: quorum-verified items are re-admitted
        #    without re-verification).  Deliberately NOT any single peer's
        #    full store -- idiosyncratic single-holder items would skew
        #    this node's fault pattern away from the quorum's.
        quorum = self._quorum_items(round_no)
        merged = 0
        for digest in sorted(quorum):
            if not fwd.evidence.has_digest(digest) and fwd.evidence.add(
                quorum[digest]
            ):
                merged += 1
        record["merged"] += merged

        # 4. Rebuild the quota ledger's derivable fields.
        fwd.quotas.reset_ledger(self.system.topology.controllers)
        fwd.quotas.begin_round(round_no)

        # 5. Recompute the fault pattern from the repaired evidence and
        #    force a fresh mode adoption (the pointer itself may be what
        #    was corrupted, and _adopt_mode's no-change fast path would
        #    otherwise trust it).
        fwd._refresh_pattern()
        node.readopt_mode(round_no)

        # Coverage suspicions this node raised while corrupted are about a
        # window it could not observe soundly; drop them rather than let
        # them mature into LFDs against innocent peers.
        fwd._pending_rule_b.clear()

        record["resynced_round"] = round_no

        # Escalate to operator absolution (§16.4): corruption may already
        # have leaked into the inference plane -- aggregates skipped on a
        # poisoned epoch digest latch coverage shortfalls at *peers* that
        # no local repair can undo.  The blessing absolves both directions
        # of any accusation on the victim's links and pushes every node's
        # Rule B stable floor past the corrupted window.
        self.system.bless_resync(self.node_id)

        # 6. Tell the monitor: the node is mid-resync, so Rule B coverage
        #    and inference-accuracy checks give it the shared grace window
        #    instead of condemning it (PROTOCOL.md §16.4).
        monitor = self.system.monitor
        if monitor is not None and hasattr(monitor, "note_resync"):
            monitor.note_resync(self.node_id, round_no)

