"""The flight-recorder event schema: typed, allocation-light protocol events.

Every layer of the stack reports what it did through a small set of *stable
integer event kinds* (PeerReview-style tamper-evident logs and Dapper-style
request tracing both rest on cheap, structured, always-on event records; see
PAPERS.md).  An event is (kind, node, round, seq, data):

* ``kind`` -- one of the ``EV_*`` integers below.  The integers are part of
  the trace format and MUST NOT be renumbered; add new kinds at the end.
* ``node`` -- the node the event happened *at* (the observer, not the
  subject: an ``EV_LFD_ISSUED`` at node 3 against link (3, 7) has
  ``node == 3``).
* ``round`` -- the protocol round the event belongs to.
* ``seq`` -- a per-node, per-round sequence number assigned by the
  recorder, so events at one node within one round are totally ordered
  even after a trip through JSON.
* ``data`` -- a small JSON-safe dict of kind-specific fields (see
  ``EVENT_FIELDS``).

This module is dependency-free (stdlib only) so every protocol layer can
import it without cycles.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Trace-format schema version stamped into every exported record.  Bump it
#: when a change would make old consumers misread new traces (renaming a
#: field, changing a field's meaning); adding new event kinds at the end is
#: backward-compatible and does NOT bump the version.
EVENT_SCHEMA_VERSION = 3

#: Versions this build can read.  ``validate_record`` rejects records with a
#: missing or unknown version: a trace either declares a schema we speak or
#: it is not trusted (telemetry shipped across process/machine boundaries
#: must be self-describing).
SUPPORTED_SCHEMA_VERSIONS = frozenset({3})

# -- event kinds (stable wire integers; never renumber) -------------------------

EV_HEARTBEAT_SEND = 1  #: a node signed and queued its own heartbeat
EV_HEARTBEAT_VERIFY = 2  #: a received heartbeat record's signature was checked
EV_HEARTBEAT_STORED = 3  #: the heartbeat store accepted/deduped/conflicted a record
EV_LFD_ISSUED = 4  #: an omission was observed; a link failure declared
EV_POM_CREATED = 5  #: a proof of misbehavior was minted locally
EV_EVIDENCE_APPLIED = 6  #: one evidence item entered a node's evidence set
EV_EPOCH_ADVANCE = 7  #: a node's evidence digest (fault epoch) changed
EV_MODE_SELECTED = 8  #: a node looked up and adopted a mode
EV_AUDIT_CHALLENGE = 9  #: a replica began auditing one execution round
EV_AUDIT_RESPONSE = 10  #: the audit finished (with or without a PoM)
EV_CHAOS_IMPAIRMENT = 11  #: the chaos layer impaired one message
EV_FAULT_INJECTED = 12  #: ground truth: an adversary/link fault activated
EV_QUOTA_DROP = 13  #: admission control dropped over-quota traffic unverified
EV_PERSIST_EVIDENCE = 14  #: one evidence item appended to a node's chained durable log
EV_PERSIST_SNAPSHOT = 15  #: a node chained the inventory of a consistent cut of its state
EV_PERSIST_RESTORE = 16  #: a node restored from its durable store (crash-restart-rejoin)
EV_AUDIT_BEACON = 17  #: the periodic state auditor digested a node's local state
EV_AUDIT_DIVERGENCE = 18  #: an audit beacon failed a local/quorum consistency check
EV_AUDIT_RESYNC = 19  #: a diverged node resynced from quorum + durable verified prefix
EV_TREE_REFRESH = 20  #: the mode tree grew a subtree online for an out-of-tree pattern

#: The ``behavior`` prefix of an ``EV_FAULT_INJECTED`` recording a transient
#: state corruption of a correct node (``ReboundSystem.corrupt_now``): the
#: node stays correct, so a trace reader must not count it as a fault.
CORRUPTION_BEHAVIOR = "corruption:"

#: The closed set of ``rule`` tags an ``lfd-issued`` event carries: the
#: demand whose violation produced the declaration (docs/PROTOCOL.md §2).
#: ``header``/``content``: a malformed round message or invalid flooded
#: content, caught at receipt; ``packet-origin``/``packet-signature``: a
#: data packet with the wrong origin or a bad signature at its sink;
#: ``rule-a``/``rule-b``/``rule-c``: the end-of-round omission rules;
#: ``forged``: minted by an adversary, never by the protocol.
LFD_RULES = (
    "header",
    "content",
    "packet-origin",
    "packet-signature",
    "rule-a",
    "rule-b",
    "rule-c",
    "forged",
)

EVENT_NAMES: Dict[int, str] = {
    EV_HEARTBEAT_SEND: "heartbeat-send",
    EV_HEARTBEAT_VERIFY: "heartbeat-verify",
    EV_HEARTBEAT_STORED: "heartbeat-stored",
    EV_LFD_ISSUED: "lfd-issued",
    EV_POM_CREATED: "pom-created",
    EV_EVIDENCE_APPLIED: "evidence-applied",
    EV_EPOCH_ADVANCE: "epoch-advance",
    EV_MODE_SELECTED: "mode-selected",
    EV_AUDIT_CHALLENGE: "audit-challenge",
    EV_AUDIT_RESPONSE: "audit-response",
    EV_CHAOS_IMPAIRMENT: "chaos-impairment",
    EV_FAULT_INJECTED: "fault-injected",
    EV_QUOTA_DROP: "quota-drop",
    EV_PERSIST_EVIDENCE: "persist-evidence",
    EV_PERSIST_SNAPSHOT: "persist-snapshot",
    EV_PERSIST_RESTORE: "persist-restore",
    EV_AUDIT_BEACON: "audit-beacon",
    EV_AUDIT_DIVERGENCE: "audit-divergence",
    EV_AUDIT_RESYNC: "audit-resync",
    EV_TREE_REFRESH: "tree-refresh",
}

#: data fields each kind may carry (documentation + JSONL validation).
#: Fields are optional unless listed in EVENT_REQUIRED_FIELDS.
EVENT_FIELDS: Dict[int, Tuple[str, ...]] = {
    EV_HEARTBEAT_SEND: ("delta",),
    EV_HEARTBEAT_VERIFY: ("origin", "hb_round", "ok"),
    EV_HEARTBEAT_STORED: ("origin", "hb_round", "status"),
    EV_LFD_ISSUED: ("link", "rule"),
    EV_POM_CREATED: ("accused", "pom", "task"),
    EV_EVIDENCE_APPLIED: ("item", "accused", "link", "issuer", "blessed"),
    EV_EPOCH_ADVANCE: ("digest", "items", "pattern_nodes", "pattern_links"),
    EV_MODE_SELECTED: ("failed_nodes", "failed_links", "placement_hosts"),
    EV_AUDIT_CHALLENGE: ("task", "copy", "exec_round"),
    EV_AUDIT_RESPONSE: ("task", "copy", "exec_round", "poms"),
    EV_CHAOS_IMPAIRMENT: ("type", "link", "delay"),
    EV_FAULT_INJECTED: ("target", "behavior", "link"),
    EV_QUOTA_DROP: ("sender", "kind"),
    EV_PERSIST_EVIDENCE: ("item", "enc"),
    EV_PERSIST_SNAPSHOT: (
        "log_count",
        "evidence_digest",
        "evidence_items",
        "heartbeat_records",
        "mode_pointer",
        "quotas",
    ),
    EV_PERSIST_RESTORE: ("snapshot_round", "replayed", "tampered", "reason"),
    EV_AUDIT_BEACON: ("digest", "items", "ok", "issues"),
    EV_AUDIT_DIVERGENCE: ("issues", "digest"),
    EV_AUDIT_RESYNC: ("merged", "replayed", "repaired", "resolved"),
    EV_TREE_REFRESH: (
        "scenario_nodes",
        "scenario_links",
        "added_modes",
        "holding_depth",
        "elapsed_ms",
    ),
}

EVENT_REQUIRED_FIELDS: Dict[int, Tuple[str, ...]] = {
    EV_HEARTBEAT_SEND: ("delta",),
    EV_HEARTBEAT_VERIFY: ("origin", "ok"),
    EV_HEARTBEAT_STORED: ("origin", "status"),
    EV_LFD_ISSUED: ("link", "rule"),
    EV_POM_CREATED: ("accused", "pom"),
    EV_EVIDENCE_APPLIED: ("item",),
    EV_EPOCH_ADVANCE: ("digest",),
    EV_MODE_SELECTED: ("failed_nodes", "failed_links"),
    EV_AUDIT_CHALLENGE: ("task", "exec_round"),
    EV_AUDIT_RESPONSE: ("task", "exec_round"),
    EV_CHAOS_IMPAIRMENT: ("type",),
    EV_FAULT_INJECTED: (),
    EV_QUOTA_DROP: ("sender", "kind"),
    EV_PERSIST_EVIDENCE: ("enc",),
    EV_PERSIST_SNAPSHOT: ("log_count", "evidence_digest"),
    EV_PERSIST_RESTORE: ("tampered",),
    EV_AUDIT_BEACON: ("ok",),
    EV_AUDIT_DIVERGENCE: ("issues",),
    EV_AUDIT_RESYNC: (),
    EV_TREE_REFRESH: ("added_modes",),
}


class TraceEvent:
    """One recorded protocol event (see module docstring for the fields).

    Deliberately ``__slots__``-only: the recorder allocates one of these per
    event on the hot path, so there is no ``__dict__`` and no dataclass
    machinery.
    """

    __slots__ = ("kind", "node", "round_no", "seq", "data")

    def __init__(
        self,
        kind: int,
        node: int,
        round_no: int,
        seq: int,
        data: Optional[Dict[str, Any]] = None,
    ):
        self.kind = kind
        self.node = node
        self.round_no = round_no
        self.seq = seq
        self.data = data if data is not None else {}

    @property
    def name(self) -> str:
        return EVENT_NAMES.get(self.kind, f"unknown-{self.kind}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": EVENT_SCHEMA_VERSION,
            "kind": self.kind,
            "name": self.name,
            "node": self.node,
            "round": self.round_no,
            "seq": self.seq,
            "data": self.data,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.name}, node={self.node}, "
            f"round={self.round_no}, seq={self.seq}, data={self.data})"
        )


# -- schema validation ----------------------------------------------------------


def validate_record(record: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if a JSONL record does not match the schema."""
    if not isinstance(record, dict):
        raise ValueError(f"event record must be a dict, got {type(record).__name__}")
    schema = record.get("schema")
    if schema is None:
        raise ValueError(
            "event record carries no schema version "
            f"(this build writes schema {EVENT_SCHEMA_VERSION})"
        )
    if schema not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported event schema version {schema!r} "
            f"(supported: {sorted(SUPPORTED_SCHEMA_VERSIONS)})"
        )
    for field, typ in (("kind", int), ("node", int), ("round", int), ("seq", int)):
        value = record.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"event field {field!r} must be an int, got {value!r}")
        del typ
    kind = record["kind"]
    if kind not in EVENT_NAMES:
        raise ValueError(f"unknown event kind {kind}")
    if record["round"] < 0 or record["seq"] < 0:
        raise ValueError("round and seq must be non-negative")
    name = record.get("name")
    if name is not None and name != EVENT_NAMES[kind]:
        raise ValueError(f"name {name!r} does not match kind {kind}")
    data = record.get("data", {})
    if not isinstance(data, dict):
        raise ValueError("event data must be a dict")
    allowed = set(EVENT_FIELDS[kind])
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(
            f"{EVENT_NAMES[kind]} carries unknown data field(s) {sorted(unknown)}"
        )
    missing = set(EVENT_REQUIRED_FIELDS[kind]) - set(data)
    if missing:
        raise ValueError(
            f"{EVENT_NAMES[kind]} is missing required field(s) {sorted(missing)}"
        )
    if kind == EV_LFD_ISSUED and data["rule"] not in LFD_RULES:
        raise ValueError(f"lfd-issued carries unknown rule {data['rule']!r}")


def validate_jsonl(path: str) -> int:
    """Validate a JSONL trace file; returns the number of valid records."""
    count = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                validate_record(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            count += 1
    return count


def events_from_dicts(records: Iterable[Dict[str, Any]]) -> List[TraceEvent]:
    """Rehydrate :class:`TraceEvent` objects from JSONL/`as_dict` records."""
    return [
        TraceEvent(
            kind=r["kind"],
            node=r["node"],
            round_no=r["round"],
            seq=r["seq"],
            data=dict(r.get("data", {})),
        )
        for r in records
    ]
