"""Observability: the flight recorder, timeline analyzer, and telemetry
registry (see docs/PROTOCOL.md S10).

Import cost matters here -- ``repro.obs.recorder`` is imported by every
instrumented protocol module -- so this package keeps its ``__init__``
dependency-light and re-exports only the names user code reaches for.
"""

from repro.obs.events import (
    EV_AUDIT_CHALLENGE,
    EV_AUDIT_RESPONSE,
    EV_CHAOS_IMPAIRMENT,
    EV_EPOCH_ADVANCE,
    EV_EVIDENCE_APPLIED,
    EV_FAULT_INJECTED,
    EV_HEARTBEAT_SEND,
    EV_HEARTBEAT_STORED,
    EV_HEARTBEAT_VERIFY,
    EV_LFD_ISSUED,
    EV_MODE_SELECTED,
    EV_POM_CREATED,
    EVENT_NAMES,
    TraceEvent,
    events_from_dicts,
    validate_jsonl,
    validate_record,
)
from repro.obs.recorder import FlightRecorder

__all__ = [
    "EV_AUDIT_CHALLENGE",
    "EV_AUDIT_RESPONSE",
    "EV_CHAOS_IMPAIRMENT",
    "EV_EPOCH_ADVANCE",
    "EV_EVIDENCE_APPLIED",
    "EV_FAULT_INJECTED",
    "EV_HEARTBEAT_SEND",
    "EV_HEARTBEAT_STORED",
    "EV_HEARTBEAT_VERIFY",
    "EV_LFD_ISSUED",
    "EV_MODE_SELECTED",
    "EV_POM_CREATED",
    "EVENT_NAMES",
    "FlightRecorder",
    "TraceEvent",
    "events_from_dicts",
    "validate_jsonl",
    "validate_record",
]
