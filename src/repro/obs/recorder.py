"""The flight recorder: a bounded ring buffer of protocol events.

One :class:`FlightRecorder` observes a whole process (all simulated nodes
share it).  It is **off by default**: instrumented code guards every emit
with::

    rec = _flight.active          # one module-attribute load
    if rec is not None:
        rec.emit(...)             # event dict is only built past this line

so a disabled recorder costs a single attribute load and ``None`` check per
emit site -- no event object, no dict, no string is ever constructed.  The
recorder only *observes*; installing it can never change a protocol
decision (transcripts are byte-identical with it on or off, pinned by
``tests/test_obs_recorder.py``).

The buffer is a ``deque(maxlen=capacity)`` ring: long chaos campaigns keep
only the trailing window, which is exactly what a violation repro needs.
Exports: JSONL (one event per line, schema-validated by
``repro.obs.events.validate_jsonl``) and the Chrome trace-event format that
``chrome://tracing`` and Perfetto load directly (each simulated node is
rendered as a process; rounds map to microseconds via ``round_us``).
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.events import (
    EVENT_NAMES,
    EV_AUDIT_DIVERGENCE,
    EV_AUDIT_RESYNC,
    EV_MODE_SELECTED,
    EV_TREE_REFRESH,
    TraceEvent,
)
from repro.obs.ioutil import atomic_open

#: The process-wide active recorder, or None (disabled).  Instrumented code
#: reads this attribute on every emit site; assign via install()/uninstall().
active: Optional["FlightRecorder"] = None

DEFAULT_CAPACITY = 65536


class FlightRecorder:
    """A bounded, process-wide protocol event recorder.

    Args:
        capacity: ring-buffer size in events; the oldest events are evicted
            once the buffer is full (``dropped`` counts evictions).
        round_no: the starting round (a recorder attached mid-run adopts the
            system's current round via :meth:`begin_round`).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, round_no: int = 0):
        if capacity <= 0:
            raise ValueError("recorder capacity must be positive")
        self.capacity = capacity
        self._events: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._round = round_no
        #: per-node sequence counters for the *current* round.
        self._seq: Dict[int, int] = {}
        self.emitted = 0

    # -- installation --------------------------------------------------------

    def install(self) -> "FlightRecorder":
        """Make this the process-wide active recorder."""
        global active
        active = self
        return self

    def uninstall(self) -> None:
        """Deactivate (only if this recorder is the active one)."""
        global active
        if active is self:
            active = None

    @property
    def installed(self) -> bool:
        return active is self

    @contextmanager
    def recording(self) -> Iterator["FlightRecorder"]:
        """``with recorder.recording():`` -- install for the block only."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording -----------------------------------------------------------

    def begin_round(self, round_no: int) -> None:
        """Advance the recorder's round clock (resets per-node sequences)."""
        if round_no != self._round:
            self._round = round_no
            self._seq.clear()

    @property
    def current_round(self) -> int:
        return self._round

    def emit(
        self,
        kind: int,
        node: int,
        data: Optional[Dict[str, Any]] = None,
        round_no: Optional[int] = None,
    ) -> TraceEvent:
        """Record one event; returns it (mainly for tests)."""
        r = self._round if round_no is None else round_no
        seq = self._seq.get(node, 0)
        self._seq[node] = seq + 1
        event = TraceEvent(kind, node, r, seq, data)
        self._events.append(event)
        self.emitted += 1
        return event

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        # An *empty* recorder must not read as "no recorder": emit sites and
        # drivers test `if recorder:` for presence, not for buffered events.
        return True

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (emitted beyond capacity)."""
        return self.emitted - len(self._events)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def tail(self, n: int = 120) -> List[Dict[str, Any]]:
        """The last ``n`` events as JSON-safe dicts (violation repro dumps)."""
        if n <= 0:
            return []
        window = list(self._events)[-n:]
        return [e.as_dict() for e in window]

    def clear(self) -> None:
        self._events.clear()
        self._seq.clear()
        self.emitted = 0

    # -- exporters -----------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the event count.

        Missing parent directories are created and the file lands via
        temp-and-rename, so a crash mid-export can never leave a torn
        (half-written) trace behind.
        """
        count = 0
        with atomic_open(path) as fh:
            for event in self._events:
                fh.write(json.dumps(event.as_dict(), sort_keys=True))
                fh.write("\n")
                count += 1
        return count

    def export_chrome_trace(
        self, path: str, round_us: int = 1000, phase_spans: Optional[List[Dict[str, Any]]] = None
    ) -> int:
        """Write the Chrome trace-event format (``chrome://tracing``, Perfetto).

        Each simulated node becomes a trace *process* (``pid``); events are
        instants at ``round * round_us + seq`` microseconds so intra-round
        order is preserved.  Mode selections additionally close/open a
        duration span per node showing which mode the node sat in.
        ``phase_spans`` (from the timeline analyzer) are appended as
        duration events so the detection/evidence/switch decomposition is
        visible directly in the viewer.
        """
        trace_events: List[Dict[str, Any]] = []
        nodes = sorted({e.node for e in self._events})
        for node in nodes:
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": node,
                    "tid": 0,
                    # pid -1 carries system-wide events (online tree
                    # refreshes) not attributable to a single node.
                    "args": {"name": "system" if node < 0 else f"node {node}"},
                }
            )
            # Named rows (Perfetto renders bare tids as "Thread N" otherwise):
            # tid 0 instants, tid 1 mode spans, tid 2 recovery-phase spans,
            # tid 3 stabilize spans (audit divergence -> resync).
            for tid, row in (
                (0, "protocol"), (1, "mode"), (2, "recovery"),
                (3, "stabilize"),
            ):
                trace_events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": node,
                        "tid": tid,
                        "args": {"name": row},
                    }
                )
        open_modes: Dict[int, Dict[str, Any]] = {}
        open_resyncs: Dict[int, Dict[str, Any]] = {}
        for event in self._events:
            ts = event.round_no * round_us + event.seq
            trace_events.append(
                {
                    "ph": "i",
                    "name": EVENT_NAMES.get(event.kind, str(event.kind)),
                    "cat": "protocol",
                    "pid": event.node,
                    "tid": 0,
                    "ts": ts,
                    "s": "t",
                    "args": event.data,
                }
            )
            if event.kind == EV_AUDIT_DIVERGENCE:
                # Divergence opens a stabilize span; the resolving resync
                # closes it, so the audit -> detect -> resync convergence
                # window is visible as one bar per incident.
                open_resyncs.setdefault(
                    event.node,
                    {
                        "ph": "X",
                        "name": "resync " + ",".join(
                            event.data.get("issues", [])
                        ),
                        "cat": "stabilize",
                        "pid": event.node,
                        "tid": 3,
                        "ts": ts,
                        "args": event.data,
                    },
                )
            elif event.kind == EV_AUDIT_RESYNC and event.data.get("resolved"):
                span = open_resyncs.pop(event.node, None)
                if span is not None:
                    span["dur"] = max(1, ts - span["ts"])
                    span["args"] = {**span["args"], **event.data}
                    trace_events.append(span)
            elif event.kind == EV_TREE_REFRESH:
                elapsed_ms = float(event.data.get("elapsed_ms", 0.0))
                trace_events.append(
                    {
                        "ph": "X",
                        "name": "tree refresh",
                        "cat": "stabilize",
                        "pid": event.node,
                        "tid": 3,
                        "ts": ts,
                        "dur": max(1, int(elapsed_ms * 1000)),
                        "args": event.data,
                    }
                )
            if event.kind == EV_MODE_SELECTED:
                previous = open_modes.pop(event.node, None)
                if previous is not None:
                    previous["dur"] = max(1, ts - previous["ts"])
                    trace_events.append(previous)
                open_modes[event.node] = {
                    "ph": "X",
                    "name": "mode " + ",".join(
                        map(str, event.data.get("failed_nodes", []))
                    ),
                    "cat": "mode",
                    "pid": event.node,
                    "tid": 1,
                    "ts": ts,
                    "args": event.data,
                }
        last_ts = 0
        if self._events:
            last = self._events[-1]
            last_ts = (last.round_no + 1) * round_us
        for span in open_modes.values():
            span["dur"] = max(1, last_ts - span["ts"])
            trace_events.append(span)
        for span in open_resyncs.values():
            # Still-unresolved divergences run to the end of the trace.
            span["dur"] = max(1, last_ts - span["ts"])
            trace_events.append(span)
        for span in phase_spans or []:
            trace_events.append(dict(span))
        with atomic_open(path) as fh:
            json.dump(
                {"traceEvents": trace_events, "displayTimeUnit": "ms"}, fh
            )
            fh.write("\n")
        return len(trace_events)
