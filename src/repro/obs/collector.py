"""Parent-side trace collection for the sharded engine.

The serial engine gets flight recording for free: every node shares the
process-wide recorder.  The sharded engine forks workers, and before this
module existed the worker initializer simply *detached* the recorder -- a
scale run was a blind run.  Now workers install a **shipping** recorder:
each round the engine drains the worker's bounded ring and returns the
events piggybacked on the round batch, packed with the same columnar
frame + interning + zlib machinery the delivery/intent planes use
(:class:`repro.net.frames.EventWriter`).  The :class:`TraceCollector`
absorbs those batches into the parent recorder, so ``tail()`` dumps,
JSONL exports, and the timeline analyzer see one merged stream.

Ordering.  Events are *globally* ordered by ``(round, node, seq)`` -- the
key the recorder already stamps -- with no cross-process clock.  The subtle
part is keeping ``seq`` numbering identical to the serial engine's when a
node's events for one round are emitted on **both** sides of the process
boundary (worker-side protocol emits, parent-side replay emits such as
chaos impairments, worker-side deferred-call emits next round).  The
engine max-merges the per-node counters across the boundary at each
hand-off (see ``FlightRecorder.merge_seq``); because the round barrier
means only one side emits for a node at a time, max-merge reproduces the
serial numbering exactly.  ``tests/test_trace_collector.py`` and the
bench-scale identity cells pin merged-JSONL == serial-JSONL byte equality.

Transport is codec-tagged like the intent plane: ``("frames", buffer)``
normally, ``("pickle", blob)`` when an event does not fit the columnar
layout (synthetic node ids, oversized kinds).
"""

from __future__ import annotations

import json
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.frames import EventWriter, unpack_events
from repro.obs.events import TraceEvent
from repro.obs.ioutil import atomic_open
from repro.obs.recorder import FlightRecorder

#: codec tags for a packed event batch.
CODEC_FRAMES = "frames"
CODEC_PICKLE = "pickle"

EventBatch = Tuple[str, bytes]


def _frameable(event: TraceEvent) -> bool:
    return (
        0 <= event.node <= 0xFFFFFFFF
        and 0 <= event.kind <= 0xFF
        and 0 <= event.round_no <= 0xFFFFFFFF
        and 0 <= event.seq <= 0xFFFFFFFF
    )


def canonical_sorted(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """Events in the canonical global order ``(round, node, seq)``.

    ``sorted`` is stable, so same-key events (which only a buggy producer
    would emit) keep arrival order instead of flapping.
    """
    return sorted(events, key=TraceEvent.sort_key)


def canonical_jsonl(events: Sequence[TraceEvent]) -> str:
    """The canonical JSONL rendering: sorted events, sorted keys.

    Both sides of the identity comparison (serial recorder, sharded
    merged stream) render through this one function, so "byte-equal after
    canonical sort" is a comparison of equal-length strings, not of two
    ad-hoc serializers.
    """
    return "".join(
        json.dumps(event.as_dict(), sort_keys=True) + "\n"
        for event in canonical_sorted(events)
    )


def pack_events(events: Sequence[TraceEvent]) -> Tuple[EventBatch, int, int]:
    """Pack drained events for the wire.

    Returns ``((codec, payload), raw_bytes, interned_hits)``.  Events are
    packed in canonical order so the round/node columns RLE well and so the
    payload bytes are deterministic.  ``data`` dicts are encoded as
    canonical JSON (sorted keys, no whitespace): equal dicts -- the common
    case for heartbeat/audit chatter -- intern to a single frame.
    """
    ordered = canonical_sorted(events)
    if all(_frameable(e) for e in ordered):
        writer = EventWriter()
        for event in ordered:
            blob = json.dumps(
                event.data, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            writer.add(
                event.node, event.round_no, event.seq, event.kind, blob
            )
        return (
            (CODEC_FRAMES, writer.finish()),
            writer.raw_bytes,
            writer.interned_hits,
        )
    payload = pickle.dumps(
        [(e.kind, e.node, e.round_no, e.seq, e.data) for e in ordered],
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return (CODEC_PICKLE, payload), len(payload), 0


def unpack_event_batch(batch: EventBatch) -> List[TraceEvent]:
    """Decode a packed batch back into :class:`TraceEvent` objects."""
    codec, payload = batch
    if codec == CODEC_FRAMES:
        return [
            TraceEvent(kind, node, round_no, seq, json.loads(blob))
            for node, round_no, seq, kind, blob in unpack_events(payload)
        ]
    if codec == CODEC_PICKLE:
        return [
            TraceEvent(kind, node, round_no, seq, data)
            for kind, node, round_no, seq, data in pickle.loads(payload)
        ]
    raise ValueError(f"unknown event batch codec {codec!r}")


class TraceCollector:
    """Merges worker-shipped event batches into the parent recorder.

    The collector does not own a separate store: absorbed events land in
    the parent :class:`FlightRecorder` ring, so every existing consumer
    (``tail()`` violation dumps, exports, the timeline analyzer) sees the
    merged stream without caring which process an event came from.
    """

    def __init__(self, recorder: FlightRecorder):
        self.recorder = recorder
        self.batches = 0
        self.worker_events = 0
        self.event_bytes = 0
        self.event_raw_bytes = 0
        self.interned_hits = 0
        self.pickle_batches = 0
        #: last cumulative ring-eviction count shipped per shard.
        self._worker_dropped: Dict[int, int] = {}

    def ingest(
        self,
        shard: int,
        batch: Optional[EventBatch],
        seqs: Optional[Dict[int, int]] = None,
        dropped: int = 0,
        raw_bytes: int = 0,
        interned: int = 0,
    ) -> int:
        """Absorb one shard's drained events + seq counters for a round.

        Must run *before* the engine replays that shard's send intents:
        replay-time emits (chaos impairments) need the max-merged counters
        to number exactly as the serial engine would have.  Returns the
        number of events absorbed.
        """
        count = 0
        if batch is not None:
            events = unpack_event_batch(batch)
            self.recorder.absorb(events)
            count = len(events)
            self.batches += 1
            self.worker_events += count
            self.event_bytes += len(batch[1])
            self.event_raw_bytes += raw_bytes
            self.interned_hits += interned
            if batch[0] == CODEC_PICKLE:
                self.pickle_batches += 1
        if seqs:
            self.recorder.merge_seq(seqs)
        self._worker_dropped[shard] = dropped
        return count

    @property
    def worker_dropped(self) -> int:
        """Events evicted from worker rings before they could ship."""
        return sum(self._worker_dropped.values())

    def merged_events(self) -> List[TraceEvent]:
        """The recorder's buffered events in canonical global order."""
        return canonical_sorted(self.recorder.events())

    def export_jsonl(self, path: str) -> int:
        """Canonically-sorted JSONL export of the merged stream."""
        events = self.merged_events()
        with atomic_open(path) as fh:
            fh.write(canonical_jsonl(events))
        return len(events)

    def stats(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "worker_events": self.worker_events,
            "event_bytes": self.event_bytes,
            "event_raw_bytes": self.event_raw_bytes,
            "interned_hits": self.interned_hits,
            "pickle_batches": self.pickle_batches,
            "worker_dropped": self.worker_dropped,
        }

    def reset(self) -> None:
        self.batches = 0
        self.worker_events = 0
        self.event_bytes = 0
        self.event_raw_bytes = 0
        self.interned_hits = 0
        self.pickle_batches = 0
        self._worker_dropped.clear()
