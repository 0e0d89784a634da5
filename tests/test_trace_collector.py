"""Distributed trace collection: event frames, codec round-trips, and the
serial-vs-sharded merged-trace identity pin.

The tentpole guarantee under test: with a flight recorder installed, a
sharded run ships every worker-side event home over the frame IPC plane
and the parent's merged stream -- canonically sorted by (round, node,
seq) -- renders to the same JSONL bytes the serial engine records.  The
failure-path tests pin that a failed worker RPC neither drops nor
double-counts events already sitting in the worker's ring.
"""

import json

import pytest

from repro.analysis.metrics import transcript_entry
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior
from repro.net.frames import EventWriter, unpack_events
from repro.net.shard import WorkerCallError
from repro.net.topology import grid_topology
from repro.obs import recorder as flight
from repro.obs.collector import (
    CODEC_FRAMES,
    CODEC_PICKLE,
    TraceCollector,
    canonical_jsonl,
    canonical_sorted,
    pack_events,
    unpack_event_batch,
)
from repro.obs.events import (
    EV_EPOCH_ADVANCE,
    EV_HEARTBEAT_SEND,
    EV_LFD_ISSUED,
    TraceEvent,
)
from repro.obs.recorder import FlightRecorder
from repro.sched.workload import WorkloadGenerator


@pytest.fixture(autouse=True)
def no_leaked_recorder():
    assert flight.active is None
    yield
    assert flight.active is None


def _event(kind, node, round_no, seq, data=None):
    return TraceEvent(kind, node, round_no, seq, data or {})


class TestEventWriter:
    def test_round_trip(self):
        writer = EventWriter()
        rows = [
            (0, 1, 0, EV_HEARTBEAT_SEND, b'{"delta":0}'),
            (0, 1, 1, EV_HEARTBEAT_SEND, b'{"delta":0}'),
            (3, 1, 0, EV_LFD_ISSUED, b'{"link":[0,3]}'),
            (3, 2, 0, EV_EPOCH_ADVANCE, b'{"digest":"ab"}'),
        ]
        for node, round_no, seq, kind, blob in rows:
            writer.add(node, round_no, seq, kind, blob)
        buffer = writer.finish()
        assert unpack_events(buffer) == rows

    def test_interns_repeated_blobs(self):
        writer = EventWriter()
        for seq in range(50):
            writer.add(0, 1, seq, EV_HEARTBEAT_SEND, b'{"delta":0}')
        buffer = writer.finish()
        assert writer.interned_hits == 49
        assert len(unpack_events(buffer)) == 50
        # One shared frame, not fifty: the buffer stays small.
        assert len(buffer) < 50 * len(b'{"delta":0}')

    def test_wide_ids_and_compression(self):
        writer = EventWriter()
        rows = []
        for seq in range(300):
            node = 70_000 + seq  # forces u32 node ids
            row = (node, 9, 0, EV_HEARTBEAT_SEND,
                   json.dumps({"delta": seq}).encode())
            rows.append(row)
            writer.add(*row)
        buffer = writer.finish()
        assert buffer[0] & 0x01  # wide-node flag
        assert unpack_events(buffer) == rows

    def test_rejects_negative_node(self):
        with pytest.raises(ValueError):
            EventWriter().add(-1, 0, 0, EV_HEARTBEAT_SEND, b"{}")

    def test_trailing_garbage_rejected(self):
        writer = EventWriter()
        writer.add(0, 1, 0, EV_HEARTBEAT_SEND, b"{}")
        buffer = bytearray(writer.finish())
        buffer.extend(b"xx")
        with pytest.raises(ValueError):
            unpack_events(bytes(buffer))


class TestPackEvents:
    def _events(self):
        return [
            _event(EV_HEARTBEAT_SEND, 2, 5, 0, {"delta": 0}),
            _event(EV_HEARTBEAT_SEND, 1, 5, 0, {"delta": 0}),
            _event(EV_LFD_ISSUED, 1, 5, 1, {"link": [1, 2]}),
        ]

    def test_frames_round_trip_canonical(self):
        batch, raw, interned = pack_events(self._events())
        assert batch[0] == CODEC_FRAMES
        assert raw > 0 and interned >= 1
        restored = unpack_event_batch(batch)
        assert [e.as_dict() for e in restored] == [
            e.as_dict() for e in canonical_sorted(self._events())
        ]

    def test_unframeable_event_falls_back_to_pickle(self):
        huge_node = _event(EV_HEARTBEAT_SEND, 2**40, 1, 0, {"delta": 0})
        events = self._events() + [huge_node]
        batch, _, _ = pack_events(events)
        assert batch[0] == CODEC_PICKLE
        restored = unpack_event_batch(batch)
        assert canonical_jsonl(restored) == canonical_jsonl(events)
        assert 2**40 in [e.node for e in restored]

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            unpack_event_batch(("gzip", b""))

    def test_canonical_jsonl_is_sorted_and_schema_stamped(self):
        text = canonical_jsonl(self._events())
        records = [json.loads(line) for line in text.splitlines()]
        keys = [(r["round"], r["node"], r["seq"]) for r in records]
        assert keys == sorted(keys)
        assert all(r["schema"] == 1 for r in records)


# -- serial vs sharded merged-trace identity ------------------------------------


def _run_recorded(workers, rounds=12, crash_round=6, break_flush_at=None):
    """One grid20 crash run with a recorder installed; returns
    (transcript, trace_jsonl, recorder, collector_stats)."""
    topology = grid_topology(4, 5)
    workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
    recorder = FlightRecorder()
    recorder.install()
    stats = None
    try:
        system = ReboundSystem(
            topology, workload, config, seed=0, scale_workers=workers
        )
        transcript = []
        for r in range(1, rounds + 1):
            if r == crash_round:
                system.inject_now(
                    max(system.topology.controllers), CrashBehavior()
                )
            system.run_round()
            transcript.append(transcript_entry(system))
            if break_flush_at == r:
                engine = system._engine
                victim = next(iter(engine._shard_of))
                engine.rpc_deferred(victim, "no_such_op")
                with pytest.raises(WorkerCallError):
                    engine.summary(victim)
        engine = system._engine
        if engine is not None and engine.collector is not None:
            system.close()  # shutdown barrier drains the last worker rings
            stats = engine.collector.stats()
        else:
            system.close()
    finally:
        recorder.uninstall()
    return transcript, canonical_jsonl(recorder.events()), recorder, stats


class TestMergedTraceIdentity:
    def test_sharded_trace_equals_serial(self):
        serial_tx, serial_trace, serial_rec, _ = _run_recorded(0)
        sharded_tx, sharded_trace, sharded_rec, stats = _run_recorded(2)
        assert serial_tx == sharded_tx
        assert serial_trace == sharded_trace
        assert len(serial_rec) == len(sharded_rec) > 0
        assert stats is not None
        assert stats["worker_dropped"] == 0
        assert stats["worker_events"] > 0

    def test_merged_stream_has_no_duplicate_keys(self):
        _, trace, recorder, _ = _run_recorded(2)
        keys = [e.sort_key() for e in canonical_sorted(recorder.events())]
        assert len(keys) == len(set(keys))
        assert recorder.dropped == 0

    def test_collector_registered_in_telemetry(self):
        recorder = FlightRecorder()
        recorder.install()
        try:
            topology = grid_topology(4, 5)
            workload = WorkloadGenerator(
                seed=0, chain_length_range=(1, 2)
            ).workload(target_utilization=1.5)
            config = ReboundConfig(fmax=1, fconc=1, variant="multi",
                                   rsa_bits=256)
            system = ReboundSystem(
                topology, workload, config, seed=0, scale_workers=2
            )
            try:
                system.run_round()
                stats = system.fastpath_stats()
                assert "trace_collector" in stats
                assert stats["trace_collector"]["worker_events"] >= 0
            finally:
                system.close()
            assert "trace_collector" not in system.fastpath_stats()
        finally:
            recorder.uninstall()


class TestWorkerFailurePaths:
    def test_failed_flush_neither_drops_nor_duplicates(self):
        """A deferred RPC that dies mid-flush (WorkerCallError) leaves the
        worker's un-drained events in its ring; they must ship exactly
        once later, so the final merged trace still matches the serial
        engine byte for byte."""
        serial_tx, serial_trace, _, _ = _run_recorded(0)
        sharded_tx, sharded_trace, sharded_rec, stats = _run_recorded(
            2, break_flush_at=3
        )
        assert serial_tx == sharded_tx
        assert serial_trace == sharded_trace
        keys = [e.sort_key() for e in canonical_sorted(sharded_rec.events())]
        assert len(keys) == len(set(keys))
        assert stats["worker_dropped"] == 0

    def test_ingest_counts_worker_drops(self):
        """The collector surfaces worker-side ring overflow (dropped
        events) per shard without inventing events."""
        rec = FlightRecorder()
        collector = TraceCollector(rec)
        batch, raw, interned = pack_events(
            [_event(EV_HEARTBEAT_SEND, 0, 1, 0, {"delta": 0})]
        )
        collector.ingest(0, batch, {0: 1}, dropped=5, raw_bytes=raw,
                         interned=interned)
        collector.ingest(1, None, None, dropped=2)
        assert collector.worker_dropped == 7
        assert len(rec.events()) == 1
        stats = collector.stats()
        assert stats["worker_dropped"] == 7
        assert stats["worker_events"] == 1
        collector.reset()
        assert collector.worker_dropped == 0
