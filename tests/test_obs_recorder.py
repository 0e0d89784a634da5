"""Flight-recorder tests: zero-perturbation, ring bounds, exports."""

import json
from dataclasses import replace

import pytest

from repro.analysis.metrics import transcript_entry
from repro.chaos.monitor import BTRMonitor, TRACE_TAIL_EVENTS
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior
from repro.net.topology import grid_topology
from repro.obs import recorder as flight
from repro.obs.events import (
    EVENT_NAMES,
    EVENT_SCHEMA_VERSION,
    EV_EPOCH_ADVANCE,
    EV_FAULT_INJECTED,
    EV_HEARTBEAT_SEND,
    EV_LFD_ISSUED,
    EV_MODE_SELECTED,
    validate_jsonl,
    validate_record,
)
from repro.obs.recorder import FlightRecorder
from repro.sched.workload import WorkloadGenerator


@pytest.fixture(autouse=True)
def no_leaked_recorder():
    """Every test must leave the process-wide recorder uninstalled."""
    assert flight.active is None
    yield
    assert flight.active is None


def _run_system(rounds=14, crash_round=8, record=False, seed=0):
    topology = grid_topology(2, 3)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
    recorder = FlightRecorder() if record else None
    if recorder is not None:
        recorder.install()
    try:
        system = ReboundSystem(topology, workload, config, seed=seed)
        transcript = []
        for r in range(1, rounds + 1):
            if r == crash_round:
                system.inject_now(max(system.topology.controllers), CrashBehavior())
            system.run_round()
            transcript.append(transcript_entry(system))
    finally:
        if recorder is not None:
            recorder.uninstall()
    return transcript, recorder


class TestZeroPerturbation:
    def test_transcripts_identical_on_vs_off(self):
        """Recording only observes: protocol decisions are byte-identical."""
        plain, _ = _run_system(record=False)
        recorded, recorder = _run_system(record=True)
        assert plain == recorded
        assert len(recorder) > 0

    def test_disabled_recorder_emits_nothing(self):
        _, recorder = _run_system(record=False)
        assert recorder is None
        assert flight.active is None


class TestRingBuffer:
    def test_capacity_bounds_and_dropped(self):
        recorder = FlightRecorder(capacity=10)
        for i in range(25):
            recorder.emit(EV_HEARTBEAT_SEND, i % 3, {"delta": 0})
        assert len(recorder) == 10
        assert recorder.dropped == 15
        assert recorder.emitted == 25
        # Ring keeps the *trailing* window.
        kept_nodes = [e.node for e in recorder.events()]
        assert kept_nodes == [i % 3 for i in range(15, 25)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_seq_resets_per_round(self):
        recorder = FlightRecorder()
        recorder.begin_round(1)
        a = recorder.emit(EV_HEARTBEAT_SEND, 0, {"delta": 0})
        b = recorder.emit(EV_HEARTBEAT_SEND, 0, {"delta": 0})
        recorder.begin_round(2)
        c = recorder.emit(EV_HEARTBEAT_SEND, 0, {"delta": 0})
        assert (a.seq, b.seq, c.seq) == (0, 1, 0)
        assert c.round_no == 2

    def test_recording_context_manager(self):
        recorder = FlightRecorder()
        with recorder.recording():
            assert flight.active is recorder
            assert recorder.installed
        assert flight.active is None

    def test_uninstall_only_self(self):
        first = FlightRecorder().install()
        second = FlightRecorder()
        second.uninstall()  # not active: no-op
        assert flight.active is first
        first.uninstall()

    def test_clear(self):
        recorder = FlightRecorder()
        recorder.emit(EV_HEARTBEAT_SEND, 0, {"delta": 1})
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.emitted == 0


class TestExports:
    def test_jsonl_schema_valid(self, tmp_path):
        _, recorder = _run_system(record=True)
        path = tmp_path / "trace.jsonl"
        count = recorder.export_jsonl(str(path))
        assert count == len(recorder)
        assert validate_jsonl(str(path)) == count

    def test_event_mix_covers_protocol_layers(self):
        _, recorder = _run_system(record=True)
        kinds = {e.kind for e in recorder.events()}
        assert EV_FAULT_INJECTED in kinds
        assert EV_EPOCH_ADVANCE in kinds
        assert EV_MODE_SELECTED in kinds
        assert EV_HEARTBEAT_SEND in kinds
        for event in recorder.events():
            validate_record(event.as_dict())

    def test_exports_create_parents_and_land_atomically(self, tmp_path):
        """Exports into a not-yet-existing directory tree succeed, and the
        temp-and-rename leaves no temp residue next to the result."""
        import os

        _, recorder = _run_system(record=True)
        nested = tmp_path / "runs" / "2026" / "trace.jsonl"
        count = recorder.export_jsonl(str(nested))
        assert count == len(recorder)
        assert validate_jsonl(str(nested)) == count
        assert os.listdir(nested.parent) == ["trace.jsonl"]
        chrome = tmp_path / "runs" / "chrome" / "trace.json"
        assert recorder.export_chrome_trace(str(chrome)) > 0
        assert os.listdir(chrome.parent) == ["trace.json"]

    def test_chrome_trace_structure(self, tmp_path):
        _, recorder = _run_system(record=True)
        path = tmp_path / "trace.chrome.json"
        count = recorder.export_chrome_trace(str(path))
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert count == len(events)
        phases = {e["ph"] for e in events}
        assert {"M", "i", "X"} <= phases
        # One process-name metadata entry per node seen in the trace, plus
        # named thread rows (protocol/mode/recovery) for each node.
        trace_nodes = sorted({ev.node for ev in recorder.events()})
        process_names = [
            e for e in events if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert {e["args"]["name"] for e in process_names} == {
            f"node {n}" for n in trace_nodes
        }
        thread_names = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert {e["args"]["name"] for e in thread_names} == {
            "protocol", "mode", "recovery", "stabilize"
        }
        assert {e["pid"] for e in thread_names} == set(trace_nodes)
        # Instants are named from the schema and ordered timestamps exist.
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["name"] in EVENT_NAMES.values() for e in instants)
        assert all(e["ts"] >= 0 for e in instants)
        # Mode spans have positive durations.
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(s["dur"] >= 1 for s in spans)

    def test_tail_is_json_safe(self):
        _, recorder = _run_system(record=True)
        tail = recorder.tail(5)
        assert len(tail) == 5
        json.dumps(tail)  # must not raise
        assert recorder.tail(0) == []


class TestSchemaVersioning:
    def _record(self, **overrides):
        record = {
            "schema": EVENT_SCHEMA_VERSION, "kind": EV_HEARTBEAT_SEND,
            "name": "heartbeat-send",
            "node": 0, "round": 1, "seq": 0, "data": {"delta": 0},
        }
        record.update(overrides)
        return record

    def test_valid_record_passes(self):
        validate_record(self._record())

    def test_missing_schema_rejected(self):
        record = self._record()
        del record["schema"]
        with pytest.raises(ValueError, match="no schema version"):
            validate_record(record)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported event schema"):
            validate_record(self._record(schema=99))

    def test_lfd_without_a_rule_rejected(self):
        lfd = {"kind": EV_LFD_ISSUED, "name": "lfd-issued"}
        validate_record(self._record(**lfd, data={"link": [0, 1], "rule": "rule-a"}))
        with pytest.raises(ValueError, match="missing required field.*rule"):
            validate_record(self._record(**lfd, data={"link": [0, 1]}))
        with pytest.raises(ValueError, match="unknown rule"):
            validate_record(self._record(**lfd, data={"link": [0, 1], "rule": "?"}))

    def test_validate_jsonl_rejects_unversioned_file(self, tmp_path):
        path = tmp_path / "old.jsonl"
        record = self._record()
        del record["schema"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="no schema version"):
            validate_jsonl(str(path))

    def test_exported_records_carry_current_schema(self, tmp_path):
        _, recorder = _run_system(record=True)
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        with open(path) as fh:
            first = json.loads(fh.readline())
        assert first["schema"] == EVENT_SCHEMA_VERSION == 3


class TestMonitorIntegration:
    def test_violation_repro_carries_trace_tail(self):
        """With the recorder active, a violation's repro dict embeds the
        trailing event window (bounded by TRACE_TAIL_EVENTS)."""
        topology = grid_topology(2, 3)
        workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
            target_utilization=1.5
        )
        config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
        recorder = FlightRecorder()
        recorder.install()
        try:
            system = ReboundSystem(topology, workload, config, seed=0)
            # r_max=0: the recovery deadline expires immediately, forcing a
            # RecoveryTimeoutViolation as soon as a fault lands.
            monitor = BTRMonitor(
                bounds=replace(system.bounds, r_max=0), record_only=True
            )
            system.attach_monitor(monitor)
            system.run(3)
            system.inject_now(max(system.topology.controllers), CrashBehavior())
            system.run(4)
        finally:
            recorder.uninstall()
        assert monitor.violations
        repro = monitor.violations[0].repro
        assert "trace_tail" in repro
        tail = repro["trace_tail"]
        assert 0 < len(tail) <= TRACE_TAIL_EVENTS
        for record in tail:
            validate_record(record)

    def test_no_trace_tail_without_recorder(self):
        topology = grid_topology(2, 3)
        workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
            target_utilization=1.5
        )
        config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
        system = ReboundSystem(topology, workload, config, seed=0)
        monitor = BTRMonitor(
            bounds=replace(system.bounds, r_max=0), record_only=True
        )
        system.attach_monitor(monitor)
        system.run(3)
        system.inject_now(max(system.topology.controllers), CrashBehavior())
        system.run(4)
        assert monitor.violations
        assert "trace_tail" not in monitor.violations[0].repro
