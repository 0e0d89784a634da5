"""The recovery decomposition, stepped live and rebuilt from a trace.

:func:`repro.obs.timeline.reconstruct` reads only recorded events; the
:class:`~repro.chaos.monitor.BTRMonitor` steps the same machine from the
live system.  These tests pin the two against each other and against the
runtime's own ``detected()`` / ``converged()`` verdicts sampled live on real
crash episodes, and pin the shared predicates on hand-built traces.
"""

import pytest

from repro.chaos.corruption import CORRUPTIONS
from repro.chaos.monitor import BTRMonitor
from repro.core import ReboundConfig, ReboundSystem
from repro.experiments.trace_run import _pick_victim
from repro.faults.adversary import CrashBehavior
from repro.net.topology import erdos_renyi_topology, grid_topology
from repro.obs import recorder as flight
from repro.obs.events import (
    CORRUPTION_BEHAVIOR,
    EV_EPOCH_ADVANCE,
    EV_FAULT_INJECTED,
    EV_MODE_SELECTED,
    TraceEvent,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import (
    covers,
    divergence_report,
    extract_ground_truth,
    phase_spans,
    reconstruct,
)
from repro.sched.workload import WorkloadGenerator

CRASH_TOPOLOGIES = pytest.mark.parametrize(
    "topology_factory",
    [lambda: grid_topology(2, 3), lambda: erdos_renyi_topology(6, seed=3)],
    ids=["grid", "erdos_renyi"],
)


@pytest.fixture(autouse=True)
def no_leaked_recorder():
    assert flight.active is None
    yield
    assert flight.active is None


def _run_crash_episode(topology, rounds=20, fault_round=8, seed=0):
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
    recorder = FlightRecorder()
    recorder.install()
    # First rounds the runtime's own verdicts hold: detected, converged,
    # and converged on one agreed mode (Req. 2's recovered).
    sampled = {"detected": None, "converged": None, "recovered": None}
    try:
        system = ReboundSystem(topology, workload, config, seed=seed)
        monitor = BTRMonitor(record_only=True)
        system.attach_monitor(monitor)
        victim = _pick_victim(system)
        for r in range(1, rounds + 1):
            if r == fault_round:
                system.inject_now(victim, CrashBehavior())
            system.run_round()
            if r < fault_round:
                continue
            verdicts = {
                "detected": system.detected(),
                "converged": system.converged(),
                "recovered": system.detected() and system.converged()
                and system.schedules_agree(),
            }
            for name, holds in verdicts.items():
                if holds and sampled[name] is None:
                    sampled[name] = r
    finally:
        recorder.uninstall()
    return recorder, monitor, victim, sampled


class TestCrashDecomposition:
    @CRASH_TOPOLOGIES
    def test_trace_matches_runtime_ground_truth(self, topology_factory):
        recorder, monitor, victim, sampled = _run_crash_episode(
            topology_factory()
        )
        assert None not in sampled.values()
        decomposition = reconstruct(recorder.events())
        # Ground truth from the trace alone names the injected fault.
        assert set(decomposition.truth.nodes) == {victim}
        # Trace-derived rounds equal the runtime's verdicts sampled live.
        assert decomposition.detection_round == sampled["detected"]
        assert decomposition.convergence_round == sampled["converged"]
        assert decomposition.recovery_round == sampled["recovered"]
        assert monitor.recovery_round == sampled["recovered"]
        # The trace rebuilds exactly what the monitor stepped live, and the
        # live run met every requirement.
        assert decomposition.as_dict() == monitor.decomposition.as_dict()
        assert monitor.violations == []

    @CRASH_TOPOLOGIES
    def test_phases_sum_exactly_per_node(self, topology_factory):
        recorder, _, _, sampled = _run_crash_episode(topology_factory())
        decomposition = reconstruct(recorder.events())
        assert decomposition.per_node
        for nr in decomposition.per_node.values():
            assert nr.recovered
            assert (
                nr.detection_rounds + nr.evidence_rounds + nr.switch_rounds
                == nr.total_rounds
            )
            assert nr.detection_rounds >= 0
            assert nr.evidence_rounds >= 0
            assert nr.switch_rounds >= 0
        # The slowest node's total is the system recovery time, as the
        # runtime's own converged() verdict measures it.
        fault_round = decomposition.truth.first_round
        assert (
            decomposition.max_node_total()
            == sampled["converged"] - fault_round
        )

    def test_phase_spans_render_decomposition(self):
        recorder, _, _, _ = _run_crash_episode(grid_topology(2, 3))
        decomposition = reconstruct(recorder.events())
        spans = phase_spans(decomposition, round_us=1000)
        assert spans
        for span in spans:
            assert span["ph"] == "X"
            assert span["cat"] == "recovery"
            assert span["dur"] == span["args"]["rounds"] * 1000
        # Per node, the rendered spans cover exactly the node's total.
        by_node = {}
        for span in spans:
            by_node.setdefault(span["pid"], 0)
            by_node[span["pid"]] += span["args"]["rounds"]
        for node, total in by_node.items():
            assert total == decomposition.per_node[node].total_rounds

    def test_ground_truth_extraction(self):
        recorder, _, victim, _ = _run_crash_episode(grid_topology(2, 3))
        truth = extract_ground_truth(recorder.events())
        assert list(truth.nodes) == [victim]
        assert truth.first_round == truth.last_round
        assert not truth.empty


def _event(kind, node, round_no, seq, **data):
    return TraceEvent(kind, node, round_no, seq, data)


class TestSharedPredicates:
    @pytest.mark.parametrize(
        "element, nodes, links, expected",
        [
            (3, {3}, set(), True),
            (3, set(), {(3, 4)}, True),
            (3, {4}, {(4, 5)}, False),
            ((3, 4), set(), {(3, 4)}, True),
            ((3, 4), {4}, set(), True),
            ((3, 4), set(), {(4, 5)}, False),
        ],
    )
    def test_covers(self, element, nodes, links, expected):
        assert covers(element, nodes, links) is expected

    def test_failed_link_next_to_a_faulty_node_needs_the_pattern(self):
        """A failed link adjacent to a truly faulty node is detected only
        when some pattern reflects it: an empty pattern detects nothing."""
        events = [
            _event(EV_MODE_SELECTED, n, 0, n, failed_nodes=[],
                   failed_links=[], placement_hosts=[0, 3])
            for n in (0, 1, 2, 4)
        ]
        events += [
            _event(EV_FAULT_INJECTED, 3, 5, 10, target=3, behavior="Crash"),
            _event(EV_FAULT_INJECTED, 3, 5, 11, link=[3, 4]),
            _event(EV_EPOCH_ADVANCE, 0, 6, 12, digest="d1", items=1,
                   pattern_nodes=[], pattern_links=[]),
        ]
        decomposition = reconstruct(events)
        assert decomposition.truth.nodes == {3: 5}
        assert decomposition.truth.links == {(3, 4): 5}
        assert decomposition.detection_round is None
        assert decomposition.detected == {}
        assert set(decomposition.per_node) == {0, 1, 2, 4}
        assert all(
            nr.detection_round is None
            for nr in decomposition.per_node.values()
        )

    def test_transient_corruption_is_no_fault(self):
        """A corrupted correct node stays correct, as it does for the live
        monitor: only the compromise counts as ground truth."""
        events = [
            _event(EV_FAULT_INJECTED, 2, 5, 0, target=2, behavior="CrashBehavior"),
            _event(EV_FAULT_INJECTED, 0, 7, 1, target=0,
                   behavior=CORRUPTION_BEHAVIOR + "evidence-bitflip"),
        ]
        assert extract_ground_truth(events).nodes == {2: 5}

    def test_runtime_corruption_event_is_no_fault(self):
        """The event ``corrupt_now`` records is the one the trace reader
        leaves out of the ground truth."""
        workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
            target_utilization=1.5
        )
        config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
        recorder = FlightRecorder()
        recorder.install()
        try:
            system = ReboundSystem(grid_topology(2, 3), workload, config, seed=0)
            system.run(2)
            system.corrupt_now(0, CORRUPTIONS[sorted(CORRUPTIONS)[0]](seed=1))
            system.run(1)
        finally:
            recorder.uninstall()
        injected = [e for e in recorder.events() if e.kind == EV_FAULT_INJECTED]
        assert [e.node for e in injected] == [0]
        assert extract_ground_truth(recorder.events()).empty


class TestEquivocationDivergence:
    def test_gap_preset_shows_divergent_evidence(self):
        """The ROADMAP's known equivocation gap, made visible: under
        heartbeat equivocation on REBOUND-MULTI, correct nodes end on
        different evidence digests.  The divergence report is the
        diagnosis aid, not a pass/fail gate."""
        from repro.experiments.trace_run import run_trace

        result = run_trace(
            preset="equivocation-gap", jsonl_path="", chrome_path=""
        )
        divergence = result["divergence"]
        assert divergence["divergent"]
        assert len(divergence["digest_groups"]) > 1
        # Every analyzed node reports a final digest + normalized pattern.
        for info in divergence["per_node"].values():
            assert info["digest"]
            assert info["pattern_nodes"] is not None
        assert result["live_matches_trace"]

    def test_no_divergence_on_clean_crash(self):
        recorder, _, _, _ = _run_crash_episode(grid_topology(2, 3))
        report = divergence_report(recorder.events())
        assert not report["divergent"]
        assert len(report["digest_groups"]) == 1
