"""Unit tests for the BTR invariant monitor."""

from dataclasses import replace

import pytest

from repro.chaos import (
    BTRMonitor,
    ChaosRoundNetwork,
    DetectionTimeoutViolation,
    ImpairmentPlan,
    RecoveryTimeoutViolation,
)
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator


def _build(seed=0, n=6, variant="multi", plan=None, budget=None):
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=2, fconc=1, variant=variant, rsa_bits=256)
    factory = None
    if plan is not None:
        factory = lambda t: ChaosRoundNetwork(t, plan, budget=budget)
    system = ReboundSystem(
        topology, workload, config, seed=seed, network_factory=factory
    )
    system.run(10)
    return system


class TestCleanRuns:
    def test_fault_free_run_is_silent(self):
        system = _build()
        system.attach_monitor(BTRMonitor())
        system.run(8)
        assert system.monitor.violations == []
        assert system.monitor.detection_round is None
        assert system.monitor.recovery_round is None

    def test_crash_within_bounds_is_silent(self):
        """A crash inside the budget must satisfy all three requirements --
        the monitor raising anything here is itself the test failure."""
        system = _build()
        monitor = BTRMonitor()
        system.attach_monitor(monitor)
        system.inject_now(system.topology.controllers[0], CrashBehavior())
        system.run(14)
        assert monitor.violations == []
        assert monitor.detection_round is not None
        assert monitor.recovery_round is not None
        assert monitor.recovery_round >= monitor.detection_round


class TestViolations:
    def test_detection_timeout_raises_typed_violation(self):
        """An activation that never surfaces in any correct pattern trips
        the Req. 1 deadline with a typed, replayable violation."""
        system = _build()
        monitor = BTRMonitor()
        system.attach_monitor(monitor)
        # Synthetic undetectable element: nothing ever blames node 999.
        activated = system.round_no
        monitor._activations[("node", 999)] = activated
        d_max = system.bounds.d_max
        with pytest.raises(DetectionTimeoutViolation) as err:
            system.run(d_max + 2)
        assert err.value.kind == "detection"
        assert err.value.repro["round"] == activated + d_max + 1
        assert err.value.repro["d_max"] == d_max

    def test_recovery_timeout_raises_typed_violation(self):
        system = _build()
        system.attach_monitor(BTRMonitor(bounds=replace(system.bounds, r_max=0)))
        system.inject_now(system.topology.controllers[0], CrashBehavior())
        with pytest.raises(RecoveryTimeoutViolation) as err:
            system.run(6)
        assert err.value.kind == "recovery"
        assert err.value.repro["r_max"] == 0

    def test_recovery_timeout_names_the_stuck_phase(self):
        """A Req. 2 miss says where each unrecovered node is stuck: with
        r_max = 1, a crash on this 10-node graph leaves a node whose
        evidence has not yet moved it off the crashed host."""
        system = _build(n=10)
        monitor = BTRMonitor(bounds=replace(system.bounds, r_max=1),
                             record_only=True)
        system.attach_monitor(monitor)
        system.inject_now(system.topology.controllers[0], CrashBehavior())
        system.run(6)
        misses = [v for v in monitor.violations if v.kind == "recovery"]
        assert len(misses) == 1
        phases = misses[0].repro["phases"]
        assert phases == {2: "evidence"}
        for node, phase in phases.items():
            assert f"node {node} in {phase}" in str(misses[0])

    def test_node_hit_by_the_environment_leaves_the_episode(self):
        """A node a targeted impairment hits after a crash, before it has
        recovered, leaves the correct set Req. 2 checks, so it leaves the
        decomposition too instead of staying stuck there for good."""
        plan = ImpairmentPlan(seed=0, drop_prob=1.0,
                              target_nodes=frozenset({2}), start_round=12)
        system = _build(n=10, plan=plan)
        monitor = BTRMonitor(record_only=True)
        system.attach_monitor(monitor)
        system.inject_now(system.topology.controllers[0], CrashBehavior())
        system.run(1)
        assert monitor.decomposition.phases()[2] == "detection"
        system.run(13)
        assert set(system.network.chaos_stats.impacted_nodes) == {2}
        decomposition = monitor.decomposition
        assert 2 not in decomposition.per_node
        assert decomposition.phases() == {}
        assert decomposition.convergence_round == 13
        assert monitor.recovery_round is not None
        assert monitor.violations == []

    def test_record_only_collects_instead_of_raising(self):
        system = _build()
        monitor = BTRMonitor(bounds=replace(system.bounds, r_max=0),
                             record_only=True, context={"scenario": "unit-test"})
        system.attach_monitor(monitor)
        system.inject_now(system.topology.controllers[0], CrashBehavior())
        system.run(8)
        assert monitor.violations
        kinds = {v.kind for v in monitor.violations}
        assert "detection" in kinds or "recovery" in kinds
        census = monitor.census()
        assert sum(census.values()) == len(monitor.violations)
        # context is merged into every repro dict
        assert all(
            v.repro["scenario"] == "unit-test" for v in monitor.violations
        )

    def test_violations_deduplicate(self):
        """A violation that persists round after round is recorded once:
        an activation nothing ever reflects keeps recovery unmet past the
        deadline on every one of the rounds run."""
        system = _build()
        monitor = BTRMonitor(bounds=replace(system.bounds, r_max=0),
                             record_only=True)
        system.attach_monitor(monitor)
        system.inject_now(system.topology.controllers[0], CrashBehavior())
        monitor._activations[("node", 999)] = system.round_no
        system.run(10)
        assert monitor.recovery_round is None
        assert [v.kind for v in monitor.violations].count("recovery") == 1
        keys = [
            (v.kind, str(v)) for v in monitor.violations
        ]
        assert len(keys) == len(set(keys))


class TestBudgetArming:
    def test_out_of_budget_disarms_inference_checks(self):
        """Out of budget, only hard accuracy + structural lookup stay armed:
        a global-drop environment must not produce detection/recovery/
        inference violations."""
        plan = ImpairmentPlan(seed=0, drop_prob=0.15, start_round=11)
        system = _build(plan=plan, budget=2)
        monitor = BTRMonitor(in_budget=False, record_only=True)
        system.attach_monitor(monitor)
        system.run(14)
        assert system.budget_exceeded
        kinds = {v.kind for v in monitor.violations}
        assert "detection" not in kinds
        assert "recovery" not in kinds
        assert not any(
            v.repro.get("layer") == "inference" for v in monitor.violations
        )

    def test_in_budget_link_impairment_meets_all_requirements(self):
        topology = erdos_renyi_topology(6, seed=0)
        controllers = set(topology.controllers)
        link = min(
            tuple(sorted(l)) for l in topology.p2p_links
            if set(l) <= controllers
        )
        plan = ImpairmentPlan(
            seed=0, drop_prob=0.8, target_links=frozenset([link]),
            start_round=12,
        )
        system = _build(plan=plan, budget=2)
        monitor = BTRMonitor(in_budget=True, require_detection=True)
        system.attach_monitor(monitor)
        system.run(16)  # raises on any violation
        assert monitor.violations == []
        assert monitor.detection_round is not None
        assert monitor.recovery_round is not None
        assert not system.budget_exceeded
