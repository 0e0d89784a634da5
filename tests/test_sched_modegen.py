"""Tests for mode-tree generation (paper S3.9 / Fig. 7)."""

import math

import pytest

from repro.net.topology import chemical_plant_topology, erdos_renyi_topology
from repro.sched.modegen import (
    EMPTY_SCENARIO,
    FailureScenario,
    ModeTreeGenerator,
    normalize_scenario,
)
from repro.sched.task import chemical_plant_workload
from repro.sched.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def plant_tree():
    topo = chemical_plant_topology()
    wl = chemical_plant_workload()
    gen = ModeTreeGenerator(topo, wl, fmax=2, fconc=1)
    return topo, wl, gen.generate()


class TestScenario:
    def test_with_node_absorbs_links(self):
        s = FailureScenario(nodes=frozenset(), links=frozenset({(1, 2), (3, 4)}))
        s2 = s.with_node(1)
        assert s2.nodes == {1}
        assert s2.links == {(3, 4)}

    def test_with_link_noop_if_node_failed(self):
        s = FailureScenario(nodes=frozenset({1}), links=frozenset())
        assert s.with_link((1, 2)) == s

    def test_with_link_sorts_endpoints(self):
        s = EMPTY_SCENARIO.with_link((5, 2))
        assert s.links == {(2, 5)}

    def test_covers(self):
        big = FailureScenario(nodes=frozenset({1, 2}), links=frozenset({(3, 4)}))
        small = FailureScenario(nodes=frozenset({1}), links=frozenset())
        assert big.covers(small)
        assert not small.covers(big)

    def test_covers_link_implied_by_node(self):
        big = FailureScenario(nodes=frozenset({1}), links=frozenset())
        small = FailureScenario(nodes=frozenset(), links=frozenset({(1, 2)}))
        assert big.covers(small)

    def test_fault_count(self):
        s = FailureScenario(nodes=frozenset({1}), links=frozenset({(2, 3)}))
        assert s.fault_count == 2


class TestNormalize:
    def test_within_budget_unchanged(self):
        s = FailureScenario(nodes=frozenset({1}), links=frozenset())
        assert normalize_scenario(s, fmax=2) == s

    def test_shared_endpoint_blamed(self):
        """Paper S3.2: LFDs on (A,B) and (A,C) with fmax=1 imply A faulty."""
        s = FailureScenario(nodes=frozenset(), links=frozenset({(0, 1), (0, 2)}))
        normalized = normalize_scenario(s, fmax=1)
        assert normalized.nodes == {0}
        assert normalized.links == frozenset()

    def test_budget_respected(self):
        links = frozenset({(0, 1), (0, 2), (3, 4), (3, 5), (6, 7)})
        normalized = normalize_scenario(FailureScenario(frozenset(), links), fmax=3)
        assert normalized.fault_count <= 3


class TestGeneration:
    def test_mode_count_formula(self, plant_tree):
        """Vertices = sum_{i<=fmax} C(n, i) when every mode is feasible."""
        topo, _wl, tree = plant_tree
        n = len(topo.controllers)
        expected = sum(math.comb(n, i) for i in range(3))  # fmax=2
        assert tree.num_modes == expected  # 1 + 4 + 6 = 11

    def test_children_differ_by_one_fault(self, plant_tree):
        _topo, _wl, tree = plant_tree
        for parent, kids in tree.children.items():
            for child in kids:
                assert child.fault_count == parent.fault_count + 1
                assert child.covers(parent)

    def test_root_has_all_flows(self, plant_tree):
        _topo, _wl, tree = plant_tree
        assert tree.schedules[EMPTY_SCENARIO].active_flows == {0, 1, 2, 3}

    def test_deeper_modes_drop_more(self, plant_tree):
        _topo, _wl, tree = plant_tree
        for scenario, schedule in tree.schedules.items():
            if len(scenario.nodes) == 2:
                assert len(schedule.active_flows) <= 3

    def test_schedule_lookup_exact(self, plant_tree):
        topo, _wl, tree = plant_tree
        n2 = topo.node_by_name("N2")
        scenario = FailureScenario(nodes=frozenset({n2}), links=frozenset())
        schedule = tree.schedule_for(scenario)
        assert schedule.failed_nodes == {n2}

    def test_schedule_lookup_normalizes_excess_links(self, plant_tree):
        topo, _wl, tree = plant_tree
        n1 = topo.node_by_name("N1")
        # Three LFDs sharing endpoint N1, budget fmax=2 -> N1 blamed.
        links = frozenset(
            (min(n1, x), max(n1, x)) for x in topo.neighbors(n1) if x in topo.controllers
        )
        scenario = FailureScenario(nodes=frozenset(), links=links)
        schedule = tree.schedule_for(scenario)
        assert n1 in schedule.failed_nodes

    def test_schedule_lookup_unknown_falls_back(self, plant_tree):
        _topo, _wl, tree = plant_tree
        # A link-fault scenario that was never generated (tree is node-only).
        scenario = FailureScenario(nodes=frozenset(), links=frozenset({(0, 1)}))
        schedule = tree.schedule_for(scenario)
        assert schedule is not None  # falls back to a covering ancestor

    def test_serialized_size_positive_and_monotone(self):
        topo = chemical_plant_topology()
        wl = chemical_plant_workload()
        t1 = ModeTreeGenerator(topo, wl, fmax=1, fconc=1).generate()
        t2 = ModeTreeGenerator(topo, wl, fmax=2, fconc=1).generate()
        assert 0 < t1.serialized_size() < t2.serialized_size()

    def test_depth(self, plant_tree):
        topo, _wl, tree = plant_tree
        n1, n2 = topo.node_by_name("N1"), topo.node_by_name("N2")
        two = FailureScenario(nodes=frozenset({n1, n2}), links=frozenset())
        assert tree.depth_of(EMPTY_SCENARIO) == 0
        assert tree.depth_of(two) == 2

    def test_link_fault_schedule_built_on_demand(self):
        """The tree precomputes node faults only; a link-fault scenario is
        built on demand against the root and kept as an on-demand entry."""
        topo = chemical_plant_topology()
        wl = chemical_plant_workload()
        gen = ModeTreeGenerator(topo, wl, fmax=1, fconc=1)
        tree = gen.generate()
        assert not any(s.links for s in tree.schedules)
        link = tuple(sorted(next(iter(topo.p2p_links))))
        scenario = EMPTY_SCENARIO.with_link(link)
        schedule = tree.schedule_for(scenario)
        assert schedule == gen.builder.build(
            failed_links=[link], parent=tree.schedules[EMPTY_SCENARIO]
        )
        assert schedule.failed_links == {link}
        assert scenario in tree.ondemand
        assert tree.parents[scenario] == EMPTY_SCENARIO
        assert tree.schedule_for(scenario) is schedule

    def test_ondemand_build_refuses_only_infeasible(self, monkeypatch):
        """Only InfeasibleSchedule falls back to the covering ancestor; any
        other builder error is a bug and propagates."""
        from repro.sched.assign import InfeasibleSchedule

        topo = chemical_plant_topology()
        wl = chemical_plant_workload()
        gen = ModeTreeGenerator(topo, wl, fmax=1, fconc=1)
        tree = gen.generate()
        link = tuple(sorted(next(iter(topo.p2p_links))))
        scenario = EMPTY_SCENARIO.with_link(link)

        def planted_bug(**kwargs):
            raise RuntimeError("planted builder bug")

        monkeypatch.setattr(gen.builder, "build", planted_bug)
        with pytest.raises(RuntimeError, match="planted"):
            tree.schedule_for(scenario)
        assert scenario not in tree.schedules

        def infeasible(**kwargs):
            raise InfeasibleSchedule("no schedule")

        monkeypatch.setattr(gen.builder, "build", infeasible)
        assert tree.schedule_for(scenario) is tree.schedules[EMPTY_SCENARIO]
        assert scenario not in tree.schedules

    def test_invalid_fmax_rejected(self):
        topo = chemical_plant_topology()
        wl = chemical_plant_workload()
        with pytest.raises(ValueError):
            ModeTreeGenerator(topo, wl, fmax=-1)


class TestEstimator:
    def test_estimate_matches_layer_formula(self):
        topo = erdos_renyi_topology(20, seed=4)
        wl = WorkloadGenerator(seed=1).workload(target_utilization=4.0)
        gen = ModeTreeGenerator(topo, wl, fmax=2, fconc=1)
        stats = gen.estimate(samples_per_layer=4)
        n = len(topo.controllers)
        assert stats.estimated_total_modes == 1 + n + math.comb(n, 2)
        assert stats.estimated_total_time_s > 0
        assert stats.estimated_size_bytes > 0

    def test_estimate_scales_with_fmax(self):
        topo = erdos_renyi_topology(15, seed=5)
        wl = WorkloadGenerator(seed=2).workload(target_utilization=3.0)
        s1 = ModeTreeGenerator(topo, wl, fmax=1, fconc=1).estimate(samples_per_layer=3)
        s2 = ModeTreeGenerator(topo, wl, fmax=2, fconc=1).estimate(samples_per_layer=3)
        assert s2.estimated_total_modes > s1.estimated_total_modes
        assert s2.estimated_size_bytes > s1.estimated_size_bytes
