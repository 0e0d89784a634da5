"""Tests for per-mode schedule construction (greedy + ILP paths)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import (
    chemical_plant_topology,
    erdos_renyi_topology,
    fully_connected_topology,
)
from repro.sched.assign import InfeasibleSchedule, ModeSchedule, ScheduleBuilder
from repro.sched.modegen import ModeTreeGenerator
from repro.sched.task import chemical_plant_workload
from repro.sched.workload import WorkloadGenerator


@pytest.fixture
def topo():
    return chemical_plant_topology()


@pytest.fixture
def workload():
    return chemical_plant_workload()


def _assert_valid(schedule, builder):
    """Structural invariants every mode schedule must satisfy."""
    topology, workload = builder.topology, builder.workload
    # 1. Placement only on surviving controllers.
    for copy, node in schedule.placements.items():
        assert node in topology.controllers
        assert node not in schedule.failed_nodes
    # 2. Anti-affinity: all copies of a task on distinct nodes.
    by_task = {}
    for (task_id, copy_idx), node in schedule.placements.items():
        by_task.setdefault(task_id, []).append(node)
    for task_id, nodes in by_task.items():
        assert len(nodes) == len(set(nodes)), f"task {task_id} copies colocated"
    # 3. Utilization cap respected on every node.
    for node in topology.controllers:
        assert schedule.utilization_of(node, workload) <= builder.utilization_cap + 1e-9
    # 4. Every active flow fully placed with fconc replicas per task.
    for flow_id in schedule.active_flows:
        flow = workload.flows[flow_id]
        for task in flow.tasks:
            for copy_idx in range(builder.fconc + 1):
                assert (task.task_id, copy_idx) in schedule.placements
    # 5. Dropped and active flows partition the workload.
    assert schedule.active_flows | schedule.dropped_flows == set(workload.flows)
    assert not schedule.active_flows & schedule.dropped_flows


class TestFaultFreeMode:
    @pytest.mark.parametrize("method", ["greedy", "ilp"])
    def test_all_flows_active(self, topo, workload, method):
        builder = ScheduleBuilder(topo, workload, fconc=1, method=method)
        schedule = builder.build()
        _assert_valid(schedule, builder)
        # 8 tasks x 0.2 x 2 copies = 3.2 <= 4 nodes x 0.9: everything fits.
        assert schedule.active_flows == {0, 1, 2, 3}
        assert len(schedule.placements) == 16

    def test_fconc_zero_places_primaries_only(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=0)
        schedule = builder.build()
        _assert_valid(schedule, builder)
        assert len(schedule.placements) == 8

    def test_fconc_two_three_replicas(self, topo, workload):
        # 8 tasks x 0.2 x 3 = 4.8 > 3.6 available: some flow must drop.
        builder = ScheduleBuilder(topo, workload, fconc=2)
        schedule = builder.build()
        _assert_valid(schedule, builder)
        assert 3 not in schedule.active_flows  # the low-criticality monitor


class TestFaultModes:
    @pytest.mark.parametrize("method", ["greedy", "ilp"])
    def test_one_node_fails_drops_least_critical(self, topo, workload, method):
        """Paper Fig. 3: after one controller fails, monitor flow is dropped."""
        builder = ScheduleBuilder(topo, workload, fconc=1, method=method)
        n2 = topo.node_by_name("N2")
        schedule = builder.build(failed_nodes=[n2])
        _assert_valid(schedule, builder)
        # 3 nodes x 0.9 = 2.7 capacity; full workload needs 3.2. Drop monitor.
        assert schedule.active_flows == {0, 1, 2}
        assert schedule.dropped_flows == {3}

    def test_two_nodes_fail_drops_two_flows(self, topo, workload):
        """Paper Fig. 3: after N2 then N1 fail, only the two most critical
        flows survive."""
        builder = ScheduleBuilder(topo, workload, fconc=1)
        n1, n2 = topo.node_by_name("N1"), topo.node_by_name("N2")
        schedule = builder.build(failed_nodes=[n1, n2])
        _assert_valid(schedule, builder)
        # 2 nodes x 0.9 = 1.8; alarm+burner = 3 tasks x 0.2 x 2 = 1.2 fits;
        # adding valve (0.8 more) would exceed.
        assert schedule.active_flows == {0, 1}
        assert schedule.dropped_flows == {2, 3}

    def test_all_controllers_failed_raises(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=1)
        with pytest.raises(InfeasibleSchedule):
            builder.build(failed_nodes=topo.controllers)

    def test_failed_link_reroutes_or_drops(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=1)
        n1, n2 = topo.node_by_name("N1"), topo.node_by_name("N2")
        schedule = builder.build(failed_links=[(n1, n2)])
        _assert_valid(schedule, builder)
        # The mesh keeps everything connected; full workload still fits.
        assert schedule.active_flows == {0, 1, 2, 3}

    def test_partition_drops_unreachable_flows(self):
        """Severing connectivity drops flows whose endpoints split apart."""
        from repro.net.topology import ROLE_ACTUATOR, ROLE_SENSOR, Topology
        from repro.sched.task import CRITICALITY_HIGH, Flow, MS, Task, Workload

        # sensor(3) -- c0 -- c1 -- actuator(4); c1 is the only path to the
        # actuator, so failing c1 strands the flow.
        topo = Topology()
        topo.add_node(0)
        topo.add_node(1)
        topo.add_node(3, role=ROLE_SENSOR, name="S")
        topo.add_node(4, role=ROLE_ACTUATOR, name="A")
        topo.add_link(3, 0)
        topo.add_link(0, 1)
        topo.add_link(1, 4)
        task = Task(task_id=1, flow_id=0, name="T1", period_us=40 * MS,
                    wcet_us=8 * MS, deadline_us=40 * MS)
        wl = Workload([
            Flow(flow_id=0, name="f", criticality=CRITICALITY_HIGH,
                 tasks=(task,), sensors=(3,), actuators=(4,)),
        ])
        builder = ScheduleBuilder(topo, wl, fconc=0)
        ok = builder.build()
        assert ok.active_flows == {0}
        broken = builder.build(failed_nodes=[1])
        assert broken.active_flows == set()
        assert broken.dropped_flows == {0}


class TestTransitionCosts:
    def test_parent_placement_preserved_when_possible(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=1)
        root = builder.build()
        n2 = topo.node_by_name("N2")
        child = builder.build(failed_nodes=[n2], parent=root)
        # Copies not previously on N2 and still active should mostly stay put.
        stayed = moved = 0
        for copy, node in child.placements.items():
            old = root.placements.get(copy)
            if old is None or old == n2:
                continue
            if node == old:
                stayed += 1
            else:
                moved += 1
        assert stayed > moved

    def test_ilp_no_worse_than_greedy(self, topo, workload):
        greedy = ScheduleBuilder(topo, workload, fconc=1, method="greedy")
        ilp = ScheduleBuilder(topo, workload, fconc=1, method="ilp")
        root_g = greedy.build()
        n2 = topo.node_by_name("N2")
        child_g = greedy.build(failed_nodes=[n2], parent=root_g)
        child_i = ilp.build(failed_nodes=[n2], parent=root_g)
        if child_i.active_flows == child_g.active_flows:
            assert child_i.migration_cost(root_g) <= child_g.migration_cost(root_g)

    def test_migration_cost_metric(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=0)
        a = builder.build()
        assert a.migration_cost(a) == 0


class TestScheduleAccessors:
    def test_primary_and_replicas(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=1)
        schedule = builder.build()
        assert schedule.primary_of(1) is not None
        assert len(schedule.replicas_of(1)) == 1
        assert schedule.primary_of(1) != schedule.replicas_of(1)[0]

    def test_copies_on_node(self, topo, workload):
        builder = ScheduleBuilder(topo, workload, fconc=1)
        schedule = builder.build()
        total = sum(len(schedule.copies_on(n)) for n in topo.controllers)
        assert total == len(schedule.placements)

    def test_invalid_args_rejected(self, topo, workload):
        with pytest.raises(ValueError):
            ScheduleBuilder(topo, workload, fconc=-1)
        with pytest.raises(ValueError):
            ScheduleBuilder(topo, workload, method="magic")


class TestGreedyIncumbent:
    """The ILP starts from the greedy placement, so a tripped node budget
    can no longer drop a flow that greedy would have kept."""

    def test_er7_ilp_tree_keeps_every_flow(self):
        # Cold solves of modes {5} and {6} once exhausted the 1 M-node
        # budget with no incumbent and dropped flow 2.
        topology = erdos_renyi_topology(7, seed=0)
        workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
            target_utilization=1.5
        )
        tree = ModeTreeGenerator(topology, workload, fmax=1, method="ilp").generate()
        assert tree.num_modes == 8
        for scenario, schedule in tree.schedules.items():
            assert schedule.active_flows == {0, 1, 2}, scenario

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=8),
        seed=st.integers(min_value=0, max_value=50),
        util=st.sampled_from([1.0, 1.5, 2.0]),
        victim=st.integers(min_value=0, max_value=7),
    )
    def test_ilp_places_whenever_greedy_does(self, n, seed, util, victim):
        topology = erdos_renyi_topology(n, seed=seed)
        workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
            target_utilization=util
        )
        builder = ScheduleBuilder(topology, workload, method="ilp", ilp_node_budget=50)
        parent = ScheduleBuilder(topology, workload).build()
        failed = frozenset({topology.controllers[victim % n]})
        graph = builder.surviving_graph(failed, frozenset())
        available = [c for c in topology.controllers if c not in failed]
        candidates = {
            f.flow_id: builder._flow_component_nodes(f, graph, available)
            for f in workload.normal_flows()
        }
        flows = [f for f in workload.normal_flows() if candidates[f.flow_id]]
        for k in range(1, len(flows) + 1):
            args = (flows[:k], available, parent, candidates)
            if builder._place_greedy(*args) is not None:
                assert builder._place_ilp(*args) is not None, k
