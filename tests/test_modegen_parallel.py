"""Parallel/serial equivalence of the mode-tree generation engine.

The engine's contract (docs/PROTOCOL.md "Offline scheduling performance")
is that every optimization is invisible in the results:

* ``workers=N`` produces a tree *identical* to the serial one (schedules,
  canonical parents, child order, serialized size;
  ``tests/golden/mode_trees.json`` pins whole trees);
* ILP warm starts preserve the cold-solve *objective* (the assignment may
  be a different equally-optimal one);
* ``max_nodes`` budgets are deterministic and reported via ``stopped_by``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.topology import erdos_renyi_topology
from repro.sched.assign import ScheduleBuilder
from repro.sched.ilp import ILPStatus, ZeroOneILP
from repro.sched.modegen import ModeTreeGenerator
from repro.sched.workload import WorkloadGenerator


def _system(n: int, seed: int, util: float = 1.5):
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=util
    )
    return topology, workload


def _assert_trees_identical(a, b):
    assert a.schedules == b.schedules
    assert a.parents == b.parents
    assert a.children == b.children
    assert a.serialized_size() == b.serialized_size()
    assert a == b


class TestParallelEqualsSerial:
    @settings(
        derandomize=True,
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=5, max_value=8),
        seed=st.integers(min_value=0, max_value=20),
        fmax=st.integers(min_value=1, max_value=2),
    )
    def test_parallel_tree_identical_across_random_systems(self, n, seed, fmax):
        topology, workload = _system(n, seed)
        serial = ModeTreeGenerator(topology, workload, fmax=fmax).generate()
        parallel = ModeTreeGenerator(
            topology, workload, fmax=fmax, workers=2
        ).generate()
        _assert_trees_identical(serial, parallel)
        assert parallel.stats.workers == 2
        assert serial.stats.workers == 1

    def test_estimate_parallel_matches_serial(self):
        topology, workload = _system(9, 1)
        s = ModeTreeGenerator(topology, workload, fmax=2).estimate(
            samples_per_layer=4, seed=5
        )
        p = ModeTreeGenerator(topology, workload, fmax=2, workers=2).estimate(
            samples_per_layer=4, seed=5
        )
        assert s.modes_generated == p.modes_generated
        assert s.estimated_total_modes == p.estimated_total_modes
        assert s.estimated_size_bytes == p.estimated_size_bytes
        assert [d["scenarios"] for d in s.per_layer] == [
            d["scenarios"] for d in p.per_layer
        ]


class TestWarmStartObjectiveEquality:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        groups=st.integers(min_value=2, max_value=5),
        nodes=st.integers(min_value=2, max_value=4),
        cap=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_assignment_models(self, groups, nodes, cap, seed):
        """Warm-started solves return the cold objective on random
        assignment-shaped models (exactly-one groups + capacities)."""
        rng = random.Random(seed)
        costs = {
            f"x_{g}_{k}": rng.uniform(-5, 5)
            for g in range(groups)
            for k in range(nodes)
        }

        def build():
            ilp = ZeroOneILP()
            for name, cost in costs.items():
                ilp.add_variable(name, cost=cost)
            for g in range(groups):
                ilp.add_constraint(
                    {f"x_{g}_{k}": 1 for k in range(nodes)}, "==", 1
                )
            for k in range(nodes):
                ilp.add_constraint(
                    {f"x_{g}_{k}": 1 for g in range(groups)}, "<=", cap
                )
            return ilp

        cold = build().solve()
        if cold.status is not ILPStatus.OPTIMAL:
            return  # over-capacitated draw: nothing to compare
        # Greedy warm start: first node with remaining capacity per group.
        load = {k: 0 for k in range(nodes)}
        warm = {}
        for g in range(groups):
            for k in range(nodes):
                if load[k] < cap:
                    load[k] += 1
                    warm[f"x_{g}_{k}"] = 1
                    break
        warmed = build().solve(warm_start=warm)
        assert warmed.status is ILPStatus.OPTIMAL
        assert warmed.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_infeasible_warm_start_is_ignored(self):
        ilp = ZeroOneILP()
        ilp.add_variable("a", cost=-1.0)
        ilp.add_variable("b", cost=-2.0)
        ilp.add_constraint({"a": 1, "b": 1}, "<=", 1)
        sol = ilp.solve(warm_start={"a": 1, "b": 1})
        assert sol.status is ILPStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.0)

    def test_builder_warm_start_same_flows_and_migration_cost(self, monkeypatch):
        """At the ScheduleBuilder level: against the *same* parent, a
        warm-started ILP solve admits the same flows with the same
        transition objective as a cold one (greedy yields no incumbent).
        Across a whole tree the placements -- and hence descendants'
        minimal migration costs -- may legitimately differ."""
        topology, workload = _system(5, 4, util=1.0)
        cold_b = ScheduleBuilder(topology, workload, method="ilp")
        monkeypatch.setattr(cold_b, "_place_greedy", lambda *args: None)
        warm_b = ScheduleBuilder(topology, workload, method="ilp")
        parent = cold_b.build()  # shared parent for both children
        for victim in topology.controllers:
            failed = frozenset({victim})
            c = cold_b.build(failed_nodes=failed, parent=parent)
            w = warm_b.build(failed_nodes=failed, parent=parent)
            assert c.active_flows == w.active_flows
            assert c.dropped_flows == w.dropped_flows
            assert c.migration_cost(parent) == w.migration_cost(parent)
        assert warm_b.counters["ilp_solves"] > 0
        assert warm_b.counters["ilp_warm_proved_optimal"] > 0


class TestDeterministicBudgets:
    def _knapsack(self, n=14, seed=7):
        rng = random.Random(seed)
        ilp = ZeroOneILP()
        weights = {}
        for i in range(n):
            w = rng.randint(3, 19)
            weights[f"v{i}"] = w
            ilp.add_variable(f"v{i}", cost=-float(w + rng.randint(0, 3)))
        ilp.add_constraint(weights, "<=", sum(weights.values()) // 2)
        return ilp

    def test_node_budget_trips_and_is_deterministic(self):
        full = self._knapsack().solve()
        assert full.status is ILPStatus.OPTIMAL
        assert full.stopped_by is None
        assert full.nodes_explored > 10

        limited_a = self._knapsack().solve(max_nodes=10)
        limited_b = self._knapsack().solve(max_nodes=10)
        assert limited_a.stopped_by == "nodes"
        assert limited_a.status in (ILPStatus.NODE_LIMIT,)
        assert limited_a.nodes_explored == limited_b.nodes_explored
        assert limited_a.assignment == limited_b.assignment
        assert limited_a.objective == limited_b.objective

    def test_generous_node_budget_reaches_optimal(self):
        sol = self._knapsack().solve(max_nodes=10_000_000)
        assert sol.status is ILPStatus.OPTIMAL
        assert sol.stopped_by is None
