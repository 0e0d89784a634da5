"""Per-mode task assignment (paper S3.9).

A *mode schedule* maps every task of every active flow -- plus ``fconc``
replicas of each -- to specific controllers, subject to:

1. **EDF schedulability**: each controller's utilization (primaries +
   replicas + the REBOUND protocol task) stays within its cap.  Replica
   audit work costs the same as the primary (deterministic replay re-executes
   the task, S5.5), so replicas count at full utilization.
2. **Replica anti-affinity**: no controller hosts two copies of one task.
3. **Fault avoidance**: failed controllers host nothing; failed links are
   removed from the connectivity graph.
4. **Connectivity**: an active flow's sensors, task hosts, and actuators
   must lie in one surviving component.
5. **Criticality triage**: when the full flow set is infeasible, flows are
   dropped from least to most critical until the rest fits.
6. **Transition cost**: task copies keep their parent-mode placement when
   possible (migrations are minimized -- exactly with the ILP, greedily
   otherwise).

Two builders share these checks: a greedy first-fit scheduler (used for the
large Fig. 7/9 sweeps) and an exact ILP scheduler on the from-scratch
branch-and-bound solver (the Gurobi substitute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.net.message import register_message
from repro.net.topology import Topology
from repro.sched.ilp import ILPStatus, ZeroOneILP
from repro.sched.task import Flow, Task, Workload

# A copy is (task_id, copy_index); copy 0 is the primary, 1..fconc replicas.
Copy = Tuple[int, int]


@register_message
@dataclass(frozen=True)
class ModeSchedule:
    """The schedule for one failure scenario.

    Attributes:
        failed_nodes: controllers known faulty in this mode.
        failed_links: links known faulty, as sorted (a, b) tuples.
        placements: mapping from (task_id, copy_index) to controller id.
        active_flows: flows that remain scheduled in this mode.
        dropped_flows: flows deactivated for lack of resources/connectivity.
    """

    failed_nodes: FrozenSet[int]
    failed_links: FrozenSet[Tuple[int, int]]
    placements: Dict[Copy, int]
    active_flows: FrozenSet[int]
    dropped_flows: FrozenSet[int]

    def primary_of(self, task_id: int) -> Optional[int]:
        return self.placements.get((task_id, 0))

    def replicas_of(self, task_id: int) -> List[int]:
        return [
            node
            for (tid, copy), node in sorted(self.placements.items())
            if tid == task_id and copy > 0
        ]

    def copies_on(self, node: int) -> List[Copy]:
        return sorted(c for c, n in self.placements.items() if n == node)

    def utilization_of(self, node: int, workload: Workload) -> float:
        return sum(
            workload.task(task_id).utilization
            for (task_id, _copy), host in self.placements.items()
            if host == node
        )

    def migration_cost(self, other: "ModeSchedule") -> int:
        """Number of task copies placed differently than in ``other``."""
        moved = 0
        for copy, node in self.placements.items():
            previous = other.placements.get(copy)
            if previous is not None and previous != node:
                moved += 1
        return moved


class InfeasibleSchedule(Exception):
    """No schedule exists even after dropping all but zero flows."""


class ScheduleBuilder:
    """Builds mode schedules over a topology + workload.

    Args:
        topology: the physical network (controllers host tasks).
        workload: the flow set.
        fconc: number of replicas per task (paper's concurrent-fault bound).
        utilization_cap: per-node EDF budget after reserving protocol
            overhead (paper folds REBOUND's crypto costs into WCETs; we
            reserve headroom instead, equivalent at the schedulability
            level).
        method: ``"greedy"`` or ``"ilp"``.
        pinned_primaries: task_id -> preferred controller for the primary
            copy (used by case studies to model a function's natural home,
            e.g. cruise control on the ECM); honored when feasible, ignored
            when the node is failed or full.
        ilp_node_budget: deterministic branch-and-bound node budget passed
            to every ILP solve; makes solver outcomes (and thus mode
            trees) machine-independent, unlike the wall-clock limit.
        ilp_time_limit_s: wall-clock safety net behind the node budget.

    Building is deterministic: equal inputs give equal schedules, so every
    node (and every modegen worker) computes the same mode without
    coordination.
    """

    def __init__(
        self,
        topology: Topology,
        workload: Workload,
        fconc: int = 1,
        utilization_cap: float = 0.9,
        method: str = "greedy",
        pinned_primaries: Optional[Dict[int, int]] = None,
        ilp_node_budget: Optional[int] = 1_000_000,
        ilp_time_limit_s: float = 20.0,
    ):
        if fconc < 0:
            raise ValueError("fconc must be non-negative")
        if method not in ("greedy", "ilp"):
            raise ValueError(f"unknown method {method!r}")
        self.topology = topology
        self.workload = workload
        self.fconc = fconc
        self.utilization_cap = utilization_cap
        self.method = method
        self.pinned_primaries = dict(pinned_primaries or {})
        self.ilp_node_budget = ilp_node_budget
        self.ilp_time_limit_s = ilp_time_limit_s
        #: Per-builder counters; parallel modegen workers ship their
        #: deltas back to the parent.
        self.counters: Dict[str, int] = {
            "builds": 0,
            "place_calls": 0,
            "ilp_solves": 0,
            "ilp_nodes_explored": 0,
            "ilp_warm_proved_optimal": 0,
            "ilp_budget_trips": 0,
        }

    # -- scenario geometry ------------------------------------------------

    def surviving_graph(
        self, failed_nodes: FrozenSet[int], failed_links: FrozenSet[Tuple[int, int]]
    ) -> nx.Graph:
        g = self.topology.graph().copy()
        g.remove_nodes_from(failed_nodes)
        for a, b in failed_links:
            if g.has_edge(a, b):
                g.remove_edge(a, b)
        return g

    def _controller_components(self, graph: nx.Graph) -> List[Set[int]]:
        """Connected components of the *controller* subgraph.

        Only controllers relay protocol traffic (devices are endpoints), so
        a controller whose every controller-link has failed cannot host
        tasks even if bus edges to devices survive: it can no longer
        exchange heartbeats, evidence, or audit traffic with anyone.
        """
        controllers = [c for c in self.topology.controllers if c in graph]
        sub = graph.subgraph(controllers)
        return [set(c) for c in nx.connected_components(sub)]

    def _flow_component_nodes(
        self, flow: Flow, graph: nx.Graph, available: Sequence[int]
    ) -> Optional[List[int]]:
        """Controllers usable for ``flow``.

        A flow is placeable in a controller component C iff each of its
        sensors and actuators is directly attached (surviving edge) to some
        member of C.  Components are tried largest-first (deterministic
        tie-break on smallest member id), matching the goal of keeping as
        many flows alive as possible.
        """
        endpoints = [n for n in (*flow.sensors, *flow.actuators)]
        if any(e not in graph for e in endpoints):
            return None  # an endpoint was removed (failed sensor/actuator)
        components = sorted(
            self._controller_components(graph),
            key=lambda c: (-len(c), min(c)),
        )
        for component in components:
            usable = [n for n in available if n in component]
            if not usable:
                continue
            if all(
                any(graph.has_edge(e, c) for c in component) for e in endpoints
            ):
                return usable
        return None

    # -- public API --------------------------------------------------------

    def build(
        self,
        failed_nodes: Iterable[int] = (),
        failed_links: Iterable[Tuple[int, int]] = (),
        parent: Optional[ModeSchedule] = None,
    ) -> ModeSchedule:
        """Build the schedule for a failure scenario.

        Flows are admitted most-critical-first; a flow that cannot be placed
        (capacity or connectivity) is dropped, and placement is retried with
        the remaining set.  Raises :class:`InfeasibleSchedule` only if even
        the empty flow set fails (cannot happen with >= 1 live controller).
        """
        failed_node_set = frozenset(failed_nodes)
        failed_link_set = frozenset(tuple(sorted(l)) for l in failed_links)
        graph = self.surviving_graph(failed_node_set, failed_link_set)
        available = [c for c in self.topology.controllers if c not in failed_node_set]
        if not available:
            raise InfeasibleSchedule("no surviving controllers")
        self.counters["builds"] += 1

        # Per-flow candidate sets depend only on the scenario, not on the
        # admitted prefix; compute each once per build instead of once per
        # admission trial (connected components are the dominant cost).
        candidate_cache: Dict[int, Optional[List[int]]] = {}

        def candidates(flow: Flow) -> Optional[List[int]]:
            if flow.flow_id not in candidate_cache:
                candidate_cache[flow.flow_id] = self._flow_component_nodes(
                    flow, graph, available
                )
            return candidate_cache[flow.flow_id]

        admitted: List[Flow] = []
        dropped: Set[int] = set()
        placements: Optional[Dict[Copy, int]] = None

        def try_admit(flow: Flow) -> None:
            nonlocal admitted, placements
            if candidates(flow) is None:
                dropped.add(flow.flow_id)
                return
            trial = admitted + [flow]
            result = self._place(trial, available, parent, candidate_cache)
            if result is None:
                dropped.add(flow.flow_id)
            else:
                admitted = trial
                placements = result

        normal = self.workload.normal_flows()
        if self.method == "ilp":
            # The exact solver admits every placeable flow anyway when the
            # full set fits (any prefix of a feasible set is feasible), so
            # one solve replaces the per-flow loop and produces the
            # identical final placement; only unplaceable flows remain.
            placeable = [f for f in normal if candidates(f) is not None]
            result = (
                self._place(placeable, available, parent, candidate_cache)
                if placeable
                else None
            )
            if result is not None:
                admitted, placements = placeable, result
                normal = [f for f in normal if candidates(f) is None]
        for flow in normal:
            try_admit(flow)
        # Emergency substitutes (paper S2.7): active only while the flow
        # they stand in for is dropped.
        admitted_ids = {f.flow_id for f in admitted}
        for flow in self.workload.emergency_flows():
            if flow.emergency_for in admitted_ids:
                dropped.add(flow.flow_id)
            else:
                try_admit(flow)
        if placements is None:
            placements = {}
        return ModeSchedule(
            failed_nodes=failed_node_set,
            failed_links=failed_link_set,
            placements=placements,
            active_flows=frozenset(f.flow_id for f in admitted),
            dropped_flows=frozenset(dropped),
        )

    # -- placement engines ----------------------------------------------------

    def _place(
        self,
        flows: Sequence[Flow],
        available: Sequence[int],
        parent: Optional[ModeSchedule],
        candidate_cache: Dict[int, Optional[List[int]]],
    ) -> Optional[Dict[Copy, int]]:
        """Place ``flows``, each with a candidate list in ``candidate_cache``."""
        self.counters["place_calls"] += 1
        per_flow_candidates = {f.flow_id: candidate_cache[f.flow_id] for f in flows}
        if self.method == "ilp":
            return self._place_ilp(flows, available, parent, per_flow_candidates)
        return self._place_greedy(flows, available, parent, per_flow_candidates)

    def _copies(self, flows: Sequence[Flow]) -> List[Tuple[Copy, Task, Flow]]:
        out: List[Tuple[Copy, Task, Flow]] = []
        for flow in flows:
            for task in flow.tasks:
                for copy_idx in range(self.fconc + 1):
                    out.append(((task.task_id, copy_idx), task, flow))
        return out

    def _place_greedy(
        self,
        flows: Sequence[Flow],
        available: Sequence[int],
        parent: Optional[ModeSchedule],
        per_flow_candidates: Dict[int, List[int]],
    ) -> Optional[Dict[Copy, int]]:
        load: Dict[int, float] = {n: 0.0 for n in available}
        placements: Dict[Copy, int] = {}
        # Place heaviest tasks first (first-fit decreasing), primaries before
        # replicas so primaries get the parent-preferred slots.
        copies = sorted(
            self._copies(flows),
            key=lambda item: (item[0][1], -item[1].utilization, item[0][0]),
        )
        for copy, task, flow in copies:
            candidates = per_flow_candidates[flow.flow_id]
            taken = {
                placements[(task.task_id, c)]
                for c in range(self.fconc + 1)
                if (task.task_id, c) in placements
            }
            preferred = parent.placements.get(copy) if parent else None
            if preferred is None and copy[1] == 0:
                preferred = self.pinned_primaries.get(task.task_id)

            def rank(node: int) -> Tuple[int, float, int]:
                # Prefer the parent's (or pinned) placement, then least-loaded.
                return (0 if node == preferred else 1, load[node], node)

            placed = False
            for node in sorted(candidates, key=rank):
                if node in taken:
                    continue
                if load[node] + task.utilization <= self.utilization_cap + 1e-9:
                    placements[copy] = node
                    load[node] += task.utilization
                    placed = True
                    break
            if not placed:
                return None
        return placements

    def _place_ilp(
        self,
        flows: Sequence[Flow],
        available: Sequence[int],
        parent: Optional[ModeSchedule],
        per_flow_candidates: Dict[int, List[int]],
    ) -> Optional[Dict[Copy, int]]:
        copies = self._copies(flows)
        # Aggregate-capacity precheck: no assignment exists when the copies
        # need more than every candidate node's budget combined.
        hosts = set().union(*(per_flow_candidates[f.flow_id] for f in flows))
        demand = sum(task.utilization for _copy, task, _flow in copies)
        if demand > (self.utilization_cap + 1e-9) * len(hosts):
            return None
        ilp = ZeroOneILP()
        var_names: Dict[Tuple[Copy, int], str] = {}
        for copy, task, flow in copies:
            for node in per_flow_candidates[flow.flow_id]:
                preferred = parent.placements.get(copy) if parent else None
                cost = 0.0 if preferred is None or node == preferred else 1.0
                name = f"x_{copy[0]}_{copy[1]}_{node}"
                ilp.add_variable(name, cost=cost)
                var_names[(copy, node)] = name
        # Each copy placed exactly once.
        for copy, task, flow in copies:
            coeffs = {
                var_names[(copy, node)]: 1.0
                for node in per_flow_candidates[flow.flow_id]
            }
            ilp.add_constraint(coeffs, "==", 1.0)
        # Anti-affinity: copies of one task on distinct nodes.
        by_task: Dict[int, List[Tuple[Copy, Task, Flow]]] = {}
        for item in copies:
            by_task.setdefault(item[0][0], []).append(item)
        for task_id, items in by_task.items():
            flow = items[0][2]
            for node in per_flow_candidates[flow.flow_id]:
                coeffs = {var_names[(item[0], node)]: 1.0 for item in items}
                ilp.add_constraint(coeffs, "<=", 1.0)
        # Capacity per node.
        for node in available:
            coeffs = {}
            for copy, task, flow in copies:
                if node in per_flow_candidates[flow.flow_id]:
                    coeffs[var_names[(copy, node)]] = task.utilization
            if coeffs:
                ilp.add_constraint(coeffs, "<=", self.utilization_cap)
        # The greedy placement seeds the incumbent: it prunes from node one,
        # a GUB bound can prove it optimal with no search, and a tripped
        # budget still returns a placement whenever greedy found one.
        warm_start: Optional[Dict[str, int]] = None
        greedy = self._place_greedy(flows, available, parent, per_flow_candidates)
        if greedy is not None:
            warm_start = {
                name: 1 if greedy.get(copy) == node else 0
                for (copy, node), name in var_names.items()
            }
        self.counters["ilp_solves"] += 1
        solution = ilp.solve(
            time_limit_s=self.ilp_time_limit_s,
            max_nodes=self.ilp_node_budget,
            warm_start=warm_start,
        )
        self.counters["ilp_nodes_explored"] += solution.nodes_explored
        if warm_start is not None and solution.nodes_explored == 0:
            self.counters["ilp_warm_proved_optimal"] += 1
        if solution.stopped_by is not None:
            self.counters["ilp_budget_trips"] += 1
        if solution.status == ILPStatus.INFEASIBLE or not solution.assignment:
            return None
        placements: Dict[Copy, int] = {}
        for (copy, node), name in var_names.items():
            if solution.assignment.get(name) == 1:
                placements[copy] = node
        return placements
