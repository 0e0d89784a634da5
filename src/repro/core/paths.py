"""Per-mode path computation (paper S3.1, S3.8).

The auditing layer hands the forwarding layer, for each mode m, a set of
paths PATH(m).  For a task tau with upstream tasks alpha_i, downstream
consumers beta_j (tasks or actuators), and replicas rho_1..rho_fconc, four
kinds of paths exist:

1. ``data``  -- alpha_i -> tau and tau -> beta_j: the flow's payload.
2. ``input`` -- tau -> rho_i: the primary forwards its (signed) inputs to
   its replicas for deterministic replay.
3. ``auth``  -- beta_j -> rho_i: downstream consumers forward authenticators
   of tau's outputs to tau's replicas (so replicas see what tau *actually*
   sent, defeating equivocation toward the replicas).
4. ``xrep``  -- rho_i -> rho_j: replicas exchange authenticators of tau's
   inputs and outputs.

Paths are computed deterministically from (topology, mode schedule), so all
correct nodes derive identical path sets without coordination.  Routing uses
BFS with sorted tie-breaking over the *surviving* graph; only controllers
relay, but sensor/actuator endpoints terminate paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.net.message import encode, register_message
from repro.net.topology import Topology
from repro.sched.assign import ModeSchedule
from repro.sched.task import Workload

PATH_DATA = "data"
PATH_INPUT = "input"
PATH_AUTH = "auth"
PATH_XREP = "xrep"

# Pseudo task id used for sensor/actuator endpoints in path descriptors.
DEVICE_TASK = -1


@register_message
@dataclass(frozen=True)
class Path:
    """A unidirectional forwarding path for one mode.

    Attributes:
        path_id: deterministic 63-bit id derived from the descriptor.
        kind: one of ``data``, ``input``, ``auth``, ``xrep``.
        hops: node ids from source to sink, inclusive (length >= 1).
        flow_id: owning flow.
        task_from: producing task id (or DEVICE_TASK for a sensor).
        copy_from: producing copy index (0 = primary).
        task_to: consuming task id (or DEVICE_TASK for an actuator).
        copy_to: consuming copy index.
    """

    path_id: int
    kind: str
    hops: Tuple[int, ...]
    flow_id: int
    task_from: int
    copy_from: int
    task_to: int
    copy_to: int

    @property
    def source(self) -> int:
        return self.hops[0]

    @property
    def sink(self) -> int:
        return self.hops[-1]

    @property
    def length(self) -> int:
        """Number of hops (rounds to traverse)."""
        return len(self.hops) - 1

    def next_hop(self, node: int) -> Optional[int]:
        for i, hop in enumerate(self.hops[:-1]):
            if hop == node:
                return self.hops[i + 1]
        return None

    def position_of(self, node: int) -> Optional[int]:
        try:
            return self.hops.index(node)
        except ValueError:
            return None


def _path_id(descriptor: Tuple) -> int:
    digest = hashlib.sha256(encode(descriptor)).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _bfs_route(graph: nx.Graph, source: int, sink: int) -> Optional[List[int]]:
    """Deterministic shortest path (sorted-neighbor BFS)."""
    if source == sink:
        return [source]
    if source not in graph or sink not in graph:
        return None
    parent: Dict[int, int] = {source: source}
    frontier = [source]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor in sorted(graph.neighbors(node)):
                if neighbor not in parent:
                    parent[neighbor] = node
                    if neighbor == sink:
                        path = [sink]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return None


class PathSet:
    """All paths of one mode, with per-node indices."""

    def __init__(self, paths: Sequence[Path]):
        self.by_id: Dict[int, Path] = {}
        for path in paths:
            if path.path_id in self.by_id and self.by_id[path.path_id] != path:
                raise ValueError(f"path id collision: {path.path_id}")
            self.by_id[path.path_id] = path

    def __len__(self) -> int:
        return len(self.by_id)

    def all(self) -> List[Path]:
        return [self.by_id[k] for k in sorted(self.by_id)]

    def originating_at(self, node: int) -> List[Path]:
        return [p for p in self.all() if p.source == node]

    def through(self, node: int) -> List[Path]:
        return [p for p in self.all() if node in p.hops]

    def terminating_at(self, node: int) -> List[Path]:
        return [p for p in self.all() if p.sink == node]

    def of_kind(self, kind: str) -> List[Path]:
        return [p for p in self.all() if p.kind == kind]


class PathComputer:
    """Computes PATH(m) for mode schedules over a fixed topology/workload."""

    def __init__(self, topology: Topology, workload: Workload, fconc: int):
        self.topology = topology
        self.workload = workload
        self.fconc = fconc

    def _surviving_graph(self, schedule: ModeSchedule) -> nx.Graph:
        g = self.topology.graph().copy()
        g.remove_nodes_from(schedule.failed_nodes)
        for a, b in schedule.failed_links:
            if g.has_edge(a, b):
                g.remove_edge(a, b)
        return g

    def _route(
        self, graph: nx.Graph, source: int, sink: int
    ) -> Optional[List[int]]:
        """Route via live controllers; device endpoints allowed at the ends."""
        controllers = set(self.topology.controllers)
        keep = (controllers | {source, sink}) & set(graph.nodes)
        sub = graph.subgraph(keep)
        return _bfs_route(sub, source, sink)

    def compute(self, schedule: ModeSchedule) -> PathSet:
        graph = self._surviving_graph(schedule)
        paths: List[Path] = []

        def add(kind: str, hops: List[int], flow_id: int, task_from: int,
                copy_from: int, task_to: int, copy_to: int,
                src_device: int = -1, dst_device: int = -1) -> None:
            # Device node ids disambiguate flows with several sensors or
            # actuators; they do not change when tasks migrate, so path ids
            # stay stable across modes.
            descriptor = (kind, flow_id, task_from, copy_from, task_to,
                          copy_to, src_device, dst_device)
            paths.append(
                Path(
                    path_id=_path_id(descriptor),
                    kind=kind,
                    hops=tuple(hops),
                    flow_id=flow_id,
                    task_from=task_from,
                    copy_from=copy_from,
                    task_to=task_to,
                    copy_to=copy_to,
                )
            )

        for flow_id in sorted(schedule.active_flows):
            flow = self.workload.flows[flow_id]
            hosts = {
                task.task_id: schedule.primary_of(task.task_id) for task in flow.tasks
            }
            if any(h is None for h in hosts.values()):
                continue  # defensively skip partially placed flows

            # 1. data: sensors -> entry tasks.
            for task in flow.entry_tasks():
                for sensor in flow.sensors:
                    route = self._route(graph, sensor, hosts[task.task_id])
                    if route:
                        add(PATH_DATA, route, flow_id, DEVICE_TASK, 0,
                            task.task_id, 0, src_device=sensor)
            # 2. data: task -> downstream task.
            for task in flow.tasks:
                for down_id in flow.downstream_of(task.task_id):
                    route = self._route(graph, hosts[task.task_id], hosts[down_id])
                    if route:
                        add(PATH_DATA, route, flow_id, task.task_id, 0, down_id, 0)
            # 3. data: exit tasks -> actuators.
            for task in flow.exit_tasks():
                for actuator in flow.actuators:
                    route = self._route(graph, hosts[task.task_id], actuator)
                    if route:
                        add(PATH_DATA, route, flow_id, task.task_id, 0,
                            DEVICE_TASK, 0, dst_device=actuator)

            # Audit paths, per task (paper S3.8).
            for task in flow.tasks:
                replica_hosts = {
                    copy_idx: schedule.placements.get((task.task_id, copy_idx))
                    for copy_idx in range(1, self.fconc + 1)
                }
                primary = hosts[task.task_id]
                for copy_idx, rho in sorted(replica_hosts.items()):
                    if rho is None:
                        continue
                    # tau -> rho_i (input forwarding).
                    route = self._route(graph, primary, rho)
                    if route:
                        add(PATH_INPUT, route, flow_id, task.task_id, 0,
                            task.task_id, copy_idx)
                    # beta_j -> rho_i (output authenticators), where beta_j is
                    # each downstream task host or actuator.
                    downstream_nodes: List[Tuple[int, int]] = []
                    for down_id in flow.downstream_of(task.task_id):
                        downstream_nodes.append((down_id, hosts[down_id]))
                    if task in flow.exit_tasks():
                        for actuator in flow.actuators:
                            downstream_nodes.append((DEVICE_TASK, actuator))
                    for beta_task, beta_node in downstream_nodes:
                        route = self._route(graph, beta_node, rho)
                        if route:
                            add(PATH_AUTH, route, flow_id, beta_task, 0,
                                task.task_id, copy_idx,
                                src_device=beta_node if beta_task == DEVICE_TASK else -1)
                    # rho_i -> rho_j exchanges.
                    for other_idx, other_rho in sorted(replica_hosts.items()):
                        if other_idx == copy_idx or other_rho is None:
                            continue
                        route = self._route(graph, rho, other_rho)
                        if route:
                            add(PATH_XREP, route, flow_id, task.task_id, copy_idx,
                                task.task_id, other_idx)
        return PathSet(paths)
