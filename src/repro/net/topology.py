"""Network topologies: point-to-point links, buses, and generators.

CPS networks are not fully connected (paper S2.2, Fig. 2): they mix buses
(limited broadcast domains) and point-to-point links, so some node pairs can
only communicate through relays, and an adversary may be able to partition
the system.  This module models such topologies and provides:

* the synthetic Erdos-Renyi G(n, p) topologies of S5.1 (p = 3 ln n / n),
* the chemical-plant example of Fig. 1 (2 sensors, 4 controllers,
  4 actuators),
* an approximation of the Volvo XC90 on-board network of Fig. 2
  (38 ECUs, 13 buses: HCAN, LCAN, MOST, 10 LIN),
* the *max-fail distance* D_{i,j} of S3.5 -- the maximum, over all failure
  scenarios with at most fmax removed nodes that leave i and j connected,
  of the shortest-path length between i and j.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import networkx as nx

ROLE_CONTROLLER = "controller"
ROLE_SENSOR = "sensor"
ROLE_ACTUATOR = "actuator"

# Default link capacities in bytes/round; generous defaults reflecting the
# paper's note that CPS networks range from 5 Mbps CAN to 1 Gbps Ethernet.
DEFAULT_LINK_CAPACITY = 1_000_000


@dataclass(frozen=True)
class Bus:
    """A broadcast bus segment.

    Attributes:
        bus_id: unique identifier among buses of this topology.
        members: node ids attached to the bus.
        capacity: shared capacity in bytes per round.
        name: human-readable label (e.g. ``"HCAN"``).
    """

    bus_id: int
    members: FrozenSet[int]
    capacity: int = DEFAULT_LINK_CAPACITY
    name: str = ""


class Topology:
    """A network of nodes joined by point-to-point links and buses."""

    def __init__(self) -> None:
        self._roles: Dict[int, str] = {}
        self._names: Dict[int, str] = {}
        self._p2p: Dict[FrozenSet[int], int] = {}  # link -> capacity
        self._buses: Dict[int, Bus] = {}
        self._graph: Optional[nx.Graph] = None

    # -- construction -----------------------------------------------------

    def add_node(self, node_id: int, role: str = ROLE_CONTROLLER, name: str = "") -> None:
        if node_id in self._roles:
            raise ValueError(f"duplicate node id {node_id}")
        self._roles[node_id] = role
        self._names[node_id] = name or f"N{node_id}"
        self._graph = None

    def add_link(self, a: int, b: int, capacity: int = DEFAULT_LINK_CAPACITY) -> None:
        if a == b:
            raise ValueError("self-links are not allowed")
        for n in (a, b):
            if n not in self._roles:
                raise ValueError(f"unknown node {n}")
        self._p2p[frozenset((a, b))] = capacity
        self._graph = None

    def add_bus(
        self, members: Iterable[int], capacity: int = DEFAULT_LINK_CAPACITY, name: str = ""
    ) -> int:
        member_set = frozenset(members)
        if len(member_set) < 2:
            raise ValueError("a bus needs at least two members")
        for n in member_set:
            if n not in self._roles:
                raise ValueError(f"unknown node {n}")
        bus_id = len(self._buses)
        self._buses[bus_id] = Bus(
            bus_id=bus_id, members=member_set, capacity=capacity, name=name
        )
        self._graph = None
        return bus_id

    # -- inspection --------------------------------------------------------

    @property
    def nodes(self) -> List[int]:
        return sorted(self._roles)

    @property
    def controllers(self) -> List[int]:
        return [n for n in self.nodes if self._roles[n] == ROLE_CONTROLLER]

    @property
    def sensors(self) -> List[int]:
        return [n for n in self.nodes if self._roles[n] == ROLE_SENSOR]

    @property
    def actuators(self) -> List[int]:
        return [n for n in self.nodes if self._roles[n] == ROLE_ACTUATOR]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._roles

    def role(self, node_id: int) -> str:
        return self._roles[node_id]

    def name(self, node_id: int) -> str:
        return self._names[node_id]

    def node_by_name(self, name: str) -> int:
        for node_id, node_name in self._names.items():
            if node_name == name:
                return node_id
        raise KeyError(name)

    @property
    def p2p_links(self) -> Dict[FrozenSet[int], int]:
        return dict(self._p2p)

    @property
    def buses(self) -> Dict[int, Bus]:
        return dict(self._buses)

    def buses_of(self, node_id: int) -> List[Bus]:
        return [bus for bus in self._buses.values() if node_id in bus.members]

    def graph(self) -> nx.Graph:
        """The connectivity graph: buses contribute cliques over members."""
        if self._graph is None:
            g = nx.Graph()
            g.add_nodes_from(self._roles)
            for link in self._p2p:
                a, b = tuple(link)
                g.add_edge(a, b)
            for bus in self._buses.values():
                for a, b in itertools.combinations(sorted(bus.members), 2):
                    g.add_edge(a, b)
            self._graph = g
        return self._graph

    def neighbors(self, node_id: int) -> List[int]:
        return sorted(self.graph().neighbors(node_id))

    def degree(self, node_id: int) -> int:
        return self.graph().degree(node_id)

    def max_degree_node(self) -> int:
        g = self.graph()
        return max(g.nodes, key=lambda n: (g.degree(n), -n))

    def are_neighbors(self, a: int, b: int) -> bool:
        return self.graph().has_edge(a, b)

    def channels(self) -> List[Tuple[str, object]]:
        """All logical channels for bandwidth accounting.

        Returns a list of ("p2p", frozenset{a,b}) and ("bus", bus_id) tags.
        """
        chans: List[Tuple[str, object]] = [("p2p", link) for link in sorted(self._p2p, key=sorted)]
        chans.extend(("bus", bus_id) for bus_id in sorted(self._buses))
        return chans

    def channel_between(self, a: int, b: int) -> Tuple[str, object]:
        """The channel that directly connects ``a`` and ``b``.

        Point-to-point links take precedence over a shared bus.  Raises
        KeyError when the nodes are not directly connected.
        """
        link = frozenset((a, b))
        if link in self._p2p:
            return ("p2p", link)
        for bus in self._buses.values():
            if a in bus.members and b in bus.members:
                return ("bus", bus.bus_id)
        raise KeyError(f"nodes {a} and {b} are not directly connected")

    def is_connected(self) -> bool:
        g = self.graph()
        return g.number_of_nodes() > 0 and nx.is_connected(g)

    def _reach_diameter(self, members: List[int]) -> Optional[int]:
        """Diameter of the graph induced on ``members`` (None: empty or
        disconnected): the steps until every member's reach mask is full."""
        graph = self.graph()
        index = {node: i for i, node in enumerate(members)}
        near = [[index[y] for y in graph[x] if y in index] for x in members]
        full, reach, steps = (1 << len(index)) - 1, [1 << i for i in range(len(index))], 0
        while any(mask != full for mask in reach):
            wider = [reduce(or_, map(reach.__getitem__, js), mask)
                     for mask, js in zip(reach, near)]
            if wider == reach:
                return None
            reach, steps = wider, steps + 1
        return steps if index else None

    def diameter(self) -> int:
        """Diameter of the connectivity graph; ValueError when disconnected."""
        diameter = self._reach_diameter(self.nodes)
        if diameter is None:
            raise ValueError("the topology is not connected")
        return diameter

    def controller_diameter(self) -> int:
        """Diameter of the graph induced on the controllers, or the
        controller count when that graph is disconnected."""
        diameter = self._reach_diameter(self.controllers)
        return len(self.controllers) if diameter is None else diameter

    def shortest_path_length(self, a: int, b: int) -> int:
        return nx.shortest_path_length(self.graph(), a, b)

    # -- max-fail distance (paper S3.5) -------------------------------------

    def max_fail_distance(
        self, a: int, b: int, fmax: int, exact_limit: int = 100_000, samples: int = 400,
        seed: int = 0,
    ) -> int:
        """D_{a,b}: worst-case shortest-path length with <= fmax nodes removed.

        Scenarios that disconnect ``a`` from ``b`` are skipped (in those the
        protocol's partition rule applies instead).  Exhaustive over all
        removal sets when the scenario count is within ``exact_limit``;
        otherwise falls back to a randomized adversarial heuristic that
        preferentially removes nodes on current shortest paths.
        """
        g = self.graph()
        candidates = [n for n in g.nodes if n not in (a, b)]
        total = sum(math.comb(len(candidates), k) for k in range(fmax + 1))
        if total <= exact_limit:
            return self._max_fail_exact(g, a, b, candidates, fmax)
        return self._max_fail_heuristic(g, a, b, candidates, fmax, samples, seed)

    @staticmethod
    def _max_fail_exact(
        g: nx.Graph, a: int, b: int, candidates: List[int], fmax: int
    ) -> int:
        best = nx.shortest_path_length(g, a, b)
        for k in range(1, fmax + 1):
            for removed in itertools.combinations(candidates, k):
                h = g.copy()
                h.remove_nodes_from(removed)
                if nx.has_path(h, a, b):
                    best = max(best, nx.shortest_path_length(h, a, b))
        return best

    @staticmethod
    def _max_fail_heuristic(
        g: nx.Graph,
        a: int,
        b: int,
        candidates: List[int],
        fmax: int,
        samples: int,
        seed: int,
    ) -> int:
        rng = random.Random(seed)
        best = nx.shortest_path_length(g, a, b)
        for _ in range(samples):
            h = g.copy()
            for _ in range(fmax):
                try:
                    path = nx.shortest_path(h, a, b)
                except nx.NetworkXNoPath:
                    break
                interior = [n for n in path[1:-1]]
                pool = interior if interior and rng.random() < 0.8 else [
                    n for n in candidates if n in h
                ]
                if not pool:
                    break
                victim = rng.choice(pool)
                trial = h.copy()
                trial.remove_node(victim)
                if nx.has_path(trial, a, b):
                    h = trial
            if nx.has_path(h, a, b):
                best = max(best, nx.shortest_path_length(h, a, b))
        return best

    def max_fail_distance_bound(self, fmax: int, **kwargs) -> int:
        """D_max = max over all node pairs of D_{i,j}."""
        best = 0
        for a, b in itertools.combinations(self.nodes, 2):
            best = max(best, self.max_fail_distance(a, b, fmax, **kwargs))
        return best


def erdos_renyi_topology(
    n: int,
    seed: int = 0,
    p: Optional[float] = None,
    capacity: int = DEFAULT_LINK_CAPACITY,
) -> Topology:
    """Random connected topology per the paper's simulation setup (S5.1).

    Uses G(n, p) with p = 3 ln n / n by default, resampling until connected
    (the paper's choice of p makes connectivity overwhelmingly likely).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if p is None:
        p = min(1.0, 3.0 * math.log(n) / n)
    attempt = 0
    while True:
        g = nx.gnp_random_graph(n, p, seed=seed + 7919 * attempt)
        if nx.is_connected(g):
            break
        attempt += 1
        if attempt > 1000:
            raise RuntimeError("could not sample a connected topology")
    topo = Topology()
    for node in range(n):
        topo.add_node(node, role=ROLE_CONTROLLER)
    for a, b in g.edges:
        topo.add_link(a, b, capacity=capacity)
    return topo


def line_topology(n: int) -> Topology:
    """A path of n controllers -- useful in tests and worst-case analyses."""
    topo = Topology()
    for node in range(n):
        topo.add_node(node)
    for node in range(n - 1):
        topo.add_link(node, node + 1)
    return topo


def ring_topology(n: int) -> Topology:
    """A cycle of n controllers."""
    topo = line_topology(n)
    if n > 2:
        topo.add_link(n - 1, 0)
    return topo


def grid_topology(rows: int, cols: int, capacity: int = DEFAULT_LINK_CAPACITY) -> Topology:
    """A rows x cols mesh of controllers (node id = row * cols + col).

    A regular sparse topology with a known diameter (rows + cols - 2),
    used by the fast-path benchmark for reproducible 20-node runs.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    topo = Topology()
    for node in range(rows * cols):
        topo.add_node(node)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                topo.add_link(node, node + 1, capacity=capacity)
            if r + 1 < rows:
                topo.add_link(node, node + cols, capacity=capacity)
    return topo


def fully_connected_topology(n: int) -> Topology:
    """A clique of n controllers."""
    topo = Topology()
    for node in range(n):
        topo.add_node(node)
    for a, b in itertools.combinations(range(n), 2):
        topo.add_link(a, b)
    return topo


def chemical_plant_topology() -> Topology:
    """The Fig. 1 industrial control system.

    Two sensors (pressure gauge S1, temperature sensor S2), four controllers
    (N1..N4), and four actuators (pressure alarm A1, burner A2, valve A3,
    monitor A4).  The paper's testbed (S4.1) replaces the buses with GbE
    switches; we keep them as buses so the bus optimizations are exercised.
    Sensors and actuators sit on buses shared by at least two controllers so
    that no single controller is a single point of failure (cf. S5.7's note
    that moving sensors/actuators onto shared buses "is critical to enabling
    recovery").
    """
    topo = Topology()
    names = {
        0: ("N1", ROLE_CONTROLLER),
        1: ("N2", ROLE_CONTROLLER),
        2: ("N3", ROLE_CONTROLLER),
        3: ("N4", ROLE_CONTROLLER),
        4: ("S1", ROLE_SENSOR),
        5: ("S2", ROLE_SENSOR),
        6: ("A1", ROLE_ACTUATOR),
        7: ("A2", ROLE_ACTUATOR),
        8: ("A3", ROLE_ACTUATOR),
        9: ("A4", ROLE_ACTUATOR),
    }
    for node_id, (name, role) in names.items():
        topo.add_node(node_id, role=role, name=name)
    # Controller mesh (2x2 grid with one diagonal for resilience).
    topo.add_link(0, 1)
    topo.add_link(2, 3)
    topo.add_link(0, 2)
    topo.add_link(1, 3)
    topo.add_link(0, 3)
    # Sensor and actuator buses include every controller, so any surviving
    # controller can reach them (the paper moves sensors/actuators onto
    # shared buses for exactly this reason, S5.7).
    topo.add_bus([4, 5, 0, 1, 2, 3], name="sensor-bus")
    topo.add_bus([6, 7, 8, 9, 0, 1, 2, 3], name="actuator-bus")
    return topo


# ECU names on each Volvo XC90 bus, following Fig. 2 (from Nolte's share-driven
# scheduling study of the XC90 network).  The exact attachment of the 10 LIN
# sub-buses is approximated: each LIN hangs off one mainline ECU and carries
# one low-power ECU.
_XC90_HCAN = [
    "CEM", "SAS", "BCM", "ECM", "TCM", "SUM", "DRM", "SRS", "DIM", "SWM",
    "PSM", "DDM", "AEM", "REM", "AUD",
]
_XC90_LCAN = ["CCM", "PHM", "ICM", "UEM", "PDM", "ATM", "SUB", "CPM", "SHM"]
_XC90_MOST = ["MMM", "MP1", "MP2", "MMS", "RSM", "SCM", "SRM", "GSM", "LSM"]
_XC90_LIN_HOSTS = ["CEM", "DDM", "PSM", "SWM", "REM", "UEM", "PDM", "CCM", "ICM", "DIM"]
_XC90_LIN_NODES = ["LP0", "LP1", "LP2", "LP3", "LP4"]


def volvo_xc90_topology(include_devices: bool = False) -> Topology:
    """Approximation of the Volvo XC90 on-board network (Fig. 2).

    38 compute nodes and 13 buses (1 HCAN, 1 LCAN, 1 MOST, 10 LIN), matching
    the counts the paper states in S5.7.  CEM bridges HCAN and LCAN; ICM
    bridges LCAN and MOST, as in Fig. 2.  Five low-power ECUs sit on LIN
    sub-buses; the remaining LIN buses carry sensors/actuators and connect a
    mainline ECU to the shared medium (we attach the first five LIN buses'
    low-power nodes and leave the rest as two-member stubs between mainline
    ECUs, since Fig. 2 shows LIN primarily fanning out to peripherals).

    With ``include_devices`` a wheel-speed sensor (``SPD``) and the engine
    actuator (``ENG``) are attached to the HCAN bus -- the paper's S5.7
    modification ("we moved the sensors and actuators directly onto the CAN
    buses... critical to enabling recovery").
    """
    topo = Topology()
    ecu_names = list(dict.fromkeys(_XC90_HCAN + _XC90_LCAN + _XC90_MOST)) + _XC90_LIN_NODES
    name_to_id: Dict[str, int] = {}
    for node_id, name in enumerate(ecu_names):
        topo.add_node(node_id, role=ROLE_CONTROLLER, name=name)
        name_to_id[name] = node_id
    assert len(ecu_names) == 38, f"expected 38 ECUs, got {len(ecu_names)}"

    # CAN buses are 5 Mbps-class; MOST is faster; LIN is slow.
    can_capacity = 62_500  # 500 kbps HCAN at 10ms rounds ~ 625 B/ms
    lin_capacity = 2_500
    most_capacity = 250_000
    topo.add_bus([name_to_id[n] for n in _XC90_HCAN], capacity=can_capacity, name="HCAN")
    lcan_members = [name_to_id[n] for n in _XC90_LCAN] + [name_to_id["CEM"]]
    topo.add_bus(lcan_members, capacity=can_capacity, name="LCAN")
    most_members = [name_to_id[n] for n in _XC90_MOST] + [name_to_id["ICM"]]
    topo.add_bus(most_members, capacity=most_capacity, name="MOST")
    # Ten LIN buses: the first five carry a low-power ECU, the rest join two
    # mainline ECUs (stub sub-networks for door/seat peripherals).
    for i, host in enumerate(_XC90_LIN_HOSTS):
        if i < len(_XC90_LIN_NODES):
            members = [name_to_id[host], name_to_id[_XC90_LIN_NODES[i]]]
        else:
            partner = _XC90_LIN_HOSTS[(i + 3) % len(_XC90_LIN_HOSTS)]
            members = [name_to_id[host], name_to_id[partner]]
        topo.add_bus(members, capacity=lin_capacity, name=f"LIN{i}")
    if include_devices:
        spd = len(ecu_names)
        eng = spd + 1
        topo.add_node(spd, role=ROLE_SENSOR, name="SPD")
        topo.add_node(eng, role=ROLE_ACTUATOR, name="ENG")
        # Rebuild bus 0 (HCAN) membership is immutable; attach the devices
        # via a dedicated device bus bridging them onto the HCAN ECUs.
        hcan_ids = [name_to_id[n] for n in _XC90_HCAN]
        topo.add_bus([spd, eng] + hcan_ids, capacity=can_capacity, name="HCAN-dev")
    return topo
