"""Topology model tests: construction, generators, max-fail distance."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import (
    ROLE_ACTUATOR,
    ROLE_CONTROLLER,
    ROLE_SENSOR,
    Topology,
    chemical_plant_topology,
    erdos_renyi_topology,
    fully_connected_topology,
    line_topology,
    ring_topology,
    volvo_xc90_topology,
)


class TestConstruction:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(ValueError):
            topo.add_node(0)

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(ValueError):
            topo.add_link(0, 0)

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(ValueError):
            topo.add_link(0, 1)

    def test_single_member_bus_rejected(self):
        topo = Topology()
        topo.add_node(0)
        with pytest.raises(ValueError):
            topo.add_bus([0])

    def test_bus_members_become_neighbors(self):
        topo = Topology()
        for i in range(3):
            topo.add_node(i)
        topo.add_bus([0, 1, 2])
        assert topo.are_neighbors(0, 2)
        assert topo.neighbors(1) == [0, 2]

    def test_channel_between_prefers_p2p(self):
        topo = Topology()
        for i in range(2):
            topo.add_node(i)
        topo.add_bus([0, 1])
        topo.add_link(0, 1)
        kind, _ = topo.channel_between(0, 1)
        assert kind == "p2p"

    def test_channel_between_unconnected_raises(self):
        topo = line_topology(3)
        with pytest.raises(KeyError):
            topo.channel_between(0, 2)

    def test_node_by_name(self):
        topo = chemical_plant_topology()
        assert topo.name(topo.node_by_name("N3")) == "N3"
        with pytest.raises(KeyError):
            topo.node_by_name("nope")

    def test_channels_enumerates_links_and_buses(self):
        topo = chemical_plant_topology()
        kinds = [kind for kind, _ in topo.channels()]
        assert kinds.count("p2p") == 5
        assert kinds.count("bus") == 2


class TestGenerators:
    @pytest.mark.parametrize("n", [4, 10, 25, 60])
    def test_erdos_renyi_connected(self, n):
        topo = erdos_renyi_topology(n, seed=1)
        assert topo.is_connected()
        assert len(topo.nodes) == n

    def test_erdos_renyi_default_p(self):
        # Diameter should grow slowly (O(log n)) under p = 3 ln n / n.
        topo = erdos_renyi_topology(80, seed=2)
        assert topo.diameter() <= 2 * math.ceil(math.log(80))

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi_topology(20, seed=5)
        b = erdos_renyi_topology(20, seed=5)
        assert a.p2p_links == b.p2p_links

    def test_erdos_renyi_tiny_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_topology(1)

    def test_line_ring_clique(self):
        assert line_topology(5).diameter() == 4
        assert ring_topology(6).diameter() == 3
        assert fully_connected_topology(5).diameter() == 1

    def test_chemical_plant_roles(self):
        topo = chemical_plant_topology()
        assert len(topo.nodes) == 10
        assert len(topo.controllers) == 4
        assert len(topo.sensors) == 2
        assert len(topo.actuators) == 4
        assert topo.is_connected()

    def test_chemical_plant_no_single_point_of_failure(self):
        """Every sensor/actuator must reach >= 2 controllers directly."""
        topo = chemical_plant_topology()
        for node in topo.sensors + topo.actuators:
            controller_neighbors = [
                x for x in topo.neighbors(node) if x in topo.controllers
            ]
            assert len(controller_neighbors) >= 2

    def test_xc90_counts(self):
        topo = volvo_xc90_topology()
        assert len(topo.nodes) == 38  # paper S5.7
        assert len(topo.buses) == 13  # 1 HCAN + 1 LCAN + 1 MOST + 10 LIN
        assert topo.is_connected()

    def test_xc90_bridges(self):
        topo = volvo_xc90_topology()
        cem = topo.node_by_name("CEM")
        icm = topo.node_by_name("ICM")
        cem_buses = {b.name for b in topo.buses_of(cem)}
        icm_buses = {b.name for b in topo.buses_of(icm)}
        assert {"HCAN", "LCAN"} <= cem_buses
        assert {"LCAN", "MOST"} <= icm_buses


class TestMaxFailDistance:
    def test_no_faults_is_shortest_path(self):
        topo = ring_topology(6)
        assert topo.max_fail_distance(0, 3, fmax=0) == 3

    def test_ring_single_fault(self):
        # Removing one interior node of the short arc forces the long way.
        topo = ring_topology(6)
        assert topo.max_fail_distance(0, 2, fmax=1) == 4

    def test_line_faults_never_lengthen(self):
        # On a path graph any interior removal disconnects; D = base distance.
        topo = line_topology(5)
        assert topo.max_fail_distance(0, 4, fmax=2) == 4

    def test_clique_single_fault(self):
        topo = fully_connected_topology(5)
        assert topo.max_fail_distance(0, 1, fmax=1) == 1

    def test_heuristic_lower_bounds_exact(self):
        topo = erdos_renyi_topology(16, seed=3)
        a, b = 0, 15
        exact = topo.max_fail_distance(a, b, fmax=1)
        heuristic = topo.max_fail_distance(a, b, fmax=1, exact_limit=0, samples=200)
        assert heuristic <= exact
        assert heuristic >= topo.shortest_path_length(a, b)

    def test_bound_covers_all_pairs(self):
        topo = ring_topology(6)
        bound = topo.max_fail_distance_bound(fmax=1)
        # Worst pair on a 6-ring: distance-2 pair forced the long way round.
        assert bound == 4


class TestDegreeHelpers:
    def test_max_degree_node(self):
        topo = Topology()
        for i in range(4):
            topo.add_node(i)
        topo.add_link(0, 1)
        topo.add_link(0, 2)
        topo.add_link(0, 3)
        assert topo.max_degree_node() == 0
        assert topo.degree(0) == 3


def _nx_controller_diameter(topology):
    """The networkx reference: the controller-induced subgraph's diameter,
    or the controller count when that subgraph is disconnected."""
    graph = topology.graph().subgraph(topology.controllers)
    if not nx.is_connected(graph):
        return len(topology.controllers)
    return nx.diameter(graph)


@st.composite
def _mixed_topologies(draw):
    """Two to ten nodes, at least two of them controllers, the rest
    controllers or devices; random links and up to two buses, so the
    controllers may be connected only through a device or not at all."""
    n = draw(st.integers(2, 10))
    roles = [ROLE_CONTROLLER, ROLE_CONTROLLER] + draw(st.lists(
        st.sampled_from([ROLE_CONTROLLER, ROLE_SENSOR, ROLE_ACTUATOR]),
        min_size=n - 2, max_size=n - 2,
    ))
    topology = Topology()
    for node, role in enumerate(draw(st.permutations(roles))):
        topology.add_node(node, role=role)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=3 * n)):
        if a != b:
            topology.add_link(a, b)
    for members in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=4),
                                 max_size=2)):
        topology.add_bus(members)
    return topology


class TestControllerDiameter:
    @settings(max_examples=200, deadline=None)
    @given(topology=_mixed_topologies())
    def test_bfs_equals_networkx(self, topology):
        assert topology.controller_diameter() == _nx_controller_diameter(topology)

    @pytest.mark.parametrize("build", [
        chemical_plant_topology, volvo_xc90_topology,
        lambda: erdos_renyi_topology(30, seed=1), lambda: line_topology(5),
        lambda: ring_topology(7),
    ])
    def test_named_topologies(self, build):
        topology = build()
        assert topology.controller_diameter() == _nx_controller_diameter(topology)


class TestDiameter:
    @settings(max_examples=200, deadline=None)
    @given(topology=_mixed_topologies())
    def test_reach_diameter_equals_networkx(self, topology):
        graph = topology.graph()
        if nx.is_connected(graph):
            assert topology.diameter() == nx.diameter(graph)
        else:
            with pytest.raises(ValueError):
                topology.diameter()

    def test_disconnected_raises(self):
        topology = line_topology(3)
        topology.add_node(3)
        with pytest.raises(ValueError, match="not connected"):
            topology.diameter()
