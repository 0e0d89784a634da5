"""Round-synchronous network simulator.

The simulator embodies the system model of paper S2.2-S2.3: a synchronous
network of buses and point-to-point links whose capacities are known, with a
hardware bandwidth guardian that prevents any node from exceeding its share,
and negligible link-layer loss (the paper's testbed saw zero losses in 1e9
packets).  Unreliability comes only from *faulty nodes and links*, which are
driven by the adversary hooks.

Execution model (one round ``r``):

1. every message sent during round ``r-1`` is delivered (deterministic
   order: sorted by (sender, destination, sequence));
2. each node's protocol gets ``on_round_start`` / ``on_receive`` /
   ``on_round_end`` callbacks;
3. bytes are accounted per channel per round.

Protocols send via the :class:`RoundNetwork` handle passed to them; payloads
are serialized through :mod:`repro.net.message` so sizes are real.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.message import encoded_size
from repro.net.topology import Topology

# An outgoing message as (sender, destination, payload, serialized bytes).
Delivery = Tuple[int, int, Any, int]

# Adversary hook: (round, sender, destination, payload) -> payload' or None.
# Returning None drops the message; returning a different object tampers with
# it.  Only installed for faulty nodes/links -- correct infrastructure never
# loses messages in this model.
TamperHook = Callable[[int, int, int, Any], Optional[Any]]


@dataclass
class ChannelStats:
    """Per-channel byte/message accounting.

    Long campaigns can :meth:`trim` old rounds to bound memory; trimmed
    rounds stay included in the running totals, so ``total_bytes()`` /
    ``total_messages()`` are invariant under trimming.
    """

    bytes_by_round: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    messages_by_round: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _trimmed_bytes: int = 0
    _trimmed_messages: int = 0

    def bytes_in_round(self, round_no: int) -> int:
        return self.bytes_by_round.get(round_no, 0)

    def messages_in_round(self, round_no: int) -> int:
        return self.messages_by_round.get(round_no, 0)

    def total_bytes(self) -> int:
        return self._trimmed_bytes + sum(self.bytes_by_round.values())

    def total_messages(self) -> int:
        return self._trimmed_messages + sum(self.messages_by_round.values())

    def trim(self, before_round: int) -> int:
        """Drop per-round entries older than ``before_round``; returns how
        many rounds were dropped.  Totals are preserved."""
        stale = [r for r in self.bytes_by_round if r < before_round]
        for r in stale:
            self._trimmed_bytes += self.bytes_by_round.pop(r)
        stale_msgs = [r for r in self.messages_by_round if r < before_round]
        for r in stale_msgs:
            self._trimmed_messages += self.messages_by_round.pop(r)
        return len(set(stale) | set(stale_msgs))


class NodeProtocol:
    """Base class for per-node protocol logic.

    Subclasses override the three callbacks.  ``self.node_id`` and
    ``self.network`` are injected by :meth:`RoundNetwork.attach`.
    """

    node_id: int
    network: "RoundNetwork"

    def on_round_start(self, round_no: int) -> None:
        """Called before any deliveries of ``round_no``."""

    def on_receive(self, round_no: int, sender: int, payload: Any) -> None:
        """Called once per delivered message."""

    def on_round_end(self, round_no: int) -> None:
        """Called after all deliveries; sends made here arrive next round."""


class RoundNetwork:
    """The synchronous network engine.

    Args:
        topology: the physical network.
        guardian_share: fraction of a channel's capacity any single node may
            consume per round (the bus-guardian mechanism of S2.2).  ``None``
            disables enforcement.
    """

    def __init__(self, topology: Topology, guardian_share: Optional[float] = None):
        self.topology = topology
        self.guardian_share = guardian_share
        self.round_no = 0
        self._protocols: Dict[int, NodeProtocol] = {}
        self._outbox: List[Delivery] = []
        self._inbox: List[Delivery] = []
        self._failed_links: Set[FrozenSet[int]] = set()
        self._crashed: Set[int] = set()
        self._tamper_hooks: Dict[int, TamperHook] = {}
        self._seq = 0
        self.channel_stats: Dict[Tuple[str, object], ChannelStats] = {
            chan: ChannelStats() for chan in topology.channels()
        }
        self._guardian_usage: Dict[Tuple[Tuple[str, object], int], int] = defaultdict(int)
        self.dropped_by_guardian = 0
        self.dropped_by_adversary = 0

    # -- setup --------------------------------------------------------------

    def attach(self, node_id: int, protocol: NodeProtocol) -> None:
        if node_id not in self.topology.nodes:
            raise ValueError(f"unknown node {node_id}")
        protocol.node_id = node_id
        protocol.network = self
        self._protocols[node_id] = protocol

    def protocol(self, node_id: int) -> NodeProtocol:
        return self._protocols[node_id]

    # -- adversary / fault controls ------------------------------------------

    def _check_endpoints(self, *node_ids: int) -> None:
        """Fault injections must name real nodes; a typo'd id would
        otherwise record a silent no-op fault and skew every downstream
        detection/recovery measurement."""
        for node_id in node_ids:
            if not self.topology.has_node(node_id):
                raise ValueError(f"unknown node {node_id}")

    def fail_link(self, a: int, b: int) -> None:
        """Cut the direct connection between two nodes (link fault)."""
        self._check_endpoints(a, b)
        self._failed_links.add(frozenset((a, b)))

    def heal_link(self, a: int, b: int) -> None:
        self._check_endpoints(a, b)
        self._failed_links.discard(frozenset((a, b)))

    def crash_node(self, node_id: int) -> None:
        """Silence a node entirely (crash fault)."""
        self._check_endpoints(node_id)
        self._crashed.add(node_id)

    def revive_node(self, node_id: int) -> None:
        """Bring a crashed node back (operator repair)."""
        self._check_endpoints(node_id)
        self._crashed.discard(node_id)

    def set_tamper_hook(self, node_id: int, hook: Optional[TamperHook]) -> None:
        """Install an adversary hook on all messages *sent by* ``node_id``."""
        if hook is None:
            self._tamper_hooks.pop(node_id, None)
        else:
            self._tamper_hooks[node_id] = hook

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self._crashed

    def link_failed(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._failed_links

    # -- sending --------------------------------------------------------------

    def send(self, sender: int, destination: int, payload: Any) -> None:
        """Queue a unicast message for delivery next round.

        The message is charged to the channel that directly connects sender
        and destination; sending to a non-neighbor raises (protocols must
        relay explicitly -- that is the whole point of the forwarding layer).
        """
        if sender in self._crashed:
            return
        channel = self.topology.channel_between(sender, destination)
        payload = self._apply_adversary(sender, destination, payload)
        if payload is None:
            return
        size = encoded_size(payload)
        if not self._charge(channel, sender, size):
            self.dropped_by_guardian += 1
            return
        if frozenset((sender, destination)) in self._failed_links:
            return  # the link is physically dead; bytes were still radiated
        self._enqueue(sender, destination, payload)

    def broadcast(self, sender: int, bus_id: int, payload: Any) -> None:
        """Broadcast on a bus: one transmission, delivered to every member.

        This is the bus optimization of S3.5: a single copy of the heartbeat
        is charged to the shared medium rather than one copy per neighbor.
        """
        if sender in self._crashed:
            return
        bus = self.topology.buses[bus_id]
        if sender not in bus.members:
            raise ValueError(f"node {sender} is not on bus {bus_id}")
        size = None
        for member in sorted(bus.members):
            if member == sender:
                continue
            delivered = self._apply_adversary(sender, member, payload)
            if delivered is None:
                continue
            if size is None:
                # Charge the medium once per broadcast (not per recipient).
                size = encoded_size(delivered)
                if not self._charge(("bus", bus_id), sender, size):
                    self.dropped_by_guardian += 1
                    return
            if frozenset((sender, member)) in self._failed_links:
                continue
            self._enqueue(sender, member, delivered)

    def _enqueue(self, sender: int, destination: int, payload: Any) -> None:
        """Final admission of a message into next round's deliveries.

        Both :meth:`send` and :meth:`broadcast` funnel through here after
        guardian charging, adversary hooks, and link-failure checks; the
        chaos layer (:mod:`repro.chaos.impairments`) overrides this single
        point to impair traffic without touching the accounting above.
        """
        self._outbox.append((sender, destination, payload, self._seq))
        self._seq += 1

    def _apply_adversary(self, sender: int, destination: int, payload: Any) -> Optional[Any]:
        hook = self._tamper_hooks.get(sender)
        if hook is None:
            return payload
        result = hook(self.round_no, sender, destination, payload)
        if result is None:
            self.dropped_by_adversary += 1
        return result

    def _charge(self, channel: Tuple[str, object], sender: int, size: int) -> bool:
        """Account bytes; returns False if the bandwidth guardian drops it."""
        stats = self.channel_stats[channel]
        if self.guardian_share is not None:
            if channel[0] == "p2p":
                capacity = self.topology.p2p_links[channel[1]]
            else:
                capacity = self.topology.buses[channel[1]].capacity
            key = (channel, sender)
            budget = int(capacity * self.guardian_share)
            if self._guardian_usage[key] + size > budget:
                return False
            self._guardian_usage[key] += size
        stats.bytes_by_round[self.round_no] += size
        stats.messages_by_round[self.round_no] += 1
        return True

    # -- execution -------------------------------------------------------------

    def _begin_round(self) -> None:
        """Hook called after the round counter advances, before delivery.

        The chaos layer uses it to release delayed messages and advance
        link-flap/partition schedules; the base network does nothing.
        """

    def _collect_deliveries(self) -> List[Delivery]:
        """The round's deliveries in their final order (deterministic:
        sorted by sender, destination, sequence).  The chaos layer
        overrides this to apply within-round reordering."""
        return sorted(self._inbox, key=lambda d: (d[0], d[1], d[3]))

    def run_round(self) -> None:
        """Execute one full round."""
        self.round_no += 1
        self._guardian_usage.clear()
        self._begin_round()
        self._inbox, self._outbox = self._outbox, []
        # Deliveries are fixed before any node steps: _collect_deliveries
        # only reads the inbox (and, in the chaos layer, a round-keyed RNG).
        deliveries = self._collect_deliveries()
        for node_id in self.topology.nodes:
            if node_id in self._crashed:
                continue
            proto = self._protocols.get(node_id)
            if proto is not None:
                proto.on_round_start(self.round_no)
        for sender, destination, payload, _seq in deliveries:
            if destination in self._crashed:
                continue
            proto = self._protocols.get(destination)
            if proto is not None:
                proto.on_receive(self.round_no, sender, payload)
        for node_id in self.topology.nodes:
            if node_id in self._crashed:
                continue
            proto = self._protocols.get(node_id)
            if proto is not None:
                proto.on_round_end(self.round_no)

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    # -- metrics -----------------------------------------------------------------

    def bytes_in_round(self, round_no: int) -> int:
        return sum(s.bytes_in_round(round_no) for s in self.channel_stats.values())

    def per_link_bytes(self, round_no: int) -> Dict[Tuple[str, object], int]:
        return {
            chan: stats.bytes_in_round(round_no)
            for chan, stats in self.channel_stats.items()
        }

    def mean_link_bytes(self, round_no: int) -> float:
        per_link = self.per_link_bytes(round_no)
        if not per_link:
            return 0.0
        return sum(per_link.values()) / len(per_link)
