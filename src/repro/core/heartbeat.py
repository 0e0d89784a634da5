"""Heartbeat records, storage, and multisignature coverage (paper S3.5-3.6).

REBOUND-BASIC floods individually signed heartbeats with the S3.5
optimizations: only *new* heartbeats are forwarded (delta flooding), and
heartbeats older than the max-fail distance D_max are expired.

REBOUND-MULTI aggregates heartbeats: because the signed body sigma_i(r,|dE|)
excludes the signer's identity, all stable-state heartbeats for a round are
signatures over identical bytes and can be combined incrementally as they
traverse the network.  The key observation (paper: "the aggregate public
keys for the verification can be precomputed based on the current mode") is
that under a deterministic propagation discipline, the signer *multiset* a
correct node holds for origin-round r' after a rounds is a pure function of
the (fault-adjusted) topology:

    M(i, 0) = {i: 1}
    M(i, a) = M(i, a-1) + sum over neighbors j that transmitted at age a-1
              of M(j, a-1)

where a node transmits its aggregate at age a iff its *support* (the signer
set) grew at that age (age 0 always).  Public keys are linear, so the
aggregate key K(i, a) = sum of mult * pk over M(i, a) follows the same
recurrence mod q; the :class:`CoverageCalculator` computes those keys and
the support masks directly, never the multisets.  Aggregate messages
therefore need carry no signer list at all -- the receiver derives the
expected aggregate public key itself.  When faults disturb propagation the
keys stop matching, verification fails, and nodes fall back to forwarding
individual signatures (the bounded worst case of S3.6); once evidence
stabilizes, aggregation resumes.

A node hears each flooded record from every neighbour that learned it, so
most copies are records it holds: :class:`HeartbeatStore` keeps the ids of
its record objects (``held``), and the forwarding layer checks only the
records of a message's :class:`~repro.core.identity.RecordColumn` it lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.evidence import heartbeat_body
from repro.net.message import encode, register_message
from repro.net.topology import Topology
from repro.obs import recorder as _flight
from repro.obs.events import EV_HEARTBEAT_STORED
from repro.sched.modegen import FailureScenario


@register_message
@dataclass(frozen=True)
class HeartbeatRecord:
    """An individually signed heartbeat half sigma_i(r, |dE|).

    Attributes:
        origin: the signing node.
        round_no: the round the heartbeat was generated in.
        delta_count: number of new evidence items the origin endorsed that
            round (0 in stable state).
        signature: origin's signature bytes over
            :func:`repro.core.evidence.heartbeat_body`.
    """

    origin: int
    round_no: int
    delta_count: int
    signature: bytes

    def body(self) -> bytes:
        return heartbeat_body(self.round_no, self.delta_count)


@register_message
@dataclass(frozen=True)
class AggregateHeartbeat:
    """A multisignature aggregate over one origin-round's heartbeats.

    Carries *no signer list*: the receiver derives the expected aggregate
    key from the sender identity, the age (current round minus origin round),
    and the shared fault epoch.

    Attributes:
        round_no: the origin round covered.
        sig_value: the aggregated group element (toy-BLS integer).
        epoch_digest: digest of the failure pattern the sender's coverage
            is computed under; receivers with a different pattern ignore
            the aggregate and rely on the individual-signature fallback.
    """

    round_no: int
    sig_value: int
    epoch_digest: bytes

    def body(self) -> bytes:
        return heartbeat_body(self.round_no, 0)


class CoverageCalculator:
    """Deterministic aggregate coverage for one fault epoch.

    For every (node, age) the DP holds the expected aggregate public key
    (:meth:`aggregate_key`) and the expected signer set as a plain ``int``
    mask with bit *i* set for node *i* (:meth:`support_bits`), so Rule B
    and aggregate folding are integer ``|`` / ``& ~`` instead of set
    algebra.

    Args:
        adjacency: node -> iterable of live neighbors (the fault-adjusted
            connectivity among controllers).
        max_age: compute coverage up to this age (typically D_max).
        keys: node -> multisignature public-key value.
        q: the multisignature group order.
    """

    def __init__(
        self,
        adjacency: Mapping[int, Iterable[int]],
        max_age: int,
        keys: Mapping[int, int],
        q: int,
    ):
        self._adj = {n: sorted(neigh) for n, neigh in adjacency.items()}
        self.max_age = max_age
        # key[a][i] and support_bits[a][i]; transmitted[a][i] -> bool.
        self._key: List[Dict[int, int]] = []
        self._support_bits: List[Dict[int, int]] = []
        self._transmitted: List[Dict[int, bool]] = []
        self._compute(keys, q)

    def _compute(self, keys: Mapping[int, int], q: int) -> None:
        nodes = sorted(self._adj)
        self._key.append({i: keys[i] % q for i in nodes})
        self._support_bits.append({i: 1 << i for i in nodes})
        # every node transmits its own at age 0
        self._transmitted.append({i: True for i in nodes})
        for age in range(1, self.max_age + 1):
            prev_k = self._key[age - 1]
            prev_b = self._support_bits[age - 1]
            prev_t = self._transmitted[age - 1]
            k: Dict[int, int] = {}
            b: Dict[int, int] = {}
            t: Dict[int, bool] = {}
            for i in nodes:
                acc = prev_k[i]
                bits = prev_b[i]
                for j in self._adj[i]:
                    if prev_t.get(j):
                        acc += prev_k[j]
                        bits |= prev_b[j]
                k[i] = acc % q
                b[i] = bits
                t[i] = bits != prev_b[i]  # supports only grow
            self._key.append(k)
            self._support_bits.append(b)
            self._transmitted.append(t)

    def has_node(self, node: int) -> bool:
        return node in self._adj

    def aggregate_key(self, node: int, age: int) -> int:
        """Expected aggregate public-key value of ``node``'s aggregate at
        ``age``: the sum of mult * pk over its signer multiset, mod q."""
        return self._key[min(age, self.max_age)][node]

    def support_bits(self, node: int, age: int) -> int:
        """Expected signer set of ``node``'s aggregate at ``age`` as an int
        mask, bit *i* = node *i*."""
        return self._support_bits[min(age, self.max_age)][node]

    def support(self, node: int, age: int) -> FrozenSet[int]:
        """Expected signer *set* of ``node``'s aggregate at ``age``."""
        bits = self.support_bits(node, age)
        return frozenset(i for i in self._adj if bits >> i & 1)

    def transmitted(self, node: int, age: int) -> bool:
        """Whether a correct ``node`` transmits its aggregate at ``age``."""
        if age < 0:
            return False
        if age > self.max_age:
            return False
        return self._transmitted[age][node]

    def saturation_age(self, node: int) -> int:
        """First age at which ``node``'s support stops growing."""
        for age in range(1, self.max_age + 1):
            if not self._transmitted[age][node]:
                return age - 1
        return self.max_age

    def full_support(self, node: int) -> FrozenSet[int]:
        """The eventual support: every node reachable from ``node``."""
        return self.support(node, self.max_age)


class CoverageRegistry:
    """One system's coverage DPs, one per distinct fault pattern.

    The DP is a pure function of (topology, fault pattern, D_max), so every
    node of a system that holds the same pattern shares one calculator.  A
    system only ever holds a few patterns; the dict is unbounded.

    Args:
        topology: the system's topology.
        d_max: the max-fail distance (the DP's maximum age).
        keys: controller -> multisignature public-key value.
        q: the multisignature group order.
    """

    def __init__(
        self, topology: Topology, d_max: int, keys: Mapping[int, int], q: int
    ):
        self.topology = topology
        self.d_max = d_max
        self.keys = keys
        self.q = q
        self._calculators: Dict[FailureScenario, CoverageCalculator] = {}

    def for_pattern(self, pattern: FailureScenario) -> CoverageCalculator:
        calc = self._calculators.get(pattern)
        if calc is None:
            adjacency: Dict[int, Tuple[int, ...]] = {}
            controllers = [
                c for c in self.topology.controllers if c not in pattern.nodes
            ]
            controller_set = set(controllers)
            for c in controllers:
                neigh = [
                    x
                    for x in self.topology.neighbors(c)
                    if x in controller_set
                    and (min(c, x), max(c, x)) not in pattern.links
                ]
                adjacency[c] = tuple(neigh)
            calc = CoverageCalculator(adjacency, self.d_max, self.keys, self.q)
            self._calculators[pattern] = calc
        return calc


class HeartbeatStore:
    """Windowed storage of individual heartbeats with equivocation checks.

    Tracks which records were *newly learned* in the current round (for
    delta flooding) and expires records older than D_max (second S3.5
    refinement) when enabled.  Records are additionally keyed by origin
    round, so expiry drops whole rounds instead of scanning every key (the
    scan is O(n * window) per node per round at 1000 nodes).  ``held``
    holds the ``id()`` of each stored record object (pinned by the store).
    """

    def __init__(self, window: int, expiry: bool = True):
        self.window = window
        self.expiry = expiry
        #: the node this store belongs to (set by the forwarding layer);
        #: flight-recorder events are only attributable when it is known.
        self.owner: Optional[int] = None
        self._records: Dict[Tuple[int, int], HeartbeatRecord] = {}
        self._round_keys: Dict[int, List[Tuple[int, int]]] = {}
        self._new_this_round: List[HeartbeatRecord] = []
        self.held: Set[int] = set()

    def add(self, record: HeartbeatRecord) -> Tuple[str, Optional[HeartbeatRecord]]:
        """Insert a (verified) record.

        Returns ("new", None), ("dup", None), or -- when the origin already
        signed a *different* heartbeat for the round --
        ("conflict", existing_record).
        """
        key = (record.origin, record.round_no)
        existing = self._records.get(key)
        if existing is not None:
            status: Tuple[str, Optional[HeartbeatRecord]] = (
                ("dup", None)
                if existing.delta_count == record.delta_count
                else ("conflict", existing)
            )
        else:
            self._records[key] = record
            self.held.add(id(record))
            self._round_keys.setdefault(record.round_no, []).append(key)
            self._new_this_round.append(record)
            status = ("new", None)
        flight = _flight.active
        if flight is not None and self.owner is not None:
            flight.emit(
                EV_HEARTBEAT_STORED,
                self.owner,
                {
                    "origin": record.origin,
                    "hb_round": record.round_no,
                    "status": status[0],
                },
            )
        return status

    def get(self, origin: int, round_no: int) -> Optional[HeartbeatRecord]:
        return self._records.get((origin, round_no))

    def holds(self, record: HeartbeatRecord) -> bool:
        """Is a record equal to ``record`` (same slot, same delta) stored?"""
        existing = self._records.get((record.origin, record.round_no))
        return existing is not None and existing.delta_count == record.delta_count

    def drain_new(self) -> List[HeartbeatRecord]:
        """Records learned since the last drain (the flooding delta)."""
        new, self._new_this_round = self._new_this_round, []
        return new

    def expire(self, current_round: int) -> int:
        """Drop records older than the window; returns how many."""
        if not self.expiry:
            return 0
        cutoff = current_round - self.window
        dropped = 0
        for round_no in [r for r in self._round_keys if r < cutoff]:
            for key in self._round_keys.pop(round_no):
                self.held.discard(id(self._records.pop(key)))
                dropped += 1
        return dropped

    def serialized_size(self) -> int:
        records = [self._records[k] for k in sorted(self._records)]
        return len(encode(records))

    def __len__(self) -> int:
        return len(self._records)
