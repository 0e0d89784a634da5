"""The REBOUND forwarding layer (paper S3.3-3.6).

Responsibilities (paper S3.1):

1. carry data packets along PATH(m) for the current mode;
2. distribute evidence to every correct node in the sender's partition;
3. detect nodes that fail at (1) or (2) and generate evidence of it;
4. select the local mode from the available evidence (done by the node that
   owns this layer; the layer reports evidence changes upward).

Detection implements Fig. 4's demands in an explicitly round-based style.
Every LFD names the rule that produced it (:data:`repro.obs.events.LFD_RULES`):
at receipt, a malformed message or invalid flooded content (``header``,
``content``) and a data packet with the wrong origin or signature at its
sink (``packet-origin``, ``packet-signature``); at the end of each round,
Rules A (liveness), B (heartbeat coverage) and C (data paths), decided by
the pure functions :func:`rule_a`, :func:`rule_b` and :func:`rule_c` and
applied in one place.  Two validly signed heartbeats (or data packets) for
the same slot with different content yield an equivocation PoM.

Variants: REBOUND-BASIC floods individually signed heartbeats with delta
flooding + expiry + bus broadcast (S3.5).  REBOUND-MULTI additionally
aggregates heartbeats into multisignatures whose aggregate keys are
derived from the topology (S3.6; see :mod:`repro.core.heartbeat`), falling
back to individual flooding while evidence is in flux.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping
from typing import NamedTuple, Sequence, Set, Tuple

from repro.core.bounds import Bounds
from repro.core.config import VARIANT_MULTI, ReboundConfig
from repro.core.evidence import (
    EquivocationPoM,
    EvidenceSet,
    EvidenceVerifier,
    LFD,
    data_body,
    evidence_digest,
    evidence_half_body,
    heartbeat_body,
    lfd_body,
)
from repro.core.heartbeat import (
    AggregateHeartbeat,
    CoverageCalculator,
    CoverageRegistry,
    HeartbeatRecord,
    HeartbeatStore,
)
from repro.core.identity import AggregateColumn, NodeCrypto, RecordColumn
from repro.core.paths import PATH_AUTH, PATH_XREP, Path, PathSet
from repro.core.quotas import AdmissionQuotas
from repro.crypto.hashing import hash_bytes
from repro.net.message import encode, register_message
from repro.net.topology import Topology
from repro.obs import recorder as _flight
from repro.obs.events import (
    EV_EPOCH_ADVANCE,
    EV_EVIDENCE_APPLIED,
    EV_HEARTBEAT_SEND,
    EV_HEARTBEAT_VERIFY,
    EV_LFD_ISSUED,
    EV_POM_CREATED,
    EV_QUOTA_DROP,
    LFD_RULES,
)
from repro.sched.modegen import FailureScenario


def _evidence_event_data(item: Any) -> Dict[str, Any]:
    """Kind-specific flight-recorder fields for one evidence item."""
    from repro.core.blessing import Blessing

    data: Dict[str, Any] = {"item": type(item).__name__}
    if isinstance(item, LFD):
        data["link"] = list(item.link)
        data["issuer"] = item.issuer
    elif isinstance(item, Blessing):
        data["blessed"] = item.node_id
    else:
        accused = getattr(item, "accused", None)
        if accused is not None:
            data["accused"] = accused
    return data


@register_message
@dataclass(frozen=True)
class DataPacket:
    """A payload travelling on a forwarding-layer path.

    The origin signs the *authenticator* -- (path, round, payload digest) --
    so the signature is detachable from the payload (paper S3.8).
    """

    path_id: int
    origin_round: int
    payload: bytes
    origin: int
    signature: bytes

    def body(self) -> bytes:
        return data_body(self.path_id, self.origin_round, hash_bytes(self.payload))


@register_message
@dataclass(frozen=True)
class RoundMessage:
    """Everything one node sends a neighbor in one round."""

    sender: int
    round_no: int
    records: Tuple[HeartbeatRecord, ...]
    aggregates: Tuple[AggregateHeartbeat, ...]
    evidence: Tuple[Any, ...]
    packets: Tuple[DataPacket, ...]


@dataclass
class RoundOutput:
    """What a node must transmit at the end of a round.

    The flood content (records/aggregates/evidence) is identical for every
    neighbor -- which is what makes the S3.5 bus-broadcast optimization
    possible; data packets are routed to their specific next hops (which may
    be devices).  So the output builds one frozen :class:`RoundMessage` per
    distinct packet tuple and hands that same object to every recipient
    with an equal tuple (in steady state, every neighbor): the wire codec
    sizes it once per sender-round and serves the other recipients from its
    identity-keyed memo.
    """

    round_no: int
    records: Tuple[HeartbeatRecord, ...]
    aggregates: Tuple[AggregateHeartbeat, ...]
    evidence: Tuple[Any, ...]
    packets_by_next_hop: Dict[int, List[DataPacket]]
    controller_neighbors: List[int]
    _messages: Dict[Tuple[int, Tuple[DataPacket, ...]], RoundMessage] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def message_for(self, sender: int, destinations: List[int]) -> RoundMessage:
        """The wire message covering ``destinations`` (shared by every
        call with the same sender and an equal packet tuple)."""
        packets: List[DataPacket] = []
        for dest in destinations:
            packets.extend(self.packets_by_next_hop.get(dest, ()))
        key = (sender, tuple(packets))
        msg = self._messages.get(key)
        if msg is None:
            msg = self._messages[key] = RoundMessage(
                sender=sender,
                round_no=self.round_no,
                records=self.records,
                aggregates=self.aggregates,
                evidence=self.evidence,
                packets=key[1],
            )
        return msg


@dataclass
class _AggregateState:
    """This node's in-progress aggregate for one origin round."""

    value: int
    support: int  # signer set as a mask, bit i = node i
    grew: bool = True  # support grew this round (transmit trigger)
    broken: bool = False  # diverged from the DP; stop aggregating


# -- the end-of-round omission rules: each reads one immutable observation of
# a node's round, windows included (taken from the system's Bounds), and
# returns the peers it accuses; ForwardingLayer takes the observations and
# applies the decisions (_detect_omissions).


def _origin_masks(records: Sequence[HeartbeatRecord], controllers: FrozenSet[int],
                  skip: FrozenSet[int] = frozenset()) -> Dict[int, int]:
    """origin round -> mask of the controller origins of ``records`` but
    those whose id is in ``skip``.  Only controllers ever sit in an expected
    support; this also keeps an unverified (spot-check-skipped) id out."""
    masks: Dict[int, int] = {}
    for rec in records:
        if rec.origin in controllers and id(rec) not in skip:
            masks[rec.round_no] = masks.get(rec.round_no, 0) | 1 << rec.origin
    return masks


def _excludes(pattern: FailureScenario, node: int, peer: int) -> bool:
    """Does ``pattern`` declare ``peer`` or the link ``node``-``peer`` faulty?"""
    return peer in pattern.nodes or (min(node, peer), max(node, peer)) in pattern.links


class RuleAObservation(NamedTuple):
    round_no: int
    joined_round: int
    last_evidence_change: int
    live: Tuple[int, ...]  # live controller neighbors
    heard: FrozenSet[int]  # peers a round message arrived from this round
    join_grace: int  # Bounds.join_grace
    suspension: int  # Bounds.rule_a_suspension


def rule_a(obs: RuleAObservation) -> List[int]:
    """Rule A (liveness): every live controller neighbor must deliver a
    round message every round.

    Suspended for the join grace and for ``suspension`` rounds after an
    evidence change: a just-re-admitted (blessed) neighbor needs one round
    before its first message can arrive.  The suspension is bounded by the
    total amount of valid evidence an adversary can mint."""
    r = obs.round_no
    if (
        r <= obs.joined_round + obs.join_grace
        or r <= obs.last_evidence_change + obs.suspension
    ):
        return []
    return [j for j in obs.live if j not in obs.heard]


class RuleBObservation(NamedTuple):
    node: int
    round_no: int
    joined_round: int
    last_evidence_change: int
    #: the origin round at the expiry horizon (age d_max) this round
    origin_round: int
    join_grace: int  # Bounds.join_grace
    deferral: int  # Bounds.rule_b_deferral
    live: Tuple[int, ...]
    heard: FrozenSet[int]
    #: heard live neighbor -> origins it must relay by age d_max / origins
    #: of ``origin_round`` it did relay (masks, bit i = node i)
    expected: Mapping[int, int]
    delivered: Mapping[int, int]
    accused: FrozenSet[int]  # nodes condemned by an unabsolved PoM
    #: neighbor -> (round raised, expected mask) of each open suspicion
    pending: Mapping[int, Tuple[int, int]]
    pattern: FailureScenario


class RuleBDecision(NamedTuple):
    lfds: List[int]
    pending: Dict[int, Tuple[int, int]]
    probe: bool  # a suspicion is open: keep individual records circulating


def rule_b(obs: RuleBObservation) -> RuleBDecision:
    """Rule B (coverage): by age d_max a neighbor must have relayed the
    heartbeat of every origin in its expected support.

    Checked once per origin round, at the expiry horizon
    (``origin_round``), and not during the join grace, for origin rounds
    before it, or within the deferral of the last evidence change.  A
    shortfall opens a suspicion, not an LFD, unless a PoM condemns a node
    in the expected support: that origin's equivocating heartbeats
    poisoned the relay chain, so the relaying neighbor is not blamed.  A
    suspicion is held for the deferral (while record probing runs) so such
    a PoM can claim it; it is dropped once a PoM explains it or the
    pattern excludes the neighbor or the link, and otherwise matures into
    an LFD."""
    r = obs.round_no
    pending = dict(obs.pending)
    settled = obs.joined_round + obs.join_grace
    if r <= settled:
        return RuleBDecision([], pending, False)
    accused = sum(1 << node for node in obs.accused)
    if obs.origin_round >= max(settled, obs.last_evidence_change + obs.deferral):
        for j in obs.live:
            if j not in obs.heard:
                continue
            expected = obs.expected[j]
            if expected & ~obs.delivered[j] and not expected & accused:
                pending.setdefault(j, (r, expected))
    probe = bool(pending)
    lfds = []
    for j, (raised, expected) in sorted(pending.items()):
        if expected & accused or _excludes(obs.pattern, obs.node, j):
            del pending[j]
        elif r >= raised + obs.deferral:
            del pending[j]
            lfds.append(j)
    return RuleBDecision(lfds, pending, probe)


class RuleCObservation(NamedTuple):
    node: int
    round_no: int
    joined_round: int
    paths_stable_since: int  # round of the last mode switch
    join_grace: int  # Bounds.join_grace
    settle: int  # Bounds.rule_c_settle
    #: (upstream hop, packet key (path id, origin round)) expected this
    #: round on each enforced path through the node, in path order
    expected: Tuple[Tuple[int, Tuple[int, int]], ...]
    seen: FrozenSet[Tuple[int, int]]  # the expected keys already received
    pattern: FailureScenario


def rule_c(obs: RuleCObservation) -> List[int]:
    """Rule C (data paths): once a path's pipeline has filled, each hop
    must receive the path's packet every round; a miss accuses the
    upstream hop.  Settle window after a mode switch at round s: the source
    may adopt the new mode a couple of rounds after this node (devices
    learn modes from flooded evidence), so only packets originated at
    round s + settle or later are expected.  Suspended for the join grace;
    an upstream the pattern already excludes is not accused."""
    if obs.round_no <= obs.joined_round + obs.join_grace:
        return []
    first_expected = obs.paths_stable_since + obs.settle
    return [
        upstream
        for upstream, key in obs.expected
        if key[1] >= first_expected
        and key not in obs.seen
        and not _excludes(obs.pattern, obs.node, upstream)
    ]


class ForwardingLayer:
    """One controller's forwarding layer.

    Args:
        node_id: this controller.
        topology: the full physical topology.
        config: deployment parameters.
        crypto: counted crypto handle.
        verifier: evidence verifier (shared verification logic).
        on_new_evidence: callback(list of items) after evidence grows.
        on_packet: callback(path, origin_round, payload, origin,
            signature) when a packet reaches this node as sink (signature
            already verified).
        coverage: the system's coverage registry (one DP per fault
            pattern, shared by the system's nodes).
        bounds: the system's windows (expiry, Rules A--C, quotas).
    """

    def __init__(
        self,
        node_id: int,
        topology: Topology,
        config: ReboundConfig,
        crypto: NodeCrypto,
        verifier: EvidenceVerifier,
        on_new_evidence: Callable[[List[Any]], None],
        on_packet: Callable[[Path, int, bytes, int, bytes], None],
        coverage: CoverageRegistry,
        bounds: Bounds,
    ):
        self.node_id = node_id
        self.topology = topology
        self.config = config
        self.crypto = crypto
        self.verifier = verifier
        self.on_new_evidence = on_new_evidence
        self.on_packet = on_packet
        self.coverage = coverage
        self.bounds = bounds

        self.evidence = EvidenceSet()
        self.last_evidence_change = -(10**9)
        self._controllers = frozenset(topology.controllers)
        self.store = HeartbeatStore(
            window=bounds.expiry_window, expiry=config.expiry_optimization
        )
        self.store.owner = node_id
        # MULTI aggregate state per origin round.
        self._aggregates: Dict[int, _AggregateState] = {}
        # Rule B bookkeeping: neighbor -> origin round -> delivered origins
        # (an int mask, bit i = node i, like CoverageCalculator.support_bits).
        self._delivered: Dict[int, Dict[int, int]] = defaultdict(dict)
        self._got_message_from: Set[int] = set()
        # link -> round of the last LFD this layer issued for it.  Re-issue
        # is allowed after the LFD re-issue cooldown so a genuine link fault
        # whose first declaration was explained away by a concurrent
        # equivocation PoM (see EvidenceSet.failure_pattern) is not masked
        # forever; a link already adopted into the fault pattern stops being
        # a live neighbor, so the cooldown never causes per-round re-minting.
        self._lfds_issued: Dict[Tuple[int, int], int] = {}
        # Open Rule B suspicions: neighbor -> (round raised, expected
        # support mask at raise time); see rule_b.
        self._pending_rule_b: Dict[int, Tuple[int, int]] = {}
        # While probing, _flood falls back to individual-record
        # flooding even in MULTI's stable state: conflicting per-destination
        # heartbeats only surface as equivocation PoMs when records circulate.
        self._probe_until = -1
        self.quotas = AdmissionQuotas(bounds)
        # Bus spot-checking (S3.5) applies only to senders sharing a bus with
        # this node; the topology is fixed, so they are found once.
        self._bus_peers = frozenset(
            m for bus in topology.buses_of(node_id) for m in bus.members
        ) if config.bus_broadcast and config.signature_spot_checking else frozenset()

        # Data-path state.
        self.paths: PathSet = PathSet([])
        self.paths_stable_since = 0
        self._relay_queue: List[DataPacket] = []
        self._local_outbox: List[DataPacket] = []
        self._seen_packets: Set[Tuple[int, int]] = set()
        self._new_evidence_outbox: List[Any] = []
        self._round = 0
        self._joined_round = 0
        self._refresh_pattern()

    # -- wiring --------------------------------------------------------------

    def start(self, round_no: int) -> None:
        """Begin participating (heartbeats expected from the next round on)."""
        self._joined_round = round_no
        self._round = round_no
        self._refresh_pattern()

    def set_paths(self, paths: PathSet, stable_since: int) -> None:
        self.paths = paths
        self.paths_stable_since = stable_since

    # -- fault pattern / coverage ------------------------------------------------

    def _refresh_pattern(self) -> None:
        """Derive the fault pattern from the evidence, and from it the
        coverage DP and the live controller neighbors."""
        pattern = self._fault_pattern = self.evidence.failure_pattern(
            self.config.fmax, pom_lfd_slack=self.bounds.pom_lfd_slack
        )
        self._coverage: CoverageCalculator = self.coverage.for_pattern(pattern)
        self._live: Tuple[int, ...] = tuple(
            x
            for x in self.topology.neighbors(self.node_id)
            if x in self._controllers and not _excludes(pattern, self.node_id, x)
        )

    @property
    def fault_pattern(self) -> FailureScenario:
        return self._fault_pattern

    @property
    def epoch_digest(self) -> bytes:
        return self.evidence.digest()

    # -- evidence ---------------------------------------------------------------

    def issue_lfd(self, other: int, rule: str) -> None:
        """Declare the link to ``other`` failed; ``rule`` (one of
        :data:`~repro.obs.events.LFD_RULES`) names the violated demand."""
        if rule not in LFD_RULES:
            raise ValueError(f"unknown LFD rule {rule!r}")
        link = (min(self.node_id, other), max(self.node_id, other))
        last = self._lfds_issued.get(link)
        if last is not None and self._round < last + self.bounds.lfd_reissue_cooldown:
            return
        self._lfds_issued[link] = self._round
        self._trace(EV_LFD_ISSUED, {"link": list(link), "rule": rule})
        signature = self.crypto.sign(lfd_body(self.node_id, other, self._round))
        self._admit_evidence(
            [LFD(*link, declared_round=self._round, issuer=self.node_id,
                 signature=signature)]
        )

    def submit_evidence(self, item: Any) -> None:
        """Inject locally generated (already valid) evidence, e.g. a PoM
        from the auditing layer."""
        self._admit_evidence([item])

    def _admit_evidence(self, items: List[Any]) -> None:
        """Add already verified ``items`` to the evidence set."""
        from repro.core.blessing import Blessing

        added = []
        for item in items:
            if item in self.evidence:
                continue
            if self.evidence.add(item):
                added.append(item)
                if isinstance(item, Blessing):
                    # The repaired node's links may legitimately fail again
                    # later; re-arm this layer's one-LFD-per-link guard.
                    self._lfds_issued = {
                        link: rnd
                        for link, rnd in self._lfds_issued.items()
                        if item.node_id not in link
                    }
                    # A blessing absolves accusations up to as_of_round.  A
                    # coverage suspicion raised in that window would mature
                    # into a *post*-blessing LFD the blessing cannot absolve,
                    # permanently re-condemning the repaired node -- drop it
                    # the same way an explaining pattern entry would.
                    pending = self._pending_rule_b.get(item.node_id)
                    if pending is not None and pending[0] <= item.as_of_round:
                        del self._pending_rule_b[item.node_id]
        if added:
            self.last_evidence_change = self._round
            self._new_evidence_outbox.extend(added)
            self._refresh_pattern()
            if _flight.active is not None:
                for item in added:
                    self._trace(EV_EVIDENCE_APPLIED, _evidence_event_data(item))
                pattern = self._fault_pattern
                self._trace(
                    EV_EPOCH_ADVANCE,
                    {
                        "digest": self.evidence.digest().hex()[:16],
                        "items": len(self.evidence),
                        "pattern_nodes": sorted(pattern.nodes),
                        "pattern_links": [
                            list(link) for link in sorted(pattern.links)
                        ],
                    },
                )
            self.on_new_evidence(added)

    def _trace(self, kind: int, data: Dict[str, Any]) -> None:
        """Flight-record one event at this node in the current round."""
        flight = _flight.active
        if flight is not None:
            flight.emit(kind, self.node_id, data, round_no=self._round)

    # -- round lifecycle -----------------------------------------------------------

    def begin_round(self, round_no: int) -> None:
        self._round = round_no
        self._got_message_from = set()
        self.quotas.begin_round(round_no)

    def _charge_quota(self, sender: int, kind: str, count: int = 1) -> int:
        """Admission control: ``count`` units of round-``kind``
        verification budget for ``sender``; returns how many (a prefix) are
        admitted.  Anything beyond what a correct node could legitimately
        originate in one round is dropped *before* signature verification
        (the flood defense); the first drop per (sender, kind) per round is
        flight-recorded."""
        admitted, first_drop = self.quotas.charge(sender, kind, count)
        if first_drop:
            self._trace(EV_QUOTA_DROP, {"sender": sender, "kind": kind})
        return admitted

    def receive(self, round_no: int, sender: int, msg: Any) -> None:
        if not isinstance(msg, RoundMessage):
            return
        if msg.sender != sender or msg.round_no != round_no - 1:
            self.issue_lfd(sender, "header")
            return
        if sender in self._fault_pattern.nodes:
            return  # excluded node: its messages are ignored (Fig. 4, l.23)
        first_from_sender = sender not in self._got_message_from
        self._got_message_from.add(sender)
        bad = False
        bad |= not self._process_evidence(sender, msg.evidence)
        if first_from_sender:
            # A node sharing two buses with the sender hears the same
            # broadcast twice; heartbeats are only folded in once (combining
            # an aggregate twice would diverge from the coverage DP).
            bad |= not self._process_records(sender, msg.records)
            bad |= not self._process_aggregates(sender, msg.aggregates)
        self._process_packets(sender, msg.packets)
        if bad:
            self.issue_lfd(sender, "content")

    def receive_batch(self, batch: List[Tuple[int, int, Any]]) -> None:
        """Process a round's buffered deliveries in arrival order.  Each
        message's records, and under MULTI its aggregates, are read from
        the round's shared columns (:meth:`_record_column`,
        :meth:`_aggregate_column`): the first recipient of a sender message
        builds one, and every other recipient (under the same epoch) reads
        it."""
        for round_no, sender, msg in batch:
            self.receive(round_no, sender, msg)

    # -- receive helpers ---------------------------------------------------------

    def _process_evidence(self, sender: int, items: Tuple[Any, ...]) -> bool:
        ok = True
        to_add = []
        for item in items:
            if item in self.evidence:
                continue
            if not self._charge_quota(sender, "evidence"):
                continue
            if self.verifier.verify(item):
                to_add.append(item)
            else:
                ok = False  # a correct node never forwards invalid evidence
        if to_add:
            self._admit_evidence(to_add)
        return ok

    def _process_records(
        self, sender: int, records: Tuple[HeartbeatRecord, ...]
    ) -> bool:
        """Fold ``sender``'s records into the store and the Rule B marks.
        Only the in-window records this node lacks are checked -- quota,
        verification, store and PoMs, in message order -- then each origin
        round's mask of the shared column is or-ed into the marks.  A record
        dropped by the quota or failing verification is not delivered."""
        if not records:
            return True
        column, store, r = self._record_column(records), self.store, self._round
        floor = (r - self.bounds.expiry_window if self.config.expiry_optimization
                 else float("-inf"))
        # With repeated keys an earlier record can turn a later one into a
        # stored duplicate: walk them all and charge each as it comes.
        # Otherwise one charge covers the records this node lacks (the set
        # difference walks the column's ids, not the larger held set).
        shared = column.shared_keys
        lacking = range(len(records)) if shared else sorted(
            map(column.position.__getitem__, column.ids.difference(store.held)))
        todo = [i for i in lacking
                if floor <= records[i].round_no <= r and not store.holds(records[i])]
        ok, failed = True, []
        budget, drop = self.quotas.charge(sender, "records", 0 if shared else len(todo))
        for i in todo:
            rec = records[i]
            if shared:
                if store.holds(rec):
                    continue
                budget, drop = self.quotas.charge(sender, "records")
            if not budget:
                if drop:  # the first drop per (sender, kind) this round
                    self._trace(EV_QUOTA_DROP, {"sender": sender, "kind": "records"})
                    drop = False
                failed.append(rec)
                continue
            budget -= 1
            if not self._verify_record(sender, rec, column.verdicts, i):
                ok = False
                failed.append(rec)
                continue
            status, conflict = store.add(rec)
            if status == "conflict" and conflict is not None:
                pom = EquivocationPoM(
                    rec.origin, conflict.body(), conflict.signature,
                    rec.body(), rec.signature,
                )
                self._trace(
                    EV_POM_CREATED, {"accused": rec.origin, "pom": "equivocation"}
                )
                self._admit_evidence([pom])
        masks = column.masks if not failed else _origin_masks(
            records, self._controllers, frozenset(map(id, failed)))
        for round_no, bits in masks.items():
            if floor <= round_no <= r:
                delivered = self._delivered[sender]
                delivered[round_no] = delivered.get(round_no, 0) | bits
        return ok

    def _record_column(self, records: Tuple[HeartbeatRecord, ...]) -> RecordColumn:
        """A pure function of the records, verdicts included (PROTOCOL.md
        S7): the Directory keeps one per records tuple per round."""
        return self.crypto.directory.column(
            self._round, ("records", id(records)), records,
            lambda: RecordColumn(
                records,
                frozenset(map(id, records)),
                {id(rec): i for i, rec in enumerate(records)},
                _origin_masks(records, self._controllers),
                len({(rec.origin, rec.round_no) for rec in records}) < len(records),
                [None] * len(records),
            ),
        )

    def _verify_record(
        self, sender: int, rec: HeartbeatRecord, verdicts: List[Any], i: int
    ) -> bool:
        """This node pays for verifying record ``i`` of a column whose
        ``verdicts`` keep the verdict once a recipient has decided it."""
        if self._spot_check_skip(sender, rec):
            return True
        multi = self.config.variant == VARIANT_MULTI
        self.crypto.charge_record_verify(rec.origin, rec.signature, multi)
        ok = verdicts[i]
        if ok is None:
            ok = verdicts[i] = self.crypto.directory.signature_verdict(
                rec.origin, rec.body(), rec.signature, multi
            )
        if _flight.active is not None:  # the per-record path: no dict when off
            self._trace(
                EV_HEARTBEAT_VERIFY,
                {"origin": rec.origin, "hb_round": rec.round_no, "ok": ok},
            )
        return ok

    def _spot_check_skip(self, sender: int, rec: HeartbeatRecord) -> bool:
        """Bus spot-checking (S3.5): only fmax+1 members verify a broadcast.

        Returns True when this node may skip the verification.  The checker
        subset is derived deterministically from the record identity so the
        adversary cannot aim at a round with no correct checker.
        """
        if sender not in self._bus_peers:
            return False
        channel = self.topology.channel_between(sender, self.node_id)
        if channel[0] != "bus":
            return False
        bus = self.topology.buses[channel[1]]
        members = sorted(bus.members & self._controllers)
        k = self.config.fmax + 1
        if len(members) <= k:
            return False
        seed = int.from_bytes(
            hash_bytes(encode((rec.origin, rec.round_no, bus.bus_id)))[:8], "big"
        )
        checkers = {members[(seed + i) % len(members)] for i in range(k)}
        return self.node_id not in checkers

    def _aggregate_column(
        self, sender: int, aggregates: Tuple[AggregateHeartbeat, ...], digest: bytes
    ) -> AggregateColumn:
        """``sender``'s aggregates as judged under this node's epoch digest
        and coverage DP this round.  That is a pure function of public data
        (PAPER S3.6: the key is precomputed from the mode), so the system's
        Directory builds one column per (digest, DP, sender, aggregates
        tuple) per round, and every recipient of the same tuple object --
        ``RoundOutput.message_for`` hands all of them one -- reads it."""
        coverage = self._coverage
        return self.crypto.directory.column(
            self._round, (digest, coverage, sender, id(aggregates)), aggregates,
            lambda: self._build_column(sender, aggregates, digest, coverage),
        )

    def _build_column(
        self,
        sender: int,
        aggregates: Tuple[AggregateHeartbeat, ...],
        digest: bytes,
        coverage: CoverageCalculator,
    ) -> AggregateColumn:
        # The DP checks an aggregate inside the expiry window, under this
        # epoch, from a sender it covers; one under another epoch is left
        # to the fallback records.
        covered = coverage.has_node(sender)
        d_max = self.bounds.d_max
        checked, mismatch = [], False
        for agg in aggregates:
            age = self._round - 1 - agg.round_no
            if age < 0 or age > d_max:
                continue
            if agg.epoch_digest != digest:
                mismatch = True
            elif covered:
                checked.append((agg, age, coverage.aggregate_key(sender, age)))
        verdicts = self.crypto.ms_warm_batch(
            [(agg.body(), agg.sig_value, key) for agg, _age, key in checked]
        )
        return AggregateColumn(
            tuple(
                (agg.round_no, agg.sig_value, age, key,
                 coverage.support_bits(sender, age), ok)
                for (agg, age, key), ok in zip(checked, verdicts)
            ),
            mismatch,
        )

    def _process_aggregates(
        self, sender: int, aggregates: Tuple[AggregateHeartbeat, ...]
    ) -> bool:
        if self.config.variant != VARIANT_MULTI:
            return len(aggregates) == 0
        digest = self.epoch_digest
        column = self._aggregate_column(sender, aggregates, digest)
        if (
            column.mismatch
            and self.last_evidence_change < self._round - self.bounds.multi_fallback
        ):
            # An unexplained divergence -- this node's evidence has been
            # stable past the MULTI fallback window, so no recent fault
            # accounts for it -- is a storm symptom: probe with individual
            # records so any equivocation surfaces as a PoM.
            self._start_probe()
        rows = column.rows
        if not rows:
            return True
        rows = rows[: self._charge_quota(sender, "aggregates", len(rows))]
        self.crypto.ms_verify_batch(digest, sender, rows)
        delivered = self._delivered[sender]
        for r_origin, sig_value, _age, _key, support, ok in rows:
            if not ok:
                # The sender's propagation was disturbed (or it lies); do not
                # combine, and let Rule B attribute any resulting shortfall.
                # Probe with individual records meanwhile: if an equivocator
                # poisoned the aggregation chain, only circulating records
                # can expose the conflicting signatures.
                self._start_probe()
                continue
            delivered[r_origin] = delivered.get(r_origin, 0) | support
            state = self._aggregates.get(r_origin)
            if state is None or state.broken:
                continue
            # Combine every verified aggregate: the DP key recurrence adds
            # every transmitting neighbor's aggregate, even when the
            # support set does not grow (multiplicities still change).
            new_support = state.support | support
            state.value = self.crypto.ms_combine(state.value, sig_value)
            if new_support != state.support:
                state.support = new_support
                state.grew = True
        return True

    def _process_packets(self, sender: int, packets: Tuple[DataPacket, ...]) -> None:
        for packet in packets:
            path = self.paths.by_id.get(packet.path_id)
            if path is None:
                continue
            position = path.position_of(self.node_id)
            if position is None or position == 0:
                continue
            key = (packet.path_id, packet.origin_round)
            if key in self._seen_packets:
                continue
            self._seen_packets.add(key)
            if path.sink == self.node_id:
                # During a mode transition, packets signed under the old
                # mode are still in flight; dropping them silently (instead
                # of blaming the relay) preserves accuracy.  Detection of a
                # genuinely bad source resumes once the pipeline refills.
                settling = (
                    self._round - self.paths_stable_since
                    < path.length + self.bounds.rule_c_settle
                )
                if packet.origin != path.source:
                    rule = "packet-origin"
                elif not self.crypto.verify(
                    packet.origin, packet.body(), packet.signature,
                    domain="auditing",
                ):
                    rule = "packet-signature"  # tampered with in transit
                else:
                    self.on_packet(path, packet.origin_round, packet.payload,
                                   packet.origin, packet.signature)
                    continue
                if not settling:
                    self.issue_lfd(sender, rule)
            else:
                self._relay_queue.append(packet)

    # -- sending --------------------------------------------------------------------

    def queue_packet(self, path: Path, payload: bytes) -> None:
        """Originate a data packet on ``path`` (source must be this node)."""
        if path.source != self.node_id:
            raise ValueError("only the path source may originate packets")
        body = data_body(path.path_id, self._round, hash_bytes(payload))
        packet = DataPacket(
            path_id=path.path_id,
            origin_round=self._round,
            payload=payload,
            origin=self.node_id,
            signature=self.crypto.sign(body, domain="auditing"),
        )
        if path.length == 0:
            # Degenerate single-node path: deliver locally.
            self.on_packet(
                path, self._round, payload, self.node_id, packet.signature
            )
        else:
            self._local_outbox.append(packet)

    def _detect_omissions(self) -> None:
        """Rules A, B and C at the end of a round: the one place the
        end-of-round LFDs are decided and issued.

        Each rule decides on an observation taken after the previous
        rule's LFDs are applied: a Rule A LFD moves
        ``last_evidence_change`` (suspending Rule B's horizon this round),
        and any LFD can extend the fault pattern or switch the mode.  Rules
        A and B issue every LFD they decided (Rule B judged its suspicions
        against the pattern as observed); Rule C re-checks each candidate,
        since an earlier Rule C LFD may have excluded its upstream or
        switched the mode, restarting the settle window."""
        heard = frozenset(self._got_message_from)
        observed_a = RuleAObservation(
            self._round, self._joined_round, self.last_evidence_change,
            self._live, heard, self.bounds.join_grace,
            self.bounds.rule_a_suspension,
        )
        for j in rule_a(observed_a):
            self.issue_lfd(j, "rule-a")
        decision = rule_b(self._observe_rule_b(heard))
        self._pending_rule_b = decision.pending
        if decision.probe:
            self._start_probe()
        for j in decision.lfds:
            self.issue_lfd(j, "rule-b")
        observed = self._observe_rule_c()
        for j in rule_c(observed):
            if self.paths_stable_since != observed.paths_stable_since:
                break
            if not _excludes(self._fault_pattern, self.node_id, j):
                self.issue_lfd(j, "rule-c")

    def _observe_rule_b(self, heard: FrozenSet[int]) -> RuleBObservation:
        bounds = self.bounds
        r_origin = self._round - bounds.rule_b_horizon
        expected = {
            j: self._coverage.support_bits(j, bounds.d_max)
            for j in self._live if j in heard
        }
        return RuleBObservation(
            node=self.node_id,
            round_no=self._round,
            joined_round=self._joined_round,
            last_evidence_change=self.last_evidence_change,
            origin_round=r_origin,
            join_grace=bounds.join_grace,
            deferral=bounds.rule_b_deferral,
            live=self._live,
            heard=heard,
            expected=expected,
            delivered={
                j: self._delivered.get(j, {}).get(r_origin, 0) for j in expected
            },
            accused=self.evidence.accused_nodes(),
            pending=self._pending_rule_b,
            pattern=self._fault_pattern,
        )

    def _observe_rule_c(self) -> RuleCObservation:
        # Only paths whose sources produce unconditionally every round are
        # enforced: data paths (tasks execute every period even with empty
        # inputs; sensors always read) and input-bundle paths (primaries
        # always stream).  Auth and xrep packets are produced only in
        # *reaction* to other paths' traffic, so their absence is
        # attributable to the upstream omission that is already detected on
        # the originating path.
        expected = []
        for path in self.paths.through(self.node_id):
            position = path.hops.index(self.node_id)
            if position and path.kind not in (PATH_AUTH, PATH_XREP):
                key = (path.path_id, self._round - position)
                expected.append((path.hops[position - 1], key))
        return RuleCObservation(
            node=self.node_id,
            round_no=self._round,
            joined_round=self._joined_round,
            paths_stable_since=self.paths_stable_since,
            join_grace=self.bounds.join_grace,
            settle=self.bounds.rule_c_settle,
            expected=tuple(expected),
            seen=frozenset(k for _, k in expected if k in self._seen_packets),
            pattern=self._fault_pattern,
        )

    def _start_probe(self) -> None:
        """Fall back to individual-record flooding for a short window:
        MULTI's steady state floods no records, so an equivocator's
        conflicting heartbeats never meet and no PoM can be minted.  Each
        storm symptom (failed aggregate verification, unexplained epoch
        divergence, an open Rule B suspicion) extends the probe."""
        self._probe_until = max(self._probe_until, self._round + self.bounds.probe)

    def end_round(self) -> RoundOutput:
        """Finish the round; returns the transmission plan.

        The unprotected baseline (``protocol_enabled=False``) detects no
        omissions and sends an empty flood: only its data packets travel.
        The caller (the node protocol) is responsible for using bus
        broadcast where the config enables it.
        """
        r = self._round
        if self.config.protocol_enabled:
            self._detect_omissions()
            records, aggregates, evidence_out = self._flood(r)
        else:
            records, aggregates, evidence_out = (), (), ()

        packets = self._relay_queue + self._local_outbox
        self._relay_queue = []
        self._local_outbox = []

        # Expiry.
        self.store.expire(r)
        horizon = r - self.bounds.expiry_window
        for stale in [k for k in self._aggregates if k < horizon]:
            del self._aggregates[stale]
        for per_neighbor in self._delivered.values():
            for stale in [k for k in per_neighbor if k < horizon]:
                del per_neighbor[stale]
        for stale in [k for k in self._seen_packets if k[1] < horizon]:
            self._seen_packets.discard(stale)

        packets_by_next_hop: Dict[int, List[DataPacket]] = defaultdict(list)
        for p in packets:
            path = self.paths.by_id.get(p.path_id)
            if path is None:
                continue
            next_hop = path.next_hop(self.node_id)
            if next_hop is not None:
                packets_by_next_hop[next_hop].append(p)
        return RoundOutput(
            round_no=r,
            records=records,
            aggregates=aggregates,
            evidence=evidence_out,
            packets_by_next_hop=dict(packets_by_next_hop),
            controller_neighbors=list(self._live),
        )

    def _flood(self, r: int) -> Tuple[tuple, tuple, tuple]:
        """Sign this round's heartbeat; returns the flood content: records,
        aggregates and fresh evidence."""
        evidence_out = tuple(self._new_evidence_outbox)
        self._new_evidence_outbox = []
        # Fresh evidence => heartbeat delta binding (sigma_i(r, |dE|)).
        delta = len(evidence_out)
        body = heartbeat_body(r, delta)
        multi = self.config.variant == VARIANT_MULTI
        own_sig, sig_value = self.crypto.sign_record(body, multi)
        own_record = HeartbeatRecord(
            origin=self.node_id, round_no=r, delta_count=delta, signature=own_sig
        )
        self._trace(EV_HEARTBEAT_SEND, {"delta": delta})
        self.store.add(own_record)
        new_records = self.store.drain_new()
        if not multi:
            return tuple(new_records), (), evidence_out
        # Evidence halves: sigma_i(r, e) for each new item (S3.6's split).
        for item in evidence_out:
            self.crypto.ms_sign(evidence_half_body(r, evidence_digest(item)))
        # Seed own aggregate for this round; nonzero-delta bodies cannot
        # join the aggregate.
        self._aggregates[r] = _AggregateState(
            value=sig_value if delta == 0 else 0,
            support=1 << self.node_id if delta == 0 else 0,
            broken=delta != 0,
        )
        # Aggregates for stable rounds, individual fallback otherwise.
        stable_floor = self.last_evidence_change + 1
        aggregates: List[AggregateHeartbeat] = []
        for r_origin, state in sorted(self._aggregates.items()):
            if state.broken or r_origin < stable_floor or not state.grew:
                continue
            state.grew = False
            aggregates.append(
                AggregateHeartbeat(
                    round_no=r_origin,
                    sig_value=state.value,
                    epoch_digest=self.epoch_digest,
                )
            )
        records: List[HeartbeatRecord] = []
        unstable = (
            self.last_evidence_change >= r - self.bounds.multi_fallback
            or r <= self._probe_until
        )
        if unstable or delta != 0:
            # Fall back to BASIC-style individual flooding while evidence is
            # in flux (the bounded worst case of S3.6).
            records = list(new_records)
            if own_record not in records:
                records.append(own_record)
        # In stable state individual records are not retransmitted: the
        # aggregates carry the coverage, so MULTI's steady-state bandwidth
        # and storage stay small (Fig. 5a/b).
        return tuple(records), tuple(aggregates), evidence_out

    # -- metrics ---------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes of retained protocol state (Fig. 5b metric)."""
        size = self.store.serialized_size()
        size += self.evidence.serialized_size()
        if self.config.variant == VARIANT_MULTI:
            element = self.crypto.directory.group.element_size
            size += len(self._aggregates) * (element + 16)
        return size
