"""Concrete adversary behaviours installed on compromised controllers."""

from __future__ import annotations

import random
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.auditing import TaskRegistry
from repro.core.config import VARIANT_MULTI
from repro.core.evidence import heartbeat_body
from repro.core.forwarding import RoundMessage
from repro.core.heartbeat import AggregateHeartbeat, HeartbeatRecord
from repro.crypto.hashing import derive_seed


class AdversaryBehavior:
    """Base class; a behaviour is activated on one compromised node.

    Hooks:
        * :meth:`activate` -- called once at the compromise round.
        * :meth:`on_round` -- called each round while active (for staged
          attacks like the LFD storm).
        * :meth:`tamper` -- installed as the network tamper hook; may drop
          (return None) or rewrite outgoing messages.
    """

    def __init__(self) -> None:
        self.system = None
        self.node_id: Optional[int] = None
        self.detached = False

    def activate(self, system, node_id: int) -> None:
        self.system = system
        self.node_id = node_id
        self.detached = False

    def detach(self) -> None:
        """Evict the adversary (operator repair): after this, the behaviour
        must never act again, even if a stale reference to it survives."""
        self.detached = True

    def on_round(self, round_no: int) -> None:
        """Per-round adversarial action (default: none)."""

    def tamper(
        self, round_no: int, sender: int, destination: int, payload: Any
    ) -> Optional[Any]:
        """Message rewrite hook (default: pass through)."""
        return payload


class CrashBehavior(AdversaryBehavior):
    """Fail-stop: the node is silenced entirely at the network layer."""

    def activate(self, system, node_id: int) -> None:
        super().activate(system, node_id)
        system.network.crash_node(node_id)


class SilenceBehavior(AdversaryBehavior):
    """The node keeps receiving but sends nothing (omission on all links)."""

    def tamper(self, round_no, sender, destination, payload):
        return None


class SelectiveOmissionBehavior(AdversaryBehavior):
    """Drop all messages to a chosen set of victims (targeted omission)."""

    def __init__(self, victims: Iterable[int]):
        super().__init__()
        self.victims = set(victims)

    def tamper(self, round_no, sender, destination, payload):
        return None if destination in self.victims else payload


class CorruptOutputRegistry(TaskRegistry):
    """A registry wrapper whose task outputs are attacker-controlled.

    Wraps the shared registry; ``compute`` is re-dispatched through
    corrupted logic for every task, producing deterministic-looking garbage
    (seeded PRNG) -- the Fig. 11 attack ("feeding random data to their
    downstream tasks").
    """

    def __init__(
        self,
        base: TaskRegistry,
        seed: int = 0,
        constant: Optional[bytes] = None,
        task_ids: Optional[Iterable[int]] = None,
    ):
        super().__init__()
        self._base = base
        self._seed = seed
        self._constant = constant
        self._task_ids = set(task_ids) if task_ids is not None else None

    def logic(self, task_id: int):
        base_logic = self._base.logic(task_id)
        if base_logic is None:
            return None
        if self._task_ids is not None and task_id not in self._task_ids:
            return base_logic
        return _CorruptLogic(base_logic, self._seed ^ task_id, self._constant)


class _CorruptLogic:
    def __init__(self, base, seed: int, constant: Optional[bytes]):
        self._base = base
        self._seed = seed
        self._constant = constant

    def initial_state(self) -> bytes:
        return self._base.initial_state()

    def compute(self, state, inputs, round_no):
        new_state, _output = self._base.compute(state, inputs, round_no)
        if self._constant is not None:
            return new_state, self._constant
        rng = random.Random(derive_seed(self._seed, round_no))
        return new_state, bytes(rng.getrandbits(8) for _ in range(8))


class RandomOutputBehavior(AdversaryBehavior):
    """Commission fault: the node's primaries emit random data (Fig. 11).

    With ``primaries_only`` (default) the node corrupts only the tasks it
    runs as primary, keeping its replica audits honest -- the stealthiest
    variant, which only the deterministic-replay audit can catch.  With
    ``primaries_only=False`` it also audits dishonestly, emitting bogus
    PoMs that correct nodes reject (and LFD it for).
    """

    def __init__(self, seed: int = 0, constant: Optional[bytes] = None,
                 primaries_only: bool = True):
        super().__init__()
        self.seed = seed
        self.constant = constant
        self.primaries_only = primaries_only

    def activate(self, system, node_id: int) -> None:
        super().activate(system, node_id)
        node = system.node(node_id)
        task_ids = node.auditing.primaries if self.primaries_only else None
        node.auditing.registry = CorruptOutputRegistry(
            node.registry, seed=self.seed, constant=self.constant,
            task_ids=task_ids,
        )


class _RecordResigner(AdversaryBehavior):
    """Base of the equivocators: re-signs the node's own heartbeat records."""

    def activate(self, system, node_id: int) -> None:
        super().activate(system, node_id)
        self._crypto = system.node(node_id).crypto
        self._multi = system.config.variant == VARIANT_MULTI

    def _resign(self, records, delta_for) -> Tuple[tuple, bool]:
        """``records`` with each of this node's own re-signed at the delta
        count ``delta_for(rec)``, and whether there was one."""
        out, changed = [], False
        for rec in records:
            if rec.origin == self.node_id:
                delta = delta_for(rec)
                signature, _value = self._crypto.sign_record(
                    heartbeat_body(rec.round_no, delta), self._multi
                )
                rec = HeartbeatRecord(
                    origin=rec.origin,
                    round_no=rec.round_no,
                    delta_count=delta,
                    signature=signature,
                )
                changed = True
            out.append(rec)
        return tuple(out), changed


class EquivocateBehavior(_RecordResigner):
    """Heartbeat equivocation: different delta counts to different neighbors.

    The compromised node re-signs its own heartbeat with a
    destination-dependent delta count, so any two neighbors comparing notes
    (or any node receiving both relayed copies) obtain a PoM.
    """

    def tamper(self, round_no, sender, destination, payload):
        if not isinstance(payload, RoundMessage):
            return payload
        # Destination-dependent content.
        records, changed = self._resign(payload.records, lambda rec: destination % 3)
        aggregates = payload.aggregates
        if self._multi and aggregates:
            # Per-destination aggregate perturbation: receivers' coverage
            # verification fails, deliveries stall, and Rule B attributes
            # the shortfall to this node's links.
            aggregates = tuple(
                AggregateHeartbeat(
                    round_no=agg.round_no,
                    sig_value=agg.sig_value + destination + 1,
                    epoch_digest=agg.epoch_digest,
                )
                for agg in aggregates
            )
            changed = True
        if not changed:
            return payload
        return RoundMessage(
            sender=payload.sender,
            round_no=payload.round_no,
            records=records,
            aggregates=aggregates,
            evidence=payload.evidence,
            packets=payload.packets,
        )


class EvidenceFloodBehavior(AdversaryBehavior):
    """Resource-exhaustion attack on the evidence layer: flood neighbors
    with *validly signed* evidence items.

    Every item verifies -- self-LFDs about the attacker's own links with
    rotating declared rounds, and self-incriminating equivocation PoMs --
    so without admission control each one costs every receiver a signature
    verification and a store slot.  The admission quotas
    (:mod:`repro.core.quotas`) bound the per-round verification budget and
    the bounded :class:`~repro.core.evidence.EvidenceSet` keeps resident
    state at two items per bucket, whatever ``rate`` is.

    The batch is memoized per round (identical to all destinations), so
    the attacker pays ``rate`` signatures per round, not per message.
    """

    def __init__(self, rate: int = 100, seed: int = 0):
        super().__init__()
        self.rate = rate
        self.seed = seed
        self._neighbors: List[int] = []
        self._memo_round: Optional[int] = None
        self._memo: Tuple[Any, ...] = ()

    def activate(self, system, node_id: int) -> None:
        super().activate(system, node_id)
        self._crypto = system.node(node_id).crypto
        topo = system.topology
        self._neighbors = [
            x for x in topo.neighbors(node_id) if x in topo.controllers
        ]

    def _batch(self, round_no: int) -> Tuple[Any, ...]:
        if round_no == self._memo_round:
            return self._memo
        from repro.core.evidence import LFD, EquivocationPoM, lfd_body

        items: List[Any] = []
        neighbors = self._neighbors or [self.node_id + 1]
        for k in range(self.rate):
            if k % 4 == 3:
                # A self-incriminating equivocation PoM: verifies (both
                # halves carry this node's real signature) and accurately
                # accuses the attacker -- pure storage/CPU pressure.
                slot_round = round_no - (k % 7)
                body_a = heartbeat_body(slot_round, 0)
                body_b = heartbeat_body(slot_round, 1)
                items.append(
                    EquivocationPoM(
                        accused=self.node_id,
                        body_a=body_a,
                        sig_a=self._crypto.sign(body_a),
                        body_b=body_b,
                        sig_b=self._crypto.sign(body_b),
                    )
                )
            else:
                other = neighbors[k % len(neighbors)]
                declared = round_no - (k % 11)
                body = lfd_body(self.node_id, other, declared)
                lo, hi = sorted((self.node_id, other))
                items.append(
                    LFD(
                        a=lo,
                        b=hi,
                        declared_round=declared,
                        issuer=self.node_id,
                        signature=self._crypto.sign(body),
                    )
                )
        self._memo_round = round_no
        self._memo = tuple(items)
        return self._memo

    def tamper(self, round_no, sender, destination, payload):
        if not isinstance(payload, RoundMessage):
            return payload
        return RoundMessage(
            sender=payload.sender,
            round_no=payload.round_no,
            records=payload.records,
            aggregates=payload.aggregates,
            evidence=payload.evidence + self._batch(round_no),
            packets=payload.packets,
        )


class EpochSplitEquivocateBehavior(_RecordResigner):
    """Equivocation across *epoch digests*: split the neighborhood in two
    and feed each half a different heartbeat history.

    Even-numbered destinations see the node's true records; odd-numbered
    destinations get re-signed records with a different delta count *and*
    aggregates relabeled to a divergent epoch digest, so the two halves
    build conflicting views of the same epoch.  This is the storm variant
    that used to defeat Rule B attribution: the mismatch surfaced only as
    coverage shortfalls on correct relayers.  With epoch-aware attribution
    the receivers probe with individual records, mint a PoM against this
    node, and charge the shortfall to it alone.
    """

    def tamper(self, round_no, sender, destination, payload):
        if not isinstance(payload, RoundMessage):
            return payload
        if destination % 2 == 0:
            return payload
        records, changed = self._resign(
            payload.records, lambda rec: rec.delta_count + 1
        )
        aggregates = payload.aggregates
        if aggregates:
            # Relabel the epoch so the odd half of the neighborhood sees a
            # diverged history whose aggregate no longer verifies.
            aggregates = tuple(
                AggregateHeartbeat(
                    round_no=agg.round_no,
                    sig_value=agg.sig_value,
                    epoch_digest=bytes(b ^ 0xA5 for b in agg.epoch_digest),
                )
                for agg in aggregates
            )
            changed = True
        if not changed:
            return payload
        return RoundMessage(
            sender=payload.sender,
            round_no=payload.round_no,
            records=records,
            aggregates=aggregates,
            evidence=payload.evidence,
            packets=payload.packets,
        )


class LFDStormBehavior(AdversaryBehavior):
    """The Fig. 6 worst case: declare a different link failure over each of
    the node's links, one per round, to maximize mode churn and defeat
    signature aggregation."""

    def __init__(self) -> None:
        super().__init__()
        self._pending: List[int] = []

    def activate(self, system, node_id: int) -> None:
        super().activate(system, node_id)
        topo = system.topology
        self._pending = [
            x for x in topo.neighbors(node_id) if x in topo.controllers
        ]

    def on_round(self, round_no: int) -> None:
        if not self._pending or self.system is None:
            return
        victim = self._pending.pop(0)
        node = self.system.node(self.node_id)
        node.forwarding.issue_lfd(victim, "forged")


class DelayBehavior(AdversaryBehavior):
    """Timing fault (paper S2.4: 'we also consider attacks on timing').

    The node holds every outgoing message back by ``delay_rounds``: in the
    synchronous model a late message is indistinguishable from a wrong one
    -- its round number no longer matches the round it arrives in, so
    receivers reject it and declare the link failed.  The paper's example:
    'a faulty controller could cause an explosion simply by delaying a
    (valid) command'.
    """

    def __init__(self, delay_rounds: int = 2):
        super().__init__()
        self.delay_rounds = delay_rounds
        self._held: List[Tuple[int, int, Any]] = []

    def tamper(self, round_no, sender, destination, payload):
        self._held.append((round_no + self.delay_rounds, destination, payload))
        return None  # held back now...

    def detach(self) -> None:
        super().detach()
        self._held.clear()

    def on_round(self, round_no: int) -> None:
        # ...and released late, straight into the network (bypassing the
        # tamper hook would loop, so send via a one-shot re-entry guard).
        if self.system is None:
            return
        if self.detached:
            self._held.clear()
            return
        if self.system.network.is_crashed(self.node_id):
            # A crashed node radiates nothing; holding the queue across the
            # crash would let a later repair-and-bless emit stale rounds.
            self._held.clear()
            return
        due = [h for h in self._held if h[0] <= round_no]
        self._held = [h for h in self._held if h[0] > round_no]
        network = self.system.network
        hook = network._tamper_hooks.pop(self.node_id, None)
        try:
            for _due_round, destination, payload in due:
                try:
                    network.send(self.node_id, destination, payload)
                except KeyError:
                    continue
        finally:
            if hook is not None:
                network._tamper_hooks[self.node_id] = hook


class GarbageFloodBehavior(AdversaryBehavior):
    """Send huge garbage messages to distract correct nodes; the bandwidth
    guardian (paper S2.2) bounds the damage.

    Payloads are drawn in one ``randbytes`` call and memoized per
    (round, destination): a node broadcasting on several buses tampers the
    same (round, destination) pair repeatedly, and regenerating 50 kB a
    byte at a time dominated the flood scenarios.  The bytes are a pure
    function of (seed, round, destination), pinned by a golden test so
    transcripts stay identical across refactors.
    """

    def __init__(self, size: int = 50_000, seed: int = 0):
        super().__init__()
        self.size = size
        self.seed = seed
        self._memo_round: Optional[int] = None
        self._memo: dict = {}

    def tamper(self, round_no, sender, destination, payload):
        if round_no != self._memo_round:
            self._memo_round = round_no
            self._memo.clear()
        blob = self._memo.get(destination)
        if blob is None:
            rng = random.Random(
                (self.seed * 0x9E3779B1 + round_no * 1_000_003 + destination)
                & 0xFFFFFFFFFFFFFFFF
            )
            blob = rng.randbytes(self.size)
            self._memo[destination] = blob
        return blob
