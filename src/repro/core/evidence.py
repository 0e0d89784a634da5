"""Evidence: LFDs, PoMs, evidence sets, verification (paper S3.2).

A node can fail by *commission* (sending a bad message) or *omission*
(failing to send an expected one).  Commission faults yield **proofs of
misbehavior (PoMs)** -- self-certifying objects any node can verify without
trusting the reporter.  Omission faults yield **link failure declarations
(LFDs)**: either endpoint of a link may declare it dead; a single LFD does
not attribute blame to a specific endpoint, but the link is no longer used,
and enough LFDs sharing an endpoint imply a node fault (S3.2's inference,
implemented by :func:`repro.sched.modegen.normalize_scenario`).

Everything here is a registered wire message; evidence digests are computed
over canonical encodings, so two nodes always agree on whether an item is
"the same evidence".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.config import VARIANT_MULTI
from repro.crypto.hashing import hash_bytes
from repro.net.message import encode, register_message
from repro.sched.modegen import FailureScenario, normalize_scenario

# -- signed message bodies -----------------------------------------------------
#
# All protocol signatures cover canonical encodings of small tuples whose
# first element is a kind tag.  Equivocation is defined per *slot*: two
# validly signed bodies with the same slot but different content.

KIND_HEARTBEAT = "HB"
KIND_EVIDENCE_HALF = "EV"
KIND_DATA = "DATA"
KIND_LFD = "LFD"


# heartbeat_body is the single hottest encode: every received record is
# re-encoded to verify its signature, and the same (round, delta) pairs
# recur across all of a partition's records.  Memoized; the
# ``type(...) is int`` guards matter because True == 1 hash-equal while
# encode(True) != encode(1).
_hb_body_memo: Dict[Tuple[int, int], bytes] = {}
_HB_BODY_MEMO_CAP = 8192


def heartbeat_body(round_no: int, delta_count: int) -> bytes:
    """The signed content of an S3.6 heartbeat half sigma_i(r, |dE|).

    Deliberately excludes the signer's identity so that identical bodies
    from different nodes can be multisignature-aggregated.
    """
    if type(round_no) is int and type(delta_count) is int:
        blob = _hb_body_memo.get((round_no, delta_count))
        if blob is None:
            blob = encode((KIND_HEARTBEAT, round_no, delta_count))
            if len(_hb_body_memo) >= _HB_BODY_MEMO_CAP:
                _hb_body_memo.clear()
            _hb_body_memo[(round_no, delta_count)] = blob
        return blob
    return encode((KIND_HEARTBEAT, round_no, delta_count))


def evidence_half_body(round_no: int, item_digest: bytes) -> bytes:
    """The signed content of an S3.6 evidence half sigma_i(r, e)."""
    return encode((KIND_EVIDENCE_HALF, round_no, item_digest))


def data_body(path_id: int, round_no: int, payload_digest: bytes) -> bytes:
    """The signed content of a data packet on a forwarding-layer path.

    The signature covers the payload *digest*, making the signed part a
    small detachable authenticator (paper S3.8) that can travel without the
    payload on the beta->rho paths.
    """
    return encode((KIND_DATA, path_id, round_no, payload_digest))


def lfd_body(a: int, b: int, round_no: int) -> bytes:
    """The signed content of an LFD: sigma_i(LFD(i, j))."""
    lo, hi = sorted((a, b))
    return encode((KIND_LFD, lo, hi, round_no))


def slot_of(body: bytes) -> Optional[Tuple]:
    """The equivocation slot of a signed body, or None if not slotted.

    Heartbeats equivocate per round; data packets per (path, round).
    """
    from repro.net.message import decode

    try:
        decoded = decode(body)
    except (ValueError, TypeError):
        return None
    if not isinstance(decoded, tuple) or not decoded:
        return None
    kind = decoded[0]
    if kind == KIND_HEARTBEAT and len(decoded) == 3:
        return (KIND_HEARTBEAT, decoded[1])
    if kind == KIND_DATA and len(decoded) == 4:
        return (KIND_DATA, decoded[1], decoded[2])
    return None


# -- evidence items -------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class LFD:
    """A link failure declaration for the link (a, b), issued by one endpoint.

    Attributes:
        a, b: link endpoints, stored sorted.
        declared_round: round in which the declaring endpoint observed the
            failure.
        issuer: the endpoint that signed the declaration.
        signature: issuer's signature over :func:`lfd_body`.
    """

    a: int
    b: int
    declared_round: int
    issuer: int
    signature: bytes

    @property
    def link(self) -> Tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)

    def body(self) -> bytes:
        return lfd_body(self.a, self.b, self.declared_round)


@register_message
@dataclass(frozen=True)
class EquivocationPoM:
    """Proof that ``accused`` signed two conflicting bodies for one slot.

    Attributes:
        accused: the equivocating node.
        body_a, body_b: the two conflicting signed bodies (canonical bytes).
        sig_a, sig_b: the accused's signatures over each body.
    """

    accused: int
    body_a: bytes
    sig_a: bytes
    body_b: bytes
    sig_b: bytes


@register_message
@dataclass(frozen=True)
class BadComputationPoM:
    """Proof that a primary produced the wrong output for its own inputs.

    Verifiable by deterministic replay (paper S3.7): the primary streams a
    signed *bundle* -- (round, pre-state, inputs) -- to each replica on the
    tau->rho path; its output authenticator is signed separately.  Any node
    can re-execute the task on the bundle and compare the output digest with
    the claimed one.  Because both artifacts carry the accused's signature,
    neither a lying replica (fabricating a state or dropping an input) nor a
    lying primary (mis-reporting its state or inputs) can frame a correct
    node: a correct primary's bundle always replays to its own output.

    Attributes:
        accused: the node hosting the primary task.
        task_id: the audited task.
        round_no: execution round.
        bundle_payload: ``encode((round, state, inputs))`` where inputs is a
            tuple of (origin, path_id, origin_round, payload, signature)
            5-tuples, each signature being the upstream producer's signature
            over the corresponding data body.
        bundle_signature: the accused's signature over the bundle's data
            body on ``input_path_id``.
        input_path_id: the tau->rho path the bundle travelled on.
        claimed_output_digest: hash of the output payload the primary sent.
        claimed_signature: the accused's signature over the output body.
        output_path_id: path on which the claimed output travelled.
    """

    accused: int
    task_id: int
    round_no: int
    bundle_payload: bytes
    bundle_signature: bytes
    input_path_id: int
    claimed_output_digest: bytes
    claimed_signature: bytes
    output_path_id: int


@register_message
@dataclass(frozen=True)
class StateChainPoM:
    """Proof that a primary broke its own state chain.

    The bundle streamed to replicas for round e+1 must carry exactly the
    state produced by replaying the (signed) bundle of round e; two signed
    bundles violating this are verifiable proof of misbehavior -- the
    PeerReview-style defense against a primary that fabricates its state to
    make wrong outputs replay "correctly".

    Attributes:
        accused: the primary's host.
        task_id: the audited task.
        round_no: the round of the *first* bundle (the second is round+1).
        bundle_a_payload / bundle_a_signature: the round-e bundle.
        bundle_b_payload / bundle_b_signature: the round-(e+1) bundle.
        input_path_id: the tau->rho path both bundles travelled on.
    """

    accused: int
    task_id: int
    round_no: int
    bundle_a_payload: bytes
    bundle_a_signature: bytes
    bundle_b_payload: bytes
    bundle_b_signature: bytes
    input_path_id: int


EvidenceItem = object  # union of LFD | EquivocationPoM | BadComputationPoM | StateChainPoM


def evidence_digest(item: EvidenceItem) -> bytes:
    """Canonical digest identifying an evidence item."""
    return hash_bytes(encode(item))


# -- verification ------------------------------------------------------------


class EvidenceVerifier:
    """Independent evidence verification (paper Req. 3, Accuracy).

    Args:
        verify_signature: callable (node_id, body, signature) -> bool,
            checking under the node's *current working key* (key rotation).
        replay_task: callable (task_id, state, inputs, round) -> bytes or
            None, deterministically re-executing a task; None when the
            verifier lacks the task code (it must then distrust the PoM).
            ``inputs`` is the tuple of 5-tuples from the PoM bundle.
        verify_record_signature: optional fallback with the same shape as
            ``verify_signature`` for signatures heartbeat records carry under
            the multisignature variant (a partial-multisig value rather than
            a plain RSA signature).  An equivocation PoM embeds the two
            conflicting records' signatures verbatim, so the verifier must be
            able to check whichever scheme the accused actually signed with.
    """

    def __init__(
        self,
        verify_signature: Callable[[int, bytes, bytes], bool],
        replay_task: Optional[Callable[[int, bytes, Tuple, int], Optional[bytes]]] = None,
        replay_state: Optional[Callable[[int, bytes, Tuple, int], Optional[bytes]]] = None,
        verify_operator: Optional[Callable[[bytes, bytes], bool]] = None,
        verify_record_signature: Optional[Callable[[int, bytes, bytes], bool]] = None,
    ):
        self._verify_signature = verify_signature
        self._replay_task = replay_task
        self._replay_state = replay_state
        self._verify_operator = verify_operator
        self._verify_record_signature = verify_record_signature

    @classmethod
    def for_node(cls, crypto, registry, variant: str) -> "EvidenceVerifier":
        """The verifier every node builds, controller or device (paper
        S2.3, Req. 3): ``crypto`` is its :class:`~repro.core.identity.
        NodeCrypto`, ``registry`` the system's
        :class:`~repro.core.auditing.TaskRegistry`.  Under MULTI a record
        may carry a partial-multisig signature, so the fallback is set."""
        return cls(
            verify_signature=crypto.verify,
            replay_task=registry.replay,
            replay_state=registry.replay_state,
            verify_operator=crypto.verify_operator,
            verify_record_signature=(
                crypto.ms_verify_record if variant == VARIANT_MULTI else None
            ),
        )

    def _accused_signed(self, accused: int, body: bytes, signature: bytes) -> bool:
        """True if ``signature`` binds ``accused`` to ``body`` under either
        signing scheme the accused could have used for a record."""
        if self._verify_signature(accused, body, signature):
            return True
        fallback = self._verify_record_signature
        return fallback is not None and fallback(accused, body, signature)

    def verify_blessing(self, blessing) -> bool:
        if self._verify_operator is None:
            return False  # no operator trust root configured
        return self._verify_operator(blessing.body(), blessing.signature)

    def verify(self, item: EvidenceItem) -> bool:
        from repro.core.blessing import Blessing

        if isinstance(item, Blessing):
            return self.verify_blessing(item)
        if isinstance(item, LFD):
            return self.verify_lfd(item)
        if isinstance(item, EquivocationPoM):
            return self.verify_equivocation(item)
        if isinstance(item, BadComputationPoM):
            return self.verify_bad_computation(item)
        if isinstance(item, StateChainPoM):
            return self.verify_state_chain(item)
        return False

    def verify_lfd(self, lfd: LFD) -> bool:
        if lfd.issuer not in (lfd.a, lfd.b):
            return False  # only endpoints may declare (paper S3.2)
        if lfd.a == lfd.b:
            return False
        return self._verify_signature(lfd.issuer, lfd.body(), lfd.signature)

    def verify_equivocation(self, pom: EquivocationPoM) -> bool:
        if pom.body_a == pom.body_b:
            return False
        slot_a, slot_b = slot_of(pom.body_a), slot_of(pom.body_b)
        if slot_a is None or slot_a != slot_b:
            return False
        return self._accused_signed(
            pom.accused, pom.body_a, pom.sig_a
        ) and self._accused_signed(pom.accused, pom.body_b, pom.sig_b)

    def verify_bad_computation(self, pom: BadComputationPoM) -> bool:
        if self._replay_task is None:
            return False
        from repro.net.message import decode

        # 1. The claimed output really was signed by the accused.
        output_body = data_body(
            pom.output_path_id, pom.round_no, pom.claimed_output_digest
        )
        if not self._verify_signature(pom.accused, output_body, pom.claimed_signature):
            return False
        # 2. The input bundle really was signed (streamed) by the accused.
        bundle_body = data_body(
            pom.input_path_id, pom.round_no, hash_bytes(pom.bundle_payload)
        )
        if not self._verify_signature(pom.accused, bundle_body, pom.bundle_signature):
            return False
        try:
            bundle = decode(pom.bundle_payload)
        except (ValueError, TypeError):
            return True  # signed garbage bundle is itself misbehavior
        if (
            not isinstance(bundle, tuple)
            or len(bundle) != 3
            or bundle[0] != pom.round_no
        ):
            return True  # signed bundle with a lying round: misbehavior
        _round, state, inputs = bundle
        if not isinstance(state, bytes) or not isinstance(inputs, tuple):
            return True
        # 3. Every input inside the bundle carries its producer's signature;
        #    a bundle containing an unsigned input is itself misbehavior.
        for entry in inputs:
            if not (isinstance(entry, tuple) and len(entry) == 5):
                return True
            origin, path_id, origin_round, payload, signature = entry
            body = data_body(path_id, origin_round, hash_bytes(payload))
            if not self._verify_signature(origin, body, signature):
                return True
        # 4. Deterministic replay disagrees with the claimed output digest.
        expected = self._replay_task(pom.task_id, state, inputs, pom.round_no)
        if expected is None:
            return False  # verifier lacks the task code: distrust the PoM
        return hash_bytes(expected) != pom.claimed_output_digest

    def verify_state_chain(self, pom: StateChainPoM) -> bool:
        if self._replay_state is None:
            return False
        from repro.net.message import decode

        for payload, signature, round_no in (
            (pom.bundle_a_payload, pom.bundle_a_signature, pom.round_no),
            (pom.bundle_b_payload, pom.bundle_b_signature, pom.round_no + 1),
        ):
            body = data_body(pom.input_path_id, round_no, hash_bytes(payload))
            if not self._verify_signature(pom.accused, body, signature):
                return False
        try:
            bundle_a = decode(pom.bundle_a_payload)
            bundle_b = decode(pom.bundle_b_payload)
        except (ValueError, TypeError):
            return True  # a signed undecodable bundle is itself misbehavior
        for bundle, expected_round in ((bundle_a, pom.round_no), (bundle_b, pom.round_no + 1)):
            if not (
                isinstance(bundle, tuple)
                and len(bundle) == 3
                and bundle[0] == expected_round
                and isinstance(bundle[1], bytes)
                and isinstance(bundle[2], tuple)
            ):
                return True
        replayed_state = self._replay_state(
            pom.task_id, bundle_a[1], bundle_a[2], pom.round_no
        )
        if replayed_state is None:
            return False
        return replayed_state != bundle_b[1]


# -- evidence sets ---------------------------------------------------------------


def _accusation_round_of(item: EvidenceItem) -> Optional[int]:
    """The round an evidence item accuses (None if not attributable).

    Mirrors :func:`repro.core.blessing.accusation_round` without importing
    it (blessing imports this module); kept here so the bucket
    ordering and the PoM-explains-LFD window are pure functions of the item.
    """
    if isinstance(item, LFD):
        return item.declared_round
    if isinstance(item, (BadComputationPoM, StateChainPoM)):
        return item.round_no
    if isinstance(item, EquivocationPoM):
        slot = slot_of(item.body_a)
        if slot is None:
            return None
        return slot[1] if slot[0] == KIND_HEARTBEAT else slot[2]
    return None


# How many items an EvidenceSet keeps per bucket: the earliest and the
# latest by accusation round.  This is pattern-equivalent to keeping
# everything: a rejected middle item is bracketed by a kept item with a
# round >= its own, so whenever the middle item would be unabsolved (its
# round exceeds every blessing's as_of_round) the kept maximum is too, and
# the same link/node stays declared.  Crucially the *maximum* survives, so
# a genuine post-blessing accusation (necessarily the newest) is always
# admitted no matter how much stale material an adversary pre-flooded.
_BUCKET_KEEP = 2


class EvidenceSet:
    """A monotonic, canonically-digestible, bounded set of evidence items.

    Attributable items are grouped into buckets -- LFDs per (link, issuer),
    PoMs per (kind, accused) -- and each bucket retains only its extremes by
    (accusation round, digest).  Total attributable storage is then O(n^2)
    regardless of how fast an adversary manufactures validly signed
    evidence, while the derived failure pattern is identical to keeping
    every item (see _BUCKET_KEEP).  Blessings are operator-minted and
    idempotent, so they are not bucketed.
    """

    def __init__(self) -> None:
        self._items: Dict[bytes, EvidenceItem] = {}
        self._digest_cache: Optional[bytes] = None
        self._buckets: Dict[Tuple, List[Tuple[Tuple[int, bytes], bytes]]] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: EvidenceItem) -> bool:
        return evidence_digest(item) in self._items

    def has_digest(self, digest: bytes) -> bool:
        return digest in self._items

    @staticmethod
    def _bucket_of(item: EvidenceItem) -> Optional[Tuple]:
        if isinstance(item, LFD):
            return ("LFD", item.link, item.issuer)
        if isinstance(item, EquivocationPoM):
            return ("EQV", item.accused)
        if isinstance(item, BadComputationPoM):
            return ("BAD", item.accused, item.task_id)
        if isinstance(item, StateChainPoM):
            return ("CHAIN", item.accused, item.task_id)
        return None

    def add(self, item: EvidenceItem) -> bool:
        """Add an (already verified) item; True if it was new.

        May refuse a bucket-dominated item (returns False) or evict a
        previous extreme to admit the new one."""
        digest = evidence_digest(item)
        if digest in self._items:
            return False
        bucket = self._bucket_of(item)
        if bucket is not None:
            rank = ((_accusation_round_of(item) or 0), digest)
            members = self._buckets.setdefault(bucket, [])
            if len(members) >= _BUCKET_KEEP:
                members.sort()
                lo, hi = members[0], members[-1]
                if rank < lo[0]:
                    evict = lo
                elif rank > hi[0]:
                    evict = hi
                else:
                    return False  # dominated by the kept extremes
                members.remove(evict)
                del self._items[evict[1]]
                self.evictions += 1
            members.append((rank, digest))
        self._items[digest] = item
        self._digest_cache = None
        return True

    def dominated(self, item: EvidenceItem) -> bool:
        """Would :meth:`add` refuse this item as bucket-dominated?

        The store keeps only the rank extremes per bucket, so two stores
        fed different item orders can legitimately disagree on mid-rank
        members; the state auditor treats a dominated item as covered
        rather than as divergence."""
        bucket = self._bucket_of(item)
        if bucket is None:
            return False
        members = self._buckets.get(bucket, [])
        if len(members) < _BUCKET_KEEP:
            return False
        rank = ((_accusation_round_of(item) or 0), evidence_digest(item))
        return min(members)[0] <= rank <= max(members)[0]

    def merge(self, other: "EvidenceSet") -> List[EvidenceItem]:
        """Union in ``other``; returns the newly added items."""
        added = []
        for digest in sorted(other._items):
            if digest not in self._items and self.add(other._items[digest]):
                added.append(other._items[digest])
        return added

    def items(self) -> List[EvidenceItem]:
        return [self._items[d] for d in sorted(self._items)]

    def digest(self) -> bytes:
        if self._digest_cache is None:
            self._digest_cache = hash_bytes(*sorted(self._items))
        return self._digest_cache

    # -- self-stabilization hooks (docs/PROTOCOL.md section 16) ------------------
    #
    # The store indexes items by content digest, which makes arbitrary
    # in-RAM corruption *detectable by construction*: a flipped key no
    # longer matches its item's canonical digest, and a flipped digest memo
    # no longer matches the keys.  The StateAuditor leans on these checks.

    def corrupted_keys(self) -> List[bytes]:
        """Stored digests that do not match their item's canonical digest."""
        return [
            stored
            for stored, item in self._items.items()
            if evidence_digest(item) != stored
        ]

    def digest_cache_coherent(self) -> bool:
        """True iff the memoized set digest (if any) matches the stored keys."""
        return self._digest_cache is None or self._digest_cache == hash_bytes(
            *sorted(self._items)
        )

    def repair(self) -> int:
        """Re-key items stored under a corrupted digest and invalidate the
        digest memo; returns the number of repaired entries.  A key flip
        leaves the item object intact, so repair is lossless."""
        bad = self.corrupted_keys()
        for stored in bad:
            item = self._items.pop(stored)
            self._items.setdefault(evidence_digest(item), item)
        if bad:
            self._buckets = {}
            for digest, item in self._items.items():
                bucket = self._bucket_of(item)
                if bucket is not None:
                    rank = ((_accusation_round_of(item) or 0), digest)
                    self._buckets.setdefault(bucket, []).append((rank, digest))
        if bad or not self.digest_cache_coherent():
            self._digest_cache = None
        return len(bad)

    def serialized_size(self) -> int:
        return len(encode(self.items()))

    # -- failure-pattern derivation (paper S3.2) ---------------------------------

    def _best_blessings(self):
        """node_id -> the newest Blessing on file for it (by epoch)."""
        from repro.core.blessing import Blessing

        best = {}
        for item in self._items.values():
            if isinstance(item, Blessing):
                current = best.get(item.node_id)
                if current is None or item.epoch > current.epoch:
                    best[item.node_id] = item
        return best

    def _is_absolved(self, item, blessings) -> bool:
        from repro.core.blessing import absolves

        return any(absolves(b, item) for b in blessings.values())

    def accused_nodes(self) -> FrozenSet[int]:
        """Nodes condemned by an unabsolved PoM (paper S2.4: a repaired
        node is only re-admitted once the operator blesses it)."""
        blessings = self._best_blessings()
        accused = set()
        for item in self._items.values():
            if isinstance(
                item, (EquivocationPoM, BadComputationPoM, StateChainPoM)
            ) and not self._is_absolved(item, blessings):
                accused.add(item.accused)
        return frozenset(accused)

    def _pom_accusations(self, blessings) -> List[Tuple[int, int]]:
        """(accused, accusation_round) for each unabsolved commission PoM."""
        out = []
        for item in self._items.values():
            if isinstance(
                item, (EquivocationPoM, BadComputationPoM, StateChainPoM)
            ) and not self._is_absolved(item, blessings):
                rnd = _accusation_round_of(item)
                if rnd is not None:
                    out.append((item.accused, rnd))
        return out

    def failure_pattern(
        self, fmax: int, pom_lfd_slack: Optional[int] = None
    ) -> FailureScenario:
        """The (KN, KL) this evidence implies, normalized to the fault budget.

        PoM-accused nodes go to KN directly; LFD links whose endpoints are
        already in KN are absorbed; the rest stay in KL unless the budget
        forces blaming a shared endpoint (S3.2).

        With ``pom_lfd_slack`` set (the forwarding layer passes a function
        of the shared d_max), an LFD declared within ``slack`` rounds after
        an unabsolved commission PoM's accusation round is *explained* by
        that PoM and not counted: during an equivocation storm the proven
        equivocator's heartbeats poison propagation everywhere at once, and
        the resulting shower of coverage LFDs between correct neighbors must
        not enter the fault-budget inference (Req. 3).  The filter reads
        only item-intrinsic rounds, so every node derives the same pattern
        from the same evidence set regardless of arrival order.
        """
        nodes = self.accused_nodes()
        blessings = self._best_blessings()
        accusations = self._pom_accusations(blessings) if pom_lfd_slack else []
        links = set()
        for item in self._items.values():
            if not isinstance(item, LFD) or self._is_absolved(item, blessings):
                continue
            if set(item.link) & nodes:
                continue
            if accusations and any(
                acc_round <= item.declared_round <= acc_round + pom_lfd_slack
                for _accused, acc_round in accusations
            ):
                continue
            links.add(item.link)
        return normalize_scenario(
            FailureScenario(nodes=nodes, links=frozenset(links)), fmax
        )
