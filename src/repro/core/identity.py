"""Node identities, the key directory, and counted crypto operations.

Every node owns an RSA working keypair (ordinary signatures: evidence, data
packets, BASIC heartbeats) and a multisignature keypair (MULTI heartbeats).
The :class:`Directory` holds all public keys -- the paper assumes every node
knows every other node's public key (S3), and minting an RSA keypair on first
use keeps that true, since a key is a pure function of seed and node id --
and :class:`NodeCrypto` is a
per-node handle that performs operations while incrementing the node's
:class:`~repro.crypto.cost_model.CryptoCounters`, split into a *forwarding*
bucket and an *auditing* bucket to reproduce Fig. 8b's breakdown.

Aggregate public keys come from the system's coverage DP
(:class:`repro.core.heartbeat.CoverageCalculator`): they are deterministic
functions of public information (topology + fault epoch), so sharing them
across the system's simulated nodes loses no fidelity while keeping
simulations fast.  The ms_combine_key cost -- one combine per distinct
signer -- is charged per node, once per distinct key (each real node keeps
its own memo and pays to build each entry exactly once); attribution is
therefore independent of the order nodes are stepped in.

Record and RSA verdicts are likewise shared through the system's verdict
memo, a bounded LRU on its :class:`Directory` (same fidelity argument: a
verdict is a pure function of public data).  MULTI aggregates bypass it:
every neighbour of a sender receives the same aggregates and judges them
under the same epoch's keys, so the Directory keeps one *aggregate column*
per sender message and epoch for the round, built by one group check per
row -- each distinct body hashed to the group once per round -- and read
by every recipient.  Two systems never share a memo or a column.  Both sit
*below* the counters -- every logical operation is still counted per node,
only redundant arithmetic is skipped -- so cost metrics and transcripts do
not depend on what the memo happens to hold.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.crypto.cost_model import CryptoCounters
from repro.crypto.hashing import derive_seed, hash_bytes
from repro.crypto.multisig import MultisigGroup, MultisigKeyPair
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSASignature

DOMAIN_FORWARDING = "forwarding"
DOMAIN_AUDITING = "auditing"

#: Verdicts a system's memo holds before it evicts the least recently used.
VERDICT_MEMO_CAPACITY = 65536


def _memo_body(body: bytes):
    # Short bodies key the memo raw, so hits skip hashing; longer ones by
    # their digest, in a tuple so that it never equals a raw body.
    return body if len(body) <= 64 else (hash_bytes(body),)


def _ms_key(body: bytes, sig_value: int, apk: int) -> Tuple:
    return ("ms", apk, _memo_body(body), sig_value)


class AggregateColumn(NamedTuple):
    """One sender message's aggregates as judged under one fault epoch.

    ``rows`` holds (origin round, sig value, age, aggregate key, support
    mask, verdict) for every aggregate inside the expiry window that the
    epoch's coverage DP can check, in message order; ``mismatch`` is set
    when an aggregate inside the window carried another epoch digest."""

    rows: Tuple[Tuple[int, int, int, int, int, bool], ...]
    mismatch: bool


def _rsa_check(public: RSAPublicKey, body: bytes, signature: bytes) -> bool:
    try:
        sig = RSASignature.from_bytes(signature)
    except (ValueError, IndexError):
        return False
    return public.verify(body, sig)


class Directory:
    """All nodes' public keys, the shared multisignature group, the
    system's verdict memo and the round's aggregate columns.  RSA keypairs,
    the operator's too, are minted on first use, equal to eagerly minted ones."""

    def __init__(self, rsa_bits: int = 512, multisig_bits: int = 256, seed: int = 0):
        self.rsa_bits = rsa_bits
        self.group = MultisigGroup(bits=multisig_bits, seed=seed)
        self._rsa_pairs: Dict[int, Optional[RSAKeyPair]] = {}
        self._ms_pairs: Dict[int, MultisigKeyPair] = {}
        self._seed = seed
        # Verdict memo: (scheme, public key, body, signature) -> verdict.
        self.verdicts: "OrderedDict[Tuple, bool]" = OrderedDict()
        self.verdict_hits = 0
        self.verdict_misses = 0
        # This round's aggregate columns: key -> (aggregates tuple, column).
        # The tuple is held so that its id, part of the key, stays unique.
        self._columns: Dict[Tuple, Tuple[Any, AggregateColumn]] = {}
        self._columns_round: Any = None
        # H(body) for the bodies this round's columns check.
        self._body_hashes: Dict[bytes, int] = {}

    @cached_property
    def operator(self) -> RSAKeyPair:
        """The deployment's operator trust root (paper S2.4 blessing)."""
        return RSAKeyPair(max(self.rsa_bits, 256), derive_seed(self._seed, "operator"))

    def register(self, node_id: int) -> None:
        if node_id in self._rsa_pairs:
            return
        self._rsa_pairs[node_id] = None  # minted by rsa_pair on first use
        self._ms_pairs[node_id] = MultisigKeyPair(
            self.group, seed=derive_seed(self._seed, "ms", node_id)
        )

    def rsa_pair(self, node_id: int) -> RSAKeyPair:
        """A member's RSA keypair, minted on first use; KeyError for others."""
        pair = self._rsa_pairs[node_id]
        if pair is None:
            pair = self._rsa_pairs[node_id] = RSAKeyPair(
                self.rsa_bits, derive_seed(self._seed, "rsa", node_id))
        return pair

    def ms_public(self, node_id: int) -> int:
        return self._ms_pairs[node_id].public_key

    def crypto_for(self, node_id: int) -> "NodeCrypto":
        return NodeCrypto(node_id, self)

    # -- verdict memo -----------------------------------------------------------

    def _remember(self, key: Tuple, verdict: bool) -> None:
        self.verdicts[key] = verdict
        if len(self.verdicts) > VERDICT_MEMO_CAPACITY:
            self.verdicts.popitem(last=False)

    def verdict(self, key: Tuple, check: Callable[..., bool], *args) -> bool:
        """The memo's verdict for ``key``; a miss runs ``check(*args)``."""
        verdict = self.verdicts.get(key)
        if verdict is None:
            self.verdict_misses += 1
            verdict = check(*args)
            self._remember(key, verdict)
        else:
            self.verdicts.move_to_end(key)
            self.verdict_hits += 1
        return verdict

    def aggregate_column(
        self, round_no: int, key: Tuple, aggregates: Tuple,
        build: Callable[[], AggregateColumn],
    ) -> AggregateColumn:
        """Round ``round_no``'s column for ``key`` -- which names the
        ``aggregates`` tuple by identity -- built by its first reader.
        Columns live for one round."""
        if round_no != self._columns_round:
            self._columns = {}
            self._body_hashes = {}
            self._columns_round = round_no
        entry = self._columns.get(key)
        if entry is None:
            entry = self._columns[key] = (aggregates, build())
        return entry[1]

    def body_hash(self, body: bytes) -> int:
        """``H(body)`` in the group, computed once per column round."""
        h = self._body_hashes.get(body)
        if h is None:
            h = self._body_hashes[body] = self.group.hash_to_group(body)
        return h


@dataclass
class NodeCrypto:
    """Per-node crypto handle with operation counting.

    Attributes:
        node_id: the owning node.
        directory: the system's key directory (and verdict memo).
        counters: per-domain operation counters.
    """

    node_id: int
    directory: Directory

    def __post_init__(self) -> None:
        self.counters: Dict[str, CryptoCounters] = {
            DOMAIN_FORWARDING: CryptoCounters(),
            DOMAIN_AUDITING: CryptoCounters(),
        }
        # Aggregate keys this node has already paid ms_combine_key for --
        # a real node memoizes its own keys, so it pays per distinct key
        # regardless of what other (simulated) nodes computed first.
        self._agg_keys_charged: set = set()

    def _charge_aggregate_key(
        self, cache_key: Tuple, signer_bits: int, domain: str
    ) -> None:
        # One combine per distinct signer, the first time this node uses
        # the key (the popcount is taken only then: it is not free).
        if cache_key not in self._agg_keys_charged:
            self._agg_keys_charged.add(cache_key)
            self.counters[domain].ms_combine_key += signer_bits.bit_count()

    def total_counters(self) -> CryptoCounters:
        total = CryptoCounters()
        for bucket in self.counters.values():
            total.merge(bucket)
        return total

    # -- RSA ------------------------------------------------------------------

    def sign(self, body: bytes, domain: str = DOMAIN_FORWARDING) -> bytes:
        self.counters[domain].rsa_sign += 1
        return self.directory.rsa_pair(self.node_id).sign(body).to_bytes()

    def _verify_rsa(self, public: RSAPublicKey, body: bytes, signature: bytes) -> bool:
        # Raw wire bytes key the memo, so hits skip signature parsing.
        key = ("rsa", public.n, public.e, _memo_body(body), signature)
        return self.directory.verdict(key, _rsa_check, public, body, signature)

    def verify(
        self, origin: int, body: bytes, signature: bytes, domain: str = DOMAIN_FORWARDING
    ) -> bool:
        self.counters[domain].rsa_verify += 1
        try:
            public = self.directory.rsa_pair(origin).public_key
        except KeyError:
            return False
        return self._verify_rsa(public, body, signature)

    def verify_operator(
        self, body: bytes, signature: bytes, domain: str = DOMAIN_FORWARDING
    ) -> bool:
        """Verify an operator-signed certificate (blessings)."""
        self.counters[domain].rsa_verify += 1
        return self._verify_rsa(self.directory.operator.public_key, body, signature)

    # -- multisignatures ------------------------------------------------------

    def ms_sign(self, body: bytes, domain: str = DOMAIN_FORWARDING) -> int:
        self.counters[domain].ms_sign += 1
        return self.directory._ms_pairs[self.node_id].sign(body)

    def sign_record(self, body: bytes, multi: bool) -> Tuple[bytes, Optional[int]]:
        """Sign heartbeat ``body`` for a record: its wire signature, and
        under MULTI (``multi``) the partial-multisig value the wire bytes
        carry -- what :meth:`ms_verify_record` parses, and what the
        signer's own aggregate seeds from.  Counts one ms_sign (MULTI) or
        one rsa_sign (BASIC, whose value is None)."""
        if not multi:
            return self.sign(body), None
        value = self.ms_sign(body)
        return value.to_bytes(self.directory.group.element_size, "big"), value

    def ms_verify_value(
        self,
        body: bytes,
        sig_value: int,
        apk: int,
        signer_bits: int,
        cache_key: Tuple,
        domain: str = DOMAIN_FORWARDING,
    ) -> bool:
        """Verify an aggregate signature value against the aggregate key
        ``apk`` of the signers in ``signer_bits`` (bit *i* = node *i*);
        ``cache_key`` names the key for ms_combine_key charging."""
        self.counters[domain].ms_verify += 1
        self._charge_aggregate_key(cache_key, signer_bits, domain)
        return self.directory.verdict(
            _ms_key(body, sig_value, apk), self.directory.group.verify, body, sig_value, apk
        )

    def ms_verify_record(
        self,
        origin: int,
        body: bytes,
        signature: bytes,
        domain: str = DOMAIN_FORWARDING,
    ) -> bool:
        """Verify one heartbeat record under the multisignature variant,
        where a record carries its origin's partial-multisig value instead
        of an RSA signature.  An unregistered origin counts one ms_verify
        and fails, as :meth:`verify` does for RSA."""
        try:
            value = int.from_bytes(signature, "big")
        except (TypeError, ValueError):
            return False
        pair = self.directory._ms_pairs.get(origin)
        if pair is None:
            self.counters[domain].ms_verify += 1
            return False
        return self.ms_verify_value(
            body, value, pair.public_key, 1 << origin, ("single", origin), domain
        )

    def ms_verify_batch(
        self,
        epoch: bytes,
        sender: int,
        rows: Sequence[Tuple[int, int, int, int, int, bool]],
        domain: str = DOMAIN_FORWARDING,
    ) -> None:
        """Charge this node for verifying ``rows`` of ``sender``'s aggregate
        column under ``epoch`` (:class:`AggregateColumn`; the verdicts were
        computed once, by :meth:`ms_warm_batch`).

        Counting semantics are identical to calling :meth:`ms_verify_value`
        once per row: one ms_verify per row, ms_combine_key once per
        aggregate key (epoch, sender, age) this node has not paid for yet.
        """
        self.counters[domain].ms_verify += len(rows)
        for row in rows:
            self._charge_aggregate_key((epoch, sender, row[2]), row[4], domain)

    def ms_warm_batch(self, entries: Sequence[Tuple[bytes, int, int]]) -> List[bool]:
        """Verdicts for (body, sig, apk) triples, one group check per row,
        each body hashed once per round (:meth:`Directory.body_hash`).
        Charges no counters and bypasses the verdict memo: it builds an
        aggregate column, and each recipient pays through
        :meth:`ms_verify_batch`.  The name outlives the batched equation it
        once ran because the ledger's span table (``ledger/spans.py``)
        times column builds under it."""
        directory = self.directory
        verify, body_hash = directory.group.verify, directory.body_hash
        return [verify(body, sig, apk, body_hash(body)) for body, sig, apk in entries]

    def ms_combine(self, a: int, b: int, domain: str = DOMAIN_FORWARDING) -> int:
        self.counters[domain].ms_combine_sig += 1
        return (a + b) % self.directory.group.q
