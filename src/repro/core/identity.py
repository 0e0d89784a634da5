"""Node identities, the key directory, and counted crypto operations.

Every node owns an RSA working keypair (ordinary signatures: evidence, data
packets, BASIC heartbeats) and a multisignature keypair (MULTI heartbeats).
The :class:`Directory` holds all public keys -- the paper assumes every node
knows every other node's public key (S3) -- and :class:`NodeCrypto` is a
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

Verification outcomes are likewise shared through the process-wide
:mod:`repro.crypto.verify_cache` (same fidelity argument: an outcome is a
pure function of public data).  The cache sits *below* the counters --
every logical operation is still counted, only redundant arithmetic is
skipped -- so cost metrics and transcripts do not depend on what the cache
happens to hold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import verify_cache
from repro.crypto.cost_model import CryptoCounters
from repro.crypto.hashing import derive_seed, hash_bytes
from repro.crypto.multisig import (
    MultisigGroup,
    MultisigKeyPair,
    MultisigPublicKey,
    verify_multisig_values_batch,
)
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSASignature

DOMAIN_FORWARDING = "forwarding"
DOMAIN_AUDITING = "auditing"


class Directory:
    """All nodes' public keys plus the shared multisignature group."""

    def __init__(self, rsa_bits: int = 512, multisig_bits: int = 256, seed: int = 0):
        self.rsa_bits = rsa_bits
        self.group = MultisigGroup(bits=multisig_bits, seed=seed)
        self._rsa_pairs: Dict[int, RSAKeyPair] = {}
        self._ms_pairs: Dict[int, MultisigKeyPair] = {}
        self._seed = seed
        # The deployment's operator trust root (paper S2.4 blessing).
        self.operator = RSAKeyPair(bits=max(rsa_bits, 256),
                                   seed=derive_seed(seed, "operator"))

    def register(self, node_id: int) -> None:
        if node_id in self._rsa_pairs:
            return
        self._rsa_pairs[node_id] = RSAKeyPair(
            bits=self.rsa_bits, seed=derive_seed(self._seed, "rsa", node_id)
        )
        self._ms_pairs[node_id] = MultisigKeyPair(
            self.group, seed=derive_seed(self._seed, "ms", node_id), node_id=node_id
        )

    def rsa_public(self, node_id: int) -> RSAPublicKey:
        return self._rsa_pairs[node_id].public_key

    def ms_public(self, node_id: int) -> MultisigPublicKey:
        return self._ms_pairs[node_id].public_key

    def crypto_for(self, node_id: int) -> "NodeCrypto":
        return NodeCrypto(node_id, self)


@dataclass
class NodeCrypto:
    """Per-node crypto handle with operation counting.

    Attributes:
        node_id: the owning node.
        directory: the shared key directory.
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
        return self.directory._rsa_pairs[self.node_id].sign(body).to_bytes()

    @staticmethod
    def _rsa_cache_key(public: RSAPublicKey, body: bytes, signature: bytes) -> Tuple:
        # Raw wire bytes key the cache so hits skip signature parsing and
        # hashing entirely; bodies longer than a digest are hashed (the
        # distinct tag keeps digest keys from colliding with short bodies).
        if len(body) <= 64:
            return ("rsa", public.n, public.e, body, signature)
        return ("rsa-d", public.n, public.e, hash_bytes(body), signature)

    def _verify_rsa(self, public: RSAPublicKey, body: bytes, signature: bytes) -> bool:
        key = self._rsa_cache_key(public, body, signature)
        cached = verify_cache.GLOBAL.get(key)
        if cached is not None:
            return cached
        t0 = time.perf_counter()
        try:
            sig = RSASignature.from_bytes(signature)
        except (ValueError, IndexError):
            outcome = False
        else:
            outcome = public.verify(body, sig)
        verify_cache.GLOBAL.put(key, outcome, time.perf_counter() - t0)
        return outcome

    def verify(
        self, origin: int, body: bytes, signature: bytes, domain: str = DOMAIN_FORWARDING
    ) -> bool:
        self.counters[domain].rsa_verify += 1
        try:
            public = self.directory.rsa_public(origin)
        except KeyError:
            return False
        return self._verify_rsa(public, body, signature)

    # -- multisignatures ------------------------------------------------------

    def ms_sign(self, body: bytes, domain: str = DOMAIN_FORWARDING) -> int:
        self.counters[domain].ms_sign += 1
        return self.directory._ms_pairs[self.node_id].sign(body).value

    def _ms_cache_key(self, body: bytes, sig_value: int, apk: int) -> Tuple:
        group = self.directory.group
        if len(body) <= 64:
            return ("ms", group.q, group.g, apk, body, sig_value)
        return ("ms-d", group.q, group.g, apk, hash_bytes(body), sig_value)

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
        group = self.directory.group
        self._charge_aggregate_key(cache_key, signer_bits, domain)

        def compute() -> bool:
            h = group.hash_to_group(body)
            return (sig_value * group.g) % group.q == (h * apk) % group.q

        return verify_cache.cached_check(
            self._ms_cache_key(body, sig_value, apk), compute
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
            body, value, pair.public_key.value, 1 << origin, ("single", origin), domain
        )

    def ms_verify_batch(
        self,
        entries: Sequence[Tuple[bytes, int, int, int, Tuple]],
        domain: str = DOMAIN_FORWARDING,
    ) -> List[bool]:
        """Batch :meth:`ms_verify_value` over (body, sig, apk, signer_bits,
        cache_key).

        Counting semantics are identical to calling :meth:`ms_verify_value`
        once per entry (the batch is a simulator fast path, not a modeled
        protocol change): one ms_verify per entry, ms_combine_key once per
        distinct aggregate key this node has not paid for yet.  Cache hits
        are served per entry; only the residual misses pay arithmetic,
        amortized in one batched group equation.
        """
        if not entries:
            return []
        group = self.directory.group
        bucket = self.counters[domain]
        results: List[Optional[bool]] = [None] * len(entries)
        misses: List[Tuple[int, Tuple[bytes, int, int], Tuple]] = []
        for index, (body, sig_value, apk, signer_bits, agg_cache_key) in enumerate(
            entries
        ):
            bucket.ms_verify += 1
            self._charge_aggregate_key(agg_cache_key, signer_bits, domain)
            key = self._ms_cache_key(body, sig_value, apk)
            cached = verify_cache.GLOBAL.get(key)
            if cached is not None:
                results[index] = cached
                continue
            misses.append((index, (body, sig_value, apk), key))
        if misses:
            verdicts = verify_multisig_values_batch(
                group, [triple for _i, triple, _k in misses]
            )
            for (index, _triple, key), verdict in zip(misses, verdicts):
                results[index] = verdict
                verify_cache.GLOBAL.put(key, verdict)
        return [bool(r) for r in results]

    def ms_warm_batch(self, entries: Sequence[Tuple[bytes, int, int]]) -> int:
        """Warm the verification cache with one batched multisig pass.

        A pure prefetch for round-batched verification over (body, sig,
        apk) triples: no counters are charged (the per-message processing
        that later consumes the cached outcomes still counts every logical
        operation), and already-cached outcomes are skipped.  Returns the
        number of entries actually verified.
        """
        if not entries:
            return 0
        group = self.directory.group
        misses: List[Tuple[Tuple, Tuple[bytes, int, int]]] = []
        seen = set()
        for body, sig_value, apk in entries:
            key = self._ms_cache_key(body, sig_value, apk)
            if key in seen or verify_cache.GLOBAL.get(key) is not None:
                continue
            seen.add(key)
            misses.append((key, (body, sig_value, apk)))
        if misses:
            verdicts = verify_multisig_values_batch(
                group, [triple for _k, triple in misses]
            )
            for (key, _triple), verdict in zip(misses, verdicts):
                verify_cache.GLOBAL.put(key, verdict)
        return len(misses)

    def verify_operator(
        self, body: bytes, signature: bytes, domain: str = DOMAIN_FORWARDING
    ) -> bool:
        """Verify an operator-signed certificate (blessings)."""
        self.counters[domain].rsa_verify += 1
        return self._verify_rsa(self.directory.operator.public_key, body, signature)

    def ms_combine(self, a: int, b: int, domain: str = DOMAIN_FORWARDING) -> int:
        self.counters[domain].ms_combine_sig += 1
        return (a + b) % self.directory.group.q
