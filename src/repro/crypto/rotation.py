"""Key rotation (paper S4, "Key rotation").

Each node holds a strong *permanent* keypair (the paper suggests 2048-bit
RSA) and periodically generates weaker *working* keys (512-bit RSA), signs
them with the permanent key, and distributes them.  Messages are only
accepted under the node's current working key; once a newer working key is
received, all older ones become invalid.  Because REBOUND messages expire
after ``D_max`` rounds, the weak keys only need to resist attack for the
rotation interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.hashing import derive_seed
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSASignature


@dataclass(frozen=True)
class RotatingKey:
    """A working key certificate: a weak public key signed by the strong key.

    Attributes:
        node_id: owner of the key.
        epoch: monotonically increasing rotation epoch.
        public_key: the weak working public key.
        certificate: signature by the owner's permanent key over
            (node_id, epoch, public_key).
    """

    node_id: int
    epoch: int
    public_key: RSAPublicKey
    certificate: RSASignature

    def certified_portion(self) -> bytes:
        return (
            self.node_id.to_bytes(8, "big")
            + self.epoch.to_bytes(8, "big")
            + self.public_key.to_bytes()
        )


class KeyRotationManager:
    """Manages one node's permanent key and its working-key schedule.

    Also acts as the *validator* side: given other nodes' permanent public
    keys, it verifies incoming :class:`RotatingKey` certificates and tracks
    the newest epoch seen per node, rejecting stale keys.
    """

    def __init__(
        self,
        node_id: int,
        permanent_bits: int = 1024,
        working_bits: int = 512,
        seed: Optional[int] = None,
    ):
        base_seed = seed if seed is not None else node_id
        self.node_id = node_id
        self._working_bits = working_bits
        self._seed = base_seed
        self.permanent = RSAKeyPair(bits=permanent_bits, seed=base_seed)
        self._epoch = -1
        self._working: Optional[RSAKeyPair] = None
        self._current_cert: Optional[RotatingKey] = None
        # Validator state: permanent keys and latest accepted working keys.
        self._peer_permanent: Dict[int, RSAPublicKey] = {}
        self._peer_working: Dict[int, RotatingKey] = {}
        self.rotate()

    # -- key-owner side -------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def working_keypair(self) -> RSAKeyPair:
        assert self._working is not None
        return self._working

    @property
    def current_certificate(self) -> RotatingKey:
        assert self._current_cert is not None
        return self._current_cert

    def rotate(self) -> RotatingKey:
        """Generate, certify, and adopt a fresh working key."""
        self._epoch += 1
        self._working = RSAKeyPair(
            bits=self._working_bits,
            seed=derive_seed(self._seed, "rotation", self._epoch),
        )
        cert_body = RotatingKey(
            node_id=self.node_id,
            epoch=self._epoch,
            public_key=self._working.public_key,
            certificate=RSASignature(value=0, key_bits=0),
        ).certified_portion()
        cert = self.permanent.sign(cert_body)
        self._current_cert = RotatingKey(
            node_id=self.node_id,
            epoch=self._epoch,
            public_key=self._working.public_key,
            certificate=cert,
        )
        return self._current_cert

    def sign(self, message: bytes) -> RSASignature:
        """Sign with the current working key."""
        return self.working_keypair.sign(message)

    # -- validator side --------------------------------------------------

    def register_peer(self, node_id: int, permanent_key: RSAPublicKey) -> None:
        self._peer_permanent[node_id] = permanent_key

    def accept_rotation(self, cert: RotatingKey) -> bool:
        """Validate and adopt a peer's working-key certificate.

        Returns False (and changes nothing) if the certificate is not signed
        by the peer's permanent key or is not newer than the one on file.
        """
        permanent = self._peer_permanent.get(cert.node_id)
        if permanent is None:
            return False
        current = self._peer_working.get(cert.node_id)
        if current is not None and cert.epoch <= current.epoch:
            return False
        if not permanent.verify(cert.certified_portion(), cert.certificate):
            return False
        self._peer_working[cert.node_id] = cert
        return True

    def working_key_of(self, node_id: int) -> Optional[RSAPublicKey]:
        cert = self._peer_working.get(node_id)
        return cert.public_key if cert is not None else None

    def verify_from(self, node_id: int, message: bytes, signature: RSASignature) -> bool:
        """Verify ``message`` under the peer's *current* working key only."""
        key = self.working_key_of(node_id)
        return key is not None and key.verify(message, signature)
