"""Tests for key rotation (paper S4), the detachable authenticator (S3.8),
hashing and the cost model."""

import pytest

from repro.core.evidence import data_body
from repro.core.forwarding import DataPacket
from repro.crypto.cost_model import CryptoCostModel, CryptoCounters
from repro.crypto.hashing import hash_bytes
from repro.crypto.rotation import KeyRotationManager


def _mk_pair():
    """Two rotation managers that know each other's permanent keys."""
    alice = KeyRotationManager(node_id=0, permanent_bits=256, working_bits=256, seed=1)
    bob = KeyRotationManager(node_id=1, permanent_bits=256, working_bits=256, seed=2)
    alice.register_peer(1, bob.permanent.public_key)
    bob.register_peer(0, alice.permanent.public_key)
    return alice, bob


class TestKeyRotation:
    def test_certificate_accepted(self):
        alice, bob = _mk_pair()
        assert bob.accept_rotation(alice.current_certificate)
        assert bob.working_key_of(0) == alice.working_keypair.public_key

    def test_signature_under_working_key(self):
        alice, bob = _mk_pair()
        bob.accept_rotation(alice.current_certificate)
        sig = alice.sign(b"hello")
        assert bob.verify_from(0, b"hello", sig)
        assert not bob.verify_from(0, b"bye", sig)

    def test_old_key_invalid_after_rotation(self):
        alice, bob = _mk_pair()
        bob.accept_rotation(alice.current_certificate)
        old_sig = alice.sign(b"msg")
        alice.rotate()
        bob.accept_rotation(alice.current_certificate)
        assert not bob.verify_from(0, b"msg", old_sig)
        assert bob.verify_from(0, b"msg", alice.sign(b"msg"))

    def test_stale_certificate_rejected(self):
        alice, bob = _mk_pair()
        stale = alice.current_certificate
        alice.rotate()
        assert bob.accept_rotation(alice.current_certificate)
        assert not bob.accept_rotation(stale)

    def test_unknown_peer_rejected(self):
        alice = KeyRotationManager(node_id=0, permanent_bits=256, working_bits=256, seed=1)
        mallory = KeyRotationManager(node_id=9, permanent_bits=256, working_bits=256, seed=3)
        assert not alice.accept_rotation(mallory.current_certificate)

    def test_forged_certificate_rejected(self):
        alice, bob = _mk_pair()
        mallory = KeyRotationManager(node_id=0, permanent_bits=256, working_bits=256, seed=99)
        # Mallory claims to be node 0 but signs with her own permanent key.
        assert not bob.accept_rotation(mallory.current_certificate)

    def test_epoch_increments(self):
        alice, _ = _mk_pair()
        e0 = alice.epoch
        alice.rotate()
        assert alice.epoch == e0 + 1


def _packet(path_id=7, origin_round=5, payload=b"payload", signature=b""):
    return DataPacket(path_id=path_id, origin_round=origin_round,
                      payload=payload, origin=1, signature=signature)


class TestAuthenticator:
    """The protocol's authenticator is a data packet's signed ``data_body``:
    (path, round, payload digest), detachable from the payload."""

    def test_matches_payload(self):
        body = _packet().body()
        assert body == data_body(7, 5, hash_bytes(b"payload"))
        assert body != data_body(7, 5, hash_bytes(b"other"))

    def test_signed_portion_sensitive_to_fields(self):
        bodies = {
            _packet().body(), _packet(path_id=8).body(),
            _packet(origin_round=6).body(), _packet(payload=b"p").body(),
        }
        assert len(bodies) == 4

    def test_with_signature_preserves_fields(self):
        signed = _packet(signature=b"sig")
        assert signed.signature == b"sig"
        assert signed.body() == _packet().body()

    def test_hash_bytes_injective_framing(self):
        assert hash_bytes(b"ab", b"c") != hash_bytes(b"a", b"bc")


class TestCostModel:
    def test_x86_profile_matches_paper(self):
        model = CryptoCostModel(profile="x86")
        counters = CryptoCounters(rsa_sign=1, rsa_verify=1)
        # 1.17ms + 1.18ms
        assert model.cpu_seconds(counters) == pytest.approx(2.35e-3)

    def test_combine_ops_cheap(self):
        model = CryptoCostModel(profile="x86")
        counters = CryptoCounters(ms_combine_sig=1000)
        assert model.cpu_seconds(counters) == pytest.approx(3.34e-3)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            CryptoCostModel(profile="nope").costs()

    def test_profiles_are_read_only(self):
        """The calibrated profiles are constants, not process-wide state."""
        with pytest.raises(TypeError):
            CryptoCostModel(profile="x86").costs()["rsa_sign"] = 1.0

    def test_merge_and_diff(self):
        a = CryptoCounters(rsa_sign=1, ms_verify=2)
        b = CryptoCounters(rsa_sign=3, ms_combine_key=4)
        a.merge(b)
        assert a.rsa_sign == 4
        assert a.ms_verify == 2
        assert a.ms_combine_key == 4
        snapshot = a.copy()
        a.merge(CryptoCounters(rsa_verify=5))
        delta = a.diff(snapshot)
        assert delta.rsa_verify == 5
        assert delta.rsa_sign == 0

    def test_totals(self):
        c = CryptoCounters(rsa_sign=1, ms_sign=2, rsa_verify=3, ms_verify=4)
        assert c.total_signatures() == 3
        assert c.total_verifications() == 7
