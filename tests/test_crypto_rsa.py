"""Unit tests for the from-scratch RSA-FDH signature substrate."""

import random

import pytest

from repro.crypto.hashing import hash_to_int
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSASignature


class TestPrimes:
    def test_small_primes_recognized(self):
        for p in [2, 3, 5, 7, 11, 13, 97, 101, 7919]:
            assert is_probable_prime(p)

    def test_small_composites_rejected(self):
        for c in [0, 1, 4, 6, 9, 15, 91, 561, 1105, 7917]:
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Classic Miller-Rabin stress cases (Fermat pseudoprimes).
        for c in [561, 1105, 1729, 2465, 2821, 6601, 8911]:
            assert not is_probable_prime(c)

    def test_generated_prime_has_exact_bits(self):
        rng = random.Random(42)
        for bits in (16, 32, 64, 128):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_generated_prime_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))


class TestHashToInt:
    def test_in_range_and_nonzero(self):
        for modulus in (17, 1 << 64, (1 << 127) - 1):
            v = hash_to_int(b"hello", modulus)
            assert 1 <= v < modulus

    def test_deterministic(self):
        assert hash_to_int(b"x", 10**12) == hash_to_int(b"x", 10**12)

    def test_different_messages_differ(self):
        assert hash_to_int(b"a", 1 << 128) != hash_to_int(b"b", 1 << 128)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            hash_to_int(b"x", 1)


class TestRSA:
    @pytest.fixture(scope="class")
    def keypair(self):
        return RSAKeyPair(bits=256, seed=1)

    def test_sign_verify_roundtrip(self, keypair):
        sig = keypair.sign(b"message")
        assert keypair.public_key.verify(b"message", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"message")
        assert not keypair.public_key.verify(b"other", sig)

    def test_wrong_key_rejected(self, keypair):
        other = RSAKeyPair(bits=256, seed=2)
        sig = keypair.sign(b"message")
        assert not other.public_key.verify(b"message", sig)

    def test_out_of_range_signature_rejected(self, keypair):
        n = keypair.public_key.n
        assert not keypair.public_key.verify(b"m", RSASignature(value=0))
        assert not keypair.public_key.verify(b"m", RSASignature(value=n))

    def test_deterministic_keygen(self):
        a = RSAKeyPair(bits=256, seed=99)
        b = RSAKeyPair(bits=256, seed=99)
        assert a.public_key == b.public_key

    def test_distinct_seeds_distinct_keys(self):
        a = RSAKeyPair(bits=256, seed=1)
        b = RSAKeyPair(bits=256, seed=2)
        assert a.public_key != b.public_key

    def test_modulus_has_requested_bits(self):
        kp = RSAKeyPair(bits=256, seed=5)
        assert kp.public_key.n.bit_length() == 256

    def test_signature_size(self, keypair):
        sig = keypair.sign(b"m")
        assert sig.size_bytes == 32  # 256-bit key

    def test_signature_serialization_roundtrip(self, keypair):
        sig = keypair.sign(b"m")
        decoded = RSASignature.from_bytes(sig.to_bytes())
        assert decoded.value == sig.value
        assert keypair.public_key.verify(b"m", decoded)

    def test_public_key_serialization_roundtrip(self, keypair):
        pk = keypair.public_key
        decoded = RSAPublicKey.from_bytes(pk.to_bytes())
        assert decoded == pk

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            RSAKeyPair(bits=64, seed=0)
