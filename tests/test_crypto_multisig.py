"""Properties of the multisignature integer algebra (paper S3.6).

Keys and signatures are ints mod q; an aggregate is a sum, and
``MultisigGroup.verify`` is the one check.  The reference equation
``sig * g == H(m) * apk (mod q)`` is written out inline where a test needs
it, independently of the code under test.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto.multisig import MultisigGroup, MultisigKeyPair

GROUP = MultisigGroup(bits=128, seed=3)
PAIRS = [MultisigKeyPair(GROUP, seed=i * 31 + 7) for i in range(8)]

#: A signer multiset, as a list of keypair indices (repeats allowed).
MULTISETS = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12)
BODIES = st.binary(min_size=0, max_size=64)


def _aggregate(signers, body):
    """(sum of the signers' signatures on ``body``, sum of their keys)."""
    q = GROUP.q
    sig = sum(PAIRS[i].sign(body) for i in signers) % q
    apk = sum(PAIRS[i].public_key for i in signers) % q
    return sig, apk


def _paper_equation(body, sig, apk):
    return (sig * GROUP.g) % GROUP.q == (GROUP.hash_to_group(body) * apk) % GROUP.q


class TestSingleSignature:
    def test_sign_verify(self):
        kp = GROUP.keypair(seed=1)
        assert GROUP.verify(b"msg", kp.sign(b"msg"), kp.public_key)

    def test_wrong_message_rejected(self):
        kp = GROUP.keypair(seed=1)
        assert not GROUP.verify(b"other", kp.sign(b"msg"), kp.public_key)

    def test_wrong_key_rejected(self):
        kp1, kp2 = GROUP.keypair(seed=1), GROUP.keypair(seed=2)
        assert not GROUP.verify(b"msg", kp1.sign(b"msg"), kp2.public_key)

    def test_element_size_matches_group_bits(self):
        g = MultisigGroup(bits=256, seed=0)
        assert g.element_size == 32

    def test_given_hash_equals_computed_hash(self):
        kp = GROUP.keypair(seed=4)
        sig, h = kp.sign(b"m"), GROUP.hash_to_group(b"m")
        assert GROUP.verify(b"m", sig, kp.public_key, h)
        assert not GROUP.verify(b"m", sig, kp.public_key, h + 1)


class TestAggregation:
    def test_two_signer_aggregate(self):
        sig, apk = _aggregate([0, 1], b"heartbeat")
        assert GROUP.verify(b"heartbeat", sig, apk)

    def test_duplicate_signer_harmless(self):
        """Paper S3.6: including j's signature twice is harmless."""
        sig, apk = _aggregate([5, 5, 6], b"evidence")
        assert GROUP.verify(b"evidence", sig, apk)

    def test_signer_set_mismatch_rejected(self):
        """An aggregate does not verify under a key that omits a signer."""
        sig, _apk = _aggregate([0, 1], b"m")
        assert not GROUP.verify(b"m", sig, PAIRS[0].public_key)

    def test_empty_aggregation_rejected(self):
        """The empty aggregate is the sum 0; no signer's key accepts it."""
        assert not any(GROUP.verify(b"m", 0, pair.public_key) for pair in PAIRS)

    @settings(max_examples=60, deadline=None)
    @given(signers=MULTISETS, body=BODIES)
    def test_any_signer_multiset_verifies(self, signers, body):
        """sum m_i * sig_i verifies under sum m_i * pk_i, as the paper's
        equation says it must."""
        sig, apk = _aggregate(signers, body)
        assert GROUP.verify(body, sig, apk)
        assert _paper_equation(body, sig, apk)

    @settings(max_examples=40, deadline=None)
    @given(signers=MULTISETS, body=BODIES, seed=st.integers(0, 2**32))
    def test_aggregation_order_independent(self, signers, body, seed):
        """Folding the signatures pairwise mod q, in any order, as a relay
        combines them, gives the same verifying aggregate."""
        shuffled = list(signers)
        random.Random(seed).shuffle(shuffled)
        acc = 0
        for i in shuffled:
            acc = (acc + PAIRS[i].sign(body)) % GROUP.q
        sig, apk = _aggregate(signers, body)
        assert acc == sig
        assert GROUP.verify(body, acc, apk)

    @settings(max_examples=60, deadline=None)
    @given(signers=MULTISETS, body=BODIES, extra=st.integers(0, 7))
    def test_wrong_body_key_or_signature_fails(self, signers, body, extra):
        sig, apk = _aggregate(signers, body)
        wider = (apk + PAIRS[extra].public_key) % GROUP.q
        assert not GROUP.verify(body + b"!", sig, apk)
        assert not GROUP.verify(body, sig, wider)
        assert not GROUP.verify(body, (sig + 1) % GROUP.q, apk)
        assert not _paper_equation(body, (sig + 1) % GROUP.q, apk)
