"""Tests for the crypto/wire fast path (ISSUE 1).

Covers: CRT/plain signature bit-identity, deterministic-keygen enforcement,
signature wire-format validation, verdict-memo transparency against the
unmemoized primitives, the memo's bound and its per-system scope,
codec-memo correctness, and the aggregate column's per-row multisignature
checks.  (Whole-run transparency -- transcripts and counters of faulty
deployments -- is pinned by tests/test_golden_cells.py.)
"""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ReboundConfig
from repro.core.heartbeat import HeartbeatRecord
from repro.core.identity import VERDICT_MEMO_CAPACITY, Directory
from repro.core.runtime import ReboundSystem
from repro.crypto.cost_model import CryptoCounters
from repro.crypto.rsa import RSAKeyPair, RSASignature
from repro.net import message
from repro.net.topology import chemical_plant_topology, grid_topology
from repro.obs import registry
from repro.sched.task import chemical_plant_workload


# -- CRT signing ---------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    payload=st.binary(max_size=64),
)
def test_crt_signatures_bit_identical_to_plain(seed, payload):
    pair = RSAKeyPair(bits=256, seed=seed)
    assert pair.sign(payload).value == pair.sign_plain(payload).value
    assert pair.public_key.verify(payload, pair.sign(payload))


def test_keypair_requires_explicit_seed():
    with pytest.raises(ValueError, match="seed"):
        RSAKeyPair(bits=256, seed=None)


# -- signature wire format -----------------------------------------------------


def test_signature_from_bytes_rejects_malformed_input():
    pair = RSAKeyPair(bits=256, seed=3)
    wire = pair.sign(b"payload").to_bytes()
    for bad in (b"", b"\x00", b"\x00\x00", wire[:-1], wire + b"\x00", wire[:2]):
        with pytest.raises(ValueError):
            RSASignature.from_bytes(bad)


def test_garbage_signature_bytes_verify_false_not_raise():
    system_bits = 256
    directory_pair = RSAKeyPair(bits=system_bits, seed=5)
    directory = Directory(rsa_bits=system_bits, seed=5)
    directory.register(0)
    crypto = directory.crypto_for(0)
    for garbage in (b"", b"\x00", b"\xff" * 3, b"\x00\x10" + b"\x01" * 7):
        assert crypto.verify(0, b"body", garbage) is False
    assert directory_pair is not None  # silence unused warning


def test_non_byte_aligned_modulus_roundtrip():
    pair = RSAKeyPair(bits=257, seed=9)
    assert pair.public_key.bits == 257
    sig = pair.sign(b"odd modulus")
    wire = sig.to_bytes()
    parsed = RSASignature.from_bytes(wire)
    # key_bits rounds up to the serialized width, so the round-trip is
    # byte-exact and the signature still verifies.
    assert parsed.to_bytes() == wire
    assert parsed.value == sig.value
    assert pair.public_key.verify(b"odd modulus", parsed)


# -- verdict memo --------------------------------------------------------------


def test_verification_cache_is_capacity_bounded():
    """The directory's verdict memo never holds more than its capacity and
    evicts the least recently used verdict first."""
    directory = Directory(rsa_bits=256, multisig_bits=128, seed=5)
    extra = 40
    for i in range(VERDICT_MEMO_CAPACITY + extra):
        assert directory.verdict(("k", i), lambda i=i: i % 2 == 0) is (i % 2 == 0)
        assert len(directory.verdicts) <= VERDICT_MEMO_CAPACITY
    assert len(directory.verdicts) == VERDICT_MEMO_CAPACITY
    assert directory.verdict_misses == VERDICT_MEMO_CAPACITY + extra
    # Recent verdicts survive, cached False included; the oldest are gone.
    last = VERDICT_MEMO_CAPACITY + extra - 1
    assert directory.verdict(("k", last), lambda: True) is False
    assert directory.verdict_hits == 1
    assert directory.verdict(("k", 0), lambda: False) is False
    assert directory.verdict_misses == VERDICT_MEMO_CAPACITY + extra + 1


def test_systems_built_from_one_seed_keep_separate_memos():
    """Two systems from one seed hold the same keys, yet a verdict one of
    them memoized is a miss in the other."""
    def build():
        config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
        return ReboundSystem(
            chemical_plant_topology(), chemical_plant_workload(), config, seed=3
        )

    first, second = build(), build()
    signer = first.topology.controllers[0]
    assert (first.directory.rsa_pair(signer).public_key
            == second.directory.rsa_pair(signer).public_key)
    signature = first.directory.crypto_for(signer).sign(b"memo scope")
    for system in (first, second):
        verifier = system.directory.crypto_for(signer + 1)
        before = (system.directory.verdict_hits, system.directory.verdict_misses)
        assert verifier.verify(signer, b"memo scope", signature)
        assert verifier.verify(signer, b"memo scope", signature)
        hits, misses = before
        assert system.directory.verdict_misses == misses + 1
        assert system.directory.verdict_hits == hits + 1


# A hit must be indistinguishable from a miss: the same verdict the
# unmemoized primitive gives, and the same logical counters charged.  Every
# example derives four inputs from one signed body -- valid, forged
# signature, wrong key, wrong body -- clears the directory's verdict memo,
# memoizes the three it did not draw (so a memo key that ignored the body,
# the key or the signature would now answer for the fourth), then verifies
# the drawn one through a fresh handle (which must miss) and through
# another (which must hit).

_DIRECTORY = Directory(rsa_bits=256, multisig_bits=128, seed=77)
for _node in range(4):
    _DIRECTORY.register(_node)

_CASES = ("valid", "forged", "wrong_key", "wrong_body")
# Bodies straddle the 64-byte bound above which memo keys hold a digest.
_BODIES = st.binary(min_size=1, max_size=80)


def _miss_then_hit(call, drawn, siblings):
    """``call(crypto, variant)`` on the ``drawn`` variants, cold then warm,
    with every sibling variant already cached; returns both results."""
    _DIRECTORY.verdicts.clear()
    call(_DIRECTORY.crypto_for(2), siblings)
    _DIRECTORY.verdict_hits = _DIRECTORY.verdict_misses = 0
    cold, warm = _DIRECTORY.crypto_for(0), _DIRECTORY.crypto_for(1)
    first = call(cold, drawn)
    assert _DIRECTORY.verdict_hits == 0 and _DIRECTORY.verdict_misses == len(drawn)
    second = call(warm, drawn)
    assert _DIRECTORY.verdict_hits == len(drawn) == _DIRECTORY.verdict_misses
    assert cold.total_counters() == warm.total_counters()
    return first, second


def _rsa_variants(body, signer, flip):
    """case -> ((claimed origin, body, signature bytes), unmemoized verdict)."""
    wire = _DIRECTORY.rsa_pair(signer).sign(body).to_bytes()
    index = flip % len(wire)  # corrupt one byte, possibly the length prefix
    forged = wire[:index] + bytes([wire[index] ^ (1 + flip % 255)]) + wire[index + 1:]
    variants = {
        "valid": (signer, body, wire),
        "forged": (signer, body, forged),
        "wrong_key": ((signer + 1) % 4, body, wire),
        "wrong_body": (signer, body + b"!", wire),
    }
    out = {}
    for case, (claimed, signed, sig) in variants.items():
        try:
            verdict = _DIRECTORY.rsa_pair(claimed).public_key.verify(
                signed, RSASignature.from_bytes(sig)
            )
        except ValueError:
            verdict = False
        assert verdict == (case == "valid")
        out[case] = ((claimed, signed, sig), verdict)
    return out


@settings(max_examples=60, deadline=None)
@given(body=_BODIES, case=st.sampled_from(_CASES), signer=st.integers(0, 3),
       flip=st.integers(0, 10**6))
def test_cached_rsa_verify_equals_public_key_verify(body, case, signer, flip):
    variants = _rsa_variants(body, signer, flip)
    args, expected = variants.pop(case)
    first, second = _miss_then_hit(
        lambda crypto, inputs: [crypto.verify(*a) for a in inputs],
        [args], [a for a, _verdict in variants.values()],
    )
    assert first == [expected] and second == [expected]


def _multisig_variants(body, mults):
    """case -> ((body, sig value, aggregate key value, signer mask,
    aggregate-key cache key), verdict of the paper's equation
    ``sig * g == H(m) * apk (mod q)`` written out here).  The key value is
    the multiset's sum of public keys."""
    group = _DIRECTORY.group
    q = group.q
    multiset = Counter({node: m for node, m in enumerate(mults) if m})
    value = sum(
        m * _DIRECTORY._ms_pairs[node].sign(body) for node, m in multiset.items()
    ) % q
    variants = {
        "valid": (body, value, multiset),
        "forged": (body, (value + 1) % q, multiset),
        "wrong_key": (body, value, multiset + Counter({3: 1})),
        "wrong_body": (body + b"!", value, multiset),
    }
    out = {}
    for case, (signed, sig, signers) in variants.items():
        apk = sum(m * _DIRECTORY.ms_public(node) for node, m in signers.items()) % q
        verdict = (sig * group.g) % q == (group.hash_to_group(signed) * apk) % q
        assert verdict == (case == "valid")
        key = ("test", tuple(sorted(signers.items())))
        mask = sum(1 << node for node in signers)
        out[case] = ((signed, sig, apk, mask, key), verdict)
    return out


_MULTS = st.lists(st.integers(0, 2), min_size=3, max_size=3).filter(any)


@settings(max_examples=60, deadline=None)
@given(body=_BODIES, case=st.sampled_from(_CASES), mults=_MULTS)
def test_cached_ms_verify_value_equals_plain_multisig_check(body, case, mults):
    variants = _multisig_variants(body, mults)
    entry, expected = variants.pop(case)
    first, second = _miss_then_hit(
        lambda crypto, entries: [crypto.ms_verify_value(*e) for e in entries],
        [entry], [e for e, _verdict in variants.values()],
    )
    assert first == [expected] and second == [expected]


@settings(max_examples=40, deadline=None)
@given(
    # Distinct bodies: one body's valid variant is a sibling of its others.
    cases=st.lists(st.tuples(_BODIES, st.sampled_from(_CASES), _MULTS),
                   min_size=1, max_size=6, unique_by=lambda c: c[0])
)
def test_ms_warm_batch_equals_plain_multisig_check(cases):
    """The column builder's verdicts are the plain check's, and it touches
    neither the verdict memo nor a counter; the per-recipient charge over
    the column's rows charges what one ms_verify_value per row charges."""
    entries, expected = [], []
    for body, case, mults in cases:
        entry, verdict = _multisig_variants(body, mults)[case]
        entries.append(entry)
        expected.append(verdict)
    builder = _DIRECTORY.crypto_for(0)
    memo = (dict(_DIRECTORY.verdicts), _DIRECTORY.verdict_hits, _DIRECTORY.verdict_misses)
    assert builder.ms_warm_batch([entry[:3] for entry in entries]) == expected
    assert builder.total_counters() == CryptoCounters()
    assert (dict(_DIRECTORY.verdicts), _DIRECTORY.verdict_hits,
            _DIRECTORY.verdict_misses) == memo
    # An aggregate key is named (epoch, sender, age): give each distinct
    # key of the drawn entries its own age.
    ages = {}
    rows = [
        (0, sig, ages.setdefault(key, len(ages)), apk, mask, verdict)
        for (_body, sig, apk, mask, key), verdict in zip(entries, expected)
    ]
    batch, single = _DIRECTORY.crypto_for(2), _DIRECTORY.crypto_for(3)
    batch.ms_verify_batch(b"epoch", 1, rows)
    for body, sig, apk, mask, key in entries:
        single.ms_verify_value(body, sig, apk, mask, (b"epoch", 1, ages[key]))
    assert batch.total_counters() == single.total_counters()


# -- codec memo ----------------------------------------------------------------


_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.binary(max_size=12), st.text(max_size=6),
)
_RECORDS = st.builds(
    HeartbeatRecord,
    origin=st.integers(0, 50), round_no=st.integers(0, 50),
    delta_count=st.integers(0, 3), signature=st.binary(max_size=8),
)
_IMMUTABLE = st.recursive(
    st.one_of(_ATOMS, _RECORDS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(st.one_of(st.integers(0, 9), st.binary(max_size=3)), max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(_IMMUTABLE, max_size=4), record=_RECORDS)
def test_codec_memo_hit_equals_fresh_encoding(parts, record):
    """A memoized value encodes to the bytes a never-seen equal value does."""
    value = (record, *parts)
    message.encode(value)  # populates the memo
    hits = message.codec_memo_stats()["hits"]
    blob = message.encode(value)
    assert message.codec_memo_stats()["hits"] > hits
    assert message.encoded_size(value) == len(blob)
    fresh = copy.deepcopy(value)
    assert fresh is not value and fresh[0] is not record
    assert blob == message.encode(fresh)
    assert message.decode(blob) == value


def test_codec_memo_keeps_bool_and_int_distinct():
    # True == 1 and hash-equal, but the memo is keyed by identity.
    assert message.encode((True,)) != message.encode((1,))
    assert message.encode(True) != message.encode(1)
    assert message.decode(message.encode((True, 1))) == (True, 1)
    assert message.decode(message.encode((True, 1)))[0] is True


def test_codec_memo_never_caches_mutable_content():
    inner = [1, 2]
    holder = (0, inner)
    first = message.encode(holder)
    inner.append(3)
    second = message.encode(holder)
    assert first != second
    assert message.decode(second) == (0, [1, 2, 3])


def test_codec_memo_is_bounded():
    message.configure_codec_memo(capacity=16)
    try:
        for i in range(200):
            message.encode((i, i + 1))
        stats = message.codec_memo_stats()
        assert stats["entries"] <= 16
        assert stats["evictions"] > 0
    finally:
        message.configure_codec_memo(capacity=4096)


# -- telemetry -----------------------------------------------------------------


def test_stats_snapshot_shape():
    registry.ensure_default_components()
    stats = registry.stats_snapshot()
    assert set(stats) == {"codec_memo", "ilp_solver"}
    assert "hits" in stats["codec_memo"]
    assert "warm_starts" in stats["ilp_solver"]


def test_grid_topology_shape():
    topo = grid_topology(4, 5)
    assert len(topo.nodes) == 20
    # Interior node 6 (row 1, col 1) has 4 neighbors; corner 0 has 2.
    assert len(list(topo.neighbors(6))) == 4
    assert len(list(topo.neighbors(0))) == 2
    with pytest.raises(ValueError):
        grid_topology(0, 3)
