"""Wire-frame IPC plane: frame buffers, the decode cache, batched RPCs,
and typed worker errors.

The load-bearing property: for any encodable value -- registered message
dataclasses included -- its canonical frame decodes to an equal object
through the per-worker frame cache, under duplicate-frame interning and
cache eviction alike.  Alongside it: Frame-handle transparency
(``encode(Frame(b)) == b``), memoized ``encoded_size``, buffer
pack/unpack round-trips, read-your-writes for deferred RPCs, and
:class:`WorkerCallError` fidelity across the process boundary.
"""

import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReboundConfig, ReboundSystem
from repro.net import frames
from repro.net.frames import (
    DeliveryWriter,
    IntentWriter,
    configure_frame_cache,
    decode_frame,
    frame_cache_stats,
    unpack_deliveries,
    unpack_intents,
)
from repro.net.message import (
    Frame,
    decode,
    encode,
    encoded_size,
    codec_memo_stats as memo_stats,
    register_message,
)
from repro.net.shard import WorkerCallError
from repro.net.topology import grid_topology
from repro.sched.workload import WorkloadGenerator


@register_message
@dataclass(frozen=True)
class _FrozenFrameMsg:
    a: int
    b: bytes
    c: tuple


@register_message
@dataclass
class _MutableFrameMsg:
    a: int
    b: tuple


@pytest.fixture
def fresh_cache():
    """A small, empty frame cache; restores defaults afterwards."""
    configure_frame_cache(capacity=8)
    try:
        yield
    finally:
        configure_frame_cache(capacity=4096)


_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.binary(max_size=24)
    | st.text(max_size=12),
    lambda children: st.tuples(children, children)
    | st.lists(children, max_size=3)
    | st.dictionaries(st.integers(), children, max_size=3)
    | st.builds(
        _FrozenFrameMsg,
        a=st.integers(),
        b=st.binary(max_size=8),
        c=st.tuples(children),
    )
    | st.builds(
        _MutableFrameMsg, a=st.integers(), b=st.tuples(children)
    ),
    max_leaves=12,
)


class TestFrameDecodeCache:
    @settings(max_examples=120, deadline=None)
    @given(values=st.lists(_values, min_size=1, max_size=6))
    def test_frames_decode_equal_through_cache(self, values):
        """Any encodable value's frame decodes to an equal object via the
        cache -- repeatedly, with interned duplicates, and across
        evictions forced by the tiny capacity."""
        configure_frame_cache(capacity=4)
        try:
            blobs = [encode(v) for v in values]
            # Duplicate the whole batch: the second pass decodes interned
            # (value-equal) frame bytes, hitting or re-filling the cache.
            for blob, value in 2 * list(zip(blobs, values)):
                assert decode_frame(blob) == value
                assert decode(blob) == value  # cache agrees with plain decode
        finally:
            configure_frame_cache(capacity=4096)

    def test_cache_hit_returns_same_object(self, fresh_cache):
        value = _FrozenFrameMsg(a=1, b=b"x", c=(1, 2))
        blob = encode(value)
        first = decode_frame(blob)
        before = frame_cache_stats()["hits"]
        second = decode_frame(bytes(blob))  # equal but distinct bytes
        assert second is first
        assert frame_cache_stats()["hits"] == before + 1

    def test_mutable_containers_never_cached(self, fresh_cache):
        blob = encode([1, 2, 3])
        before = frame_cache_stats()["uncacheable"]
        a = decode_frame(blob)
        b = decode_frame(blob)
        assert a == b == [1, 2, 3]
        assert a is not b  # each recipient owns a private mutable copy
        assert frame_cache_stats()["uncacheable"] == before + 2
        assert frame_cache_stats()["entries"] == 0

    def test_unfrozen_dataclass_cached_but_not_memo_seeded(self, fresh_cache):
        before = frame_cache_stats()["memo_seeded"]
        value = decode_frame(encode(_MutableFrameMsg(a=5, b=(1,))))
        assert value == _MutableFrameMsg(a=5, b=(1,))
        assert frame_cache_stats()["memo_seeded"] == before

    def test_frozen_dataclass_seeds_encode_memo(self, fresh_cache):
        blob = encode(_FrozenFrameMsg(a=9, b=b"q", c=()))
        value = decode_frame(blob)
        assert frame_cache_stats()["memo_seeded"] >= 1
        hits_before = memo_stats()["hits"]
        assert encode(value) == blob  # O(1): served from the seeded memo
        assert memo_stats()["hits"] == hits_before + 1

    def test_eviction_keeps_decodes_correct(self, fresh_cache):
        configure_frame_cache(capacity=3)
        values = [(i, b"v") for i in range(10)]
        for v in values:
            assert decode_frame(encode(v)) == v
        stats = frame_cache_stats()
        assert stats["evictions"] >= 7
        assert stats["entries"] <= 3
        # Evicted frames still decode (fresh miss), equal as ever.
        assert decode_frame(encode(values[0])) == values[0]


class TestFrameHandle:
    @settings(max_examples=80, deadline=None)
    @given(value=_values)
    def test_frame_encodes_to_its_bytes(self, value):
        blob = encode(value)
        assert encode(Frame(blob)) == blob
        assert encoded_size(Frame(blob)) == len(blob)

    def test_frame_inside_container(self):
        blob = encode((1, "two"))
        wrapped = encode((Frame(blob), Frame(blob)))
        assert wrapped == encode(((1, "two"), (1, "two")))

    def test_frame_decode_helper(self):
        assert Frame(encode({1: "a"})).decode() == {1: "a"}

    def test_encoded_size_uses_memo(self):
        value = _FrozenFrameMsg(a=3, b=b"m", c=(1,))
        encode(value)  # populates the identity-keyed memo
        before = memo_stats()["hits"]
        assert encoded_size(value) == len(encode(value))
        assert memo_stats()["hits"] > before


class TestFrameBuffers:
    def test_delivery_interning_roundtrip(self):
        w = DeliveryWriter()
        hot = encode(("hb", 7))
        cold = encode(("hb", 8))
        w.add(1, 2, hot)
        w.add(1, 3, hot)
        w.add(1, 4, hot)
        w.add(2, 3, cold)
        assert w.frame_count == 2
        assert w.interned_hits == 2
        out = unpack_deliveries(w.finish())
        assert out == [(1, 2, hot), (1, 3, hot), (1, 4, hot), (2, 3, cold)]
        # Interned deliveries share one bytes object after unpacking.
        assert out[0][2] is out[1][2] is out[2][2]

    def test_intent_kinds_and_order_roundtrip(self):
        w = IntentWriter()
        a, b = encode("a"), encode("b")
        w.add("u", 5, 6, a)
        w.add("b", 5, 0, b)
        w.add("u", 9, 5, a)
        assert w.interned_hits == 1
        assert unpack_intents(w.finish()) == [
            ("u", 5, 6, a), ("b", 5, 0, b), ("u", 9, 5, a),
        ]

    def test_empty_buffers(self):
        assert unpack_deliveries(DeliveryWriter().finish()) == []
        assert unpack_intents(IntentWriter().finish()) == []

    def test_large_buffers_compress_transparently(self):
        w = DeliveryWriter()
        expected = []
        for i in range(200):
            blob = encode(("payload", i, b"x" * 40))
            w.add(i % 7, i, blob)
            expected.append((i % 7, i, blob))
        buffer = w.finish()
        assert buffer[0] & 0x04  # zlib flag set
        assert len(buffer) < w.raw_bytes
        assert unpack_deliveries(buffer) == expected

    def test_tiny_buffers_stay_uncompressed(self):
        w = DeliveryWriter()
        w.add(1, 2, encode("hi"))
        buffer = w.finish()
        assert not buffer[0] & 0x04
        assert len(buffer) == w.raw_bytes


class TestWorkerCallError:
    def test_pickles_losslessly(self):
        err = WorkerCallError(7, "storage_bytes", "KeyError", "boom",
                             "Traceback ...")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, WorkerCallError)
        assert (clone.node_id, clone.op) == (7, "storage_bytes")
        assert clone.cause_type == "KeyError"
        assert clone.cause_message == "boom"
        assert clone.worker_traceback == "Traceback ..."
        assert "storage_bytes" in str(clone) and "node 7" in str(clone)


def _sharded_system(workers=2):
    workload = WorkloadGenerator(
        seed=0, chain_length_range=(1, 2)
    ).workload(target_utilization=1.5)
    config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
    return ReboundSystem(
        grid_topology(4, 5), workload, config, seed=0, scale_workers=workers
    )


class TestEngineIPC:
    def test_worker_error_surfaces_typed(self):
        system = _sharded_system()
        try:
            system.run_round()
            engine = system._engine
            victim = next(iter(engine._shard_of))
            with pytest.raises(WorkerCallError) as info:
                engine.rpc(victim, "no_such_op")
            assert info.value.node_id == victim
            assert info.value.op == "no_such_op"
            assert info.value.cause_type == "ValueError"
            assert "no_such_op" in info.value.worker_traceback
        finally:
            system.close()

    def test_deferred_rpc_read_your_writes(self):
        system = _sharded_system()
        try:
            system.run_round()
            engine = system._engine
            nid = next(iter(engine._shard_of))
            shard = engine._shard_of[nid]
            engine.rpc_deferred(nid, "summarize")
            assert engine._pending[shard]
            assert nid in engine._dirty
            flushes = engine._ipc["rpc_flushes"]
            engine.summary(nid)  # a read forces the flush
            assert not engine._pending[shard]
            assert nid not in engine._dirty
            assert engine._ipc["rpc_flushes"] == flushes + 1
            # A deferred failure surfaces, typed, at the flush point.
            engine.rpc_deferred(nid, "bogus")
            with pytest.raises(WorkerCallError):
                engine.summary(nid)
        finally:
            system.close()

    def test_round_telemetry_exposes_profile_and_ipc(self):
        system = _sharded_system()
        try:
            for _ in range(3):
                system.run_round()
            stats = system.fastpath_stats()
            prof = stats["round_profile"]
            assert prof["rounds"] == 3
            for stage in ("encode", "ipc", "step", "replay", "merge"):
                assert prof[f"{stage}_s"] >= 0.0
            ipc = stats["engine_ipc"]
            assert ipc["rounds"] == 3
            assert 0 < ipc["delivery_bytes"] <= ipc["delivery_raw_bytes"]
            assert ipc["intent_bytes"] > 0
            assert ipc["frames_shipped"] > 0
            assert stats["frame_cache"]["hits"] + stats["frame_cache"]["misses"] > 0
        finally:
            system.close()
