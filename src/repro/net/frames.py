"""Wire-frame IPC plane: flat frame buffers and the frame-decode cache.

The sharded round engine (:mod:`repro.net.shard`) originally shipped
pickled Python message objects per shard per round, which made the IPC
round-trip the dominant cost of a round.  This module replaces that with
the repo's own canonical codec (:mod:`repro.net.message`): each payload
crosses the process boundary exactly once, as the byte frame ``encode()``
produces, packed into one flat buffer per shard per round.

**Buffer layout** (all integers big-endian, no padding)::

    u8   flags      # bit0: 32-bit node ids, bit1: 32-bit frame idx, bit2: zlib
    u32  frame_count
    frame_count x { u32 length, <length> frame bytes }   # unique frames
    u32  group_count            # run-length groups of the sender column
    group_count x { id sender, u32 run_length }
    u32  header_count
    header_count x id   dest column     (target column for intents)
    header_count x idx  frame-index column
    header_count x u8   kind column     (intents only; u=0, b=1)

where ``id`` is u16 unless any node id exceeds 65535 and ``idx`` is u16
unless the buffer holds >= 65536 unique frames (then u32 each; the flags
byte says which).  Headers are *columnar*: deliveries arrive sorted by
``(sender, dest, seq)`` and intents in ascending-sender emission order,
so the sender column is runs of equal values and run-length encodes to a
few bytes per sender, leaving ~4-5 bytes of header per delivery intent
-- the difference between beating pickle's per-entry overhead and merely
matching it.  Buffers over a small threshold are additionally
zlib-compressed (level 1, flags bit2) when that shrinks them; this is
pure transport compression -- decompression restores the exact columnar
buffer -- and writers expose ``raw_bytes`` so the structural and
transport savings stay separately measurable.

**Interning.**  Frames are deduplicated *by value* within one buffer: a
broadcast (or the per-neighbor unicast fan-out of one node's round
message, which is value-equal across neighbors whenever it carries no
per-destination packets) into a shard ships one frame plus one small
header per recipient.  This beats pickle's identity-keyed memo, which
re-serializes value-equal but distinct objects in full.

**Frame-decode cache.**  ``decode_frame`` is a process-wide bounded LRU
keyed by frame bytes, so the k recipients of an interned frame inside one
worker decode it once and hot evidence/heartbeat bodies decode once per
process.  Cache hits hand every recipient the *same* object -- the exact
sharing bus broadcast already produces in the serial engine -- so it is
admissible only for values without mutable containers (no list/dict
anywhere); anything else decodes fresh each time.  When the decode is
additionally memo-safe (no unfrozen dataclasses), it seeds the codec's
identity-keyed encode memo, making a later re-encode of the decoded
object (e.g. by the parent's replay path) an O(1) hit.

Both directions of the plane are transcript-neutral: frames are canonical
encodings, so sizes, guardian charging, and chaos corruption bytes are
identical to the object path, and decoding yields value-equal payloads.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.net.message import _Decoder, _memo_store

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")

_FLAG_WIDE_ID = 1
_FLAG_WIDE_IDX = 2
_FLAG_ZLIB = 4

#: Buffers below this size skip the compression attempt outright.
_COMPRESS_MIN = 192

#: Intent kinds on the wire: unicast send / bus broadcast.
_KIND_CODE = {"u": 0, "b": 1}
_KIND_NAME = {0: "u", 1: "b"}


def _rle(values: List[int]) -> List[Tuple[int, int]]:
    """Run-length encode consecutive equal values as (value, count)."""
    groups: List[Tuple[int, int]] = []
    for v in values:
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    return groups


class _FrameWriter:
    """Accumulates one flat buffer, interning duplicate frames by value."""

    __slots__ = ("_index", "_frames", "headers", "interned_hits", "raw_bytes")

    def __init__(self) -> None:
        self._index: Dict[bytes, int] = {}
        self._frames: List[bytes] = []
        self.headers: List[Tuple[int, ...]] = []
        self.interned_hits = 0
        self.raw_bytes = 0

    def add_frame(self, blob: bytes) -> int:
        idx = self._index.get(blob)
        if idx is None:
            idx = len(self._frames)
            self._index[blob] = idx
            self._frames.append(blob)
        else:
            self.interned_hits += 1
        return idx

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    @property
    def header_count(self) -> int:
        return len(self.headers)

    def _pack(
        self,
        senders: List[int],
        targets: List[int],
        indices: List[int],
        kinds: Optional[List[int]],
    ) -> bytes:
        max_id = max(max(senders, default=0), max(targets, default=0))
        wide_id = max_id > 0xFFFF
        wide_idx = len(self._frames) > 0xFFFF
        id_code = "I" if wide_id else "H"
        idx_code = "I" if wide_idx else "H"
        flags = (_FLAG_WIDE_ID if wide_id else 0) | (
            _FLAG_WIDE_IDX if wide_idx else 0
        )
        parts: List[bytes] = [_U8.pack(flags), _U32.pack(len(self._frames))]
        for blob in self._frames:
            parts.append(_U32.pack(len(blob)))
            parts.append(blob)
        groups = _rle(senders)
        parts.append(_U32.pack(len(groups)))
        if groups:
            flat = [x for group in groups for x in group]
            parts.append(
                struct.pack(">" + (id_code + "I") * len(groups), *flat)
            )
        count = len(targets)
        parts.append(_U32.pack(count))
        if count:
            parts.append(struct.pack(f">{count}{id_code}", *targets))
            parts.append(struct.pack(f">{count}{idx_code}", *indices))
            if kinds is not None:
                parts.append(bytes(kinds))
        buffer = b"".join(parts)
        self.raw_bytes = len(buffer)
        if len(buffer) > _COMPRESS_MIN:
            # Transport compression only -- decompression restores the
            # exact columnar buffer, so nothing downstream can tell.
            body = zlib.compress(buffer[1:], 1)
            if len(body) + 1 < len(buffer):
                return _U8.pack(flags | _FLAG_ZLIB) + body
        return buffer


class DeliveryWriter(_FrameWriter):
    """Parent-side builder for one shard's per-round delivery buffer."""

    __slots__ = ()

    def add(self, sender: int, dest: int, blob: bytes) -> None:
        self.headers.append((sender, dest, self.add_frame(blob)))

    def finish(self) -> bytes:
        headers = self.headers
        return self._pack(
            [h[0] for h in headers],
            [h[1] for h in headers],
            [h[2] for h in headers],
            None,
        )


class IntentWriter(_FrameWriter):
    """Worker-side builder for the round's captured-intent buffer."""

    __slots__ = ()

    def add(self, kind: str, sender: int, target: int, blob: bytes) -> None:
        self.headers.append(
            (sender, target, self.add_frame(blob), _KIND_CODE[kind])
        )

    def finish(self) -> bytes:
        headers = self.headers
        return self._pack(
            [h[0] for h in headers],
            [h[1] for h in headers],
            [h[2] for h in headers],
            [h[3] for h in headers],
        )


class EventWriter(_FrameWriter):
    """Builder for one round's drained flight-recorder events.

    Same plane as deliveries/intents: interned payload frames (the
    JSON-encoded ``data`` dict -- identical dicts, e.g. the empty one or a
    hot heartbeat status, ship once per buffer) plus columnar headers.
    Callers add events in canonical ``(round, node, seq)`` order, so the
    round and node columns are runs and RLE-encode to a few bytes each::

        u8   flags      # bit0: 32-bit node ids, bit1: 32-bit frame idx, bit2: zlib
        u32  frame_count
        frame_count x { u32 length, <length> data-JSON bytes }
        u32  round_group_count
        round_group_count x { u32 round, u32 run_length }
        u32  node_group_count
        node_group_count x { id node, u32 run_length }
        u32  header_count
        header_count x u32  seq column
        header_count x u8   kind column
        header_count x idx  frame-index column

    Node ids are unsigned on the wire: only worker-resident nodes ship
    events, and those are real topology ids (the chaos layer's synthetic
    node ``-1`` reorder events are emitted parent-side and never cross).
    """

    __slots__ = ()

    def add(
        self, node: int, round_no: int, seq: int, kind: int, blob: bytes
    ) -> None:
        if node < 0:
            raise ValueError("event frames carry real (non-negative) node ids")
        self.headers.append((round_no, node, seq, kind, self.add_frame(blob)))

    def finish(self) -> bytes:
        headers = self.headers
        max_id = max((h[1] for h in headers), default=0)
        wide_id = max_id > 0xFFFF
        wide_idx = len(self._frames) > 0xFFFF
        id_code = "I" if wide_id else "H"
        idx_code = "I" if wide_idx else "H"
        flags = (_FLAG_WIDE_ID if wide_id else 0) | (
            _FLAG_WIDE_IDX if wide_idx else 0
        )
        parts: List[bytes] = [_U8.pack(flags), _U32.pack(len(self._frames))]
        for blob in self._frames:
            parts.append(_U32.pack(len(blob)))
            parts.append(blob)
        round_groups = _rle([h[0] for h in headers])
        parts.append(_U32.pack(len(round_groups)))
        if round_groups:
            flat = [x for group in round_groups for x in group]
            parts.append(struct.pack(f">{2 * len(round_groups)}I", *flat))
        node_groups = _rle([h[1] for h in headers])
        parts.append(_U32.pack(len(node_groups)))
        if node_groups:
            flat = [x for group in node_groups for x in group]
            parts.append(
                struct.pack(">" + (id_code + "I") * len(node_groups), *flat)
            )
        count = len(headers)
        parts.append(_U32.pack(count))
        if count:
            parts.append(struct.pack(f">{count}I", *[h[2] for h in headers]))
            parts.append(bytes(h[3] for h in headers))
            parts.append(
                struct.pack(f">{count}{idx_code}", *[h[4] for h in headers])
            )
        buffer = b"".join(parts)
        self.raw_bytes = len(buffer)
        if len(buffer) > _COMPRESS_MIN:
            body = zlib.compress(buffer[1:], 1)
            if len(body) + 1 < len(buffer):
                return _U8.pack(flags | _FLAG_ZLIB) + body
        return buffer


def unpack_events(buffer: bytes) -> List[Tuple[int, int, int, int, bytes]]:
    """Decode an event buffer to ``(node, round, seq, kind, data bytes)``
    tuples in header (canonical) order; interned data blobs share one
    bytes object."""
    (flags,) = _U8.unpack_from(buffer, 0)
    if flags & _FLAG_ZLIB:
        buffer = buffer[:1] + zlib.decompress(buffer[1:])
        flags &= ~_FLAG_ZLIB
    pos = 1
    (frame_count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    frames: List[bytes] = []
    for _ in range(frame_count):
        (length,) = _U32.unpack_from(buffer, pos)
        pos += 4
        frames.append(buffer[pos : pos + length])
        pos += length
    id_code = "I" if flags & _FLAG_WIDE_ID else "H"
    idx_code = "I" if flags & _FLAG_WIDE_IDX else "H"
    idx_size = 4 if flags & _FLAG_WIDE_IDX else 2
    (round_group_count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    rounds: List[int] = []
    pair = struct.Struct(">II")
    for _ in range(round_group_count):
        round_no, run = pair.unpack_from(buffer, pos)
        pos += pair.size
        rounds.extend([round_no] * run)
    (node_group_count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    node_pair = struct.Struct(">" + id_code + "I")
    nodes: List[int] = []
    for _ in range(node_group_count):
        node, run = node_pair.unpack_from(buffer, pos)
        pos += node_pair.size
        nodes.extend([node] * run)
    (count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    if len(rounds) != count or len(nodes) != count:
        raise ValueError("round/node runs do not cover the header count")
    seqs = struct.unpack_from(f">{count}I", buffer, pos)
    pos += count * 4
    kinds = buffer[pos : pos + count]
    pos += count
    indices = struct.unpack_from(f">{count}{idx_code}", buffer, pos)
    pos += count * idx_size
    if pos != len(buffer):
        raise ValueError("trailing bytes after event buffer")
    return [
        (node, round_no, seq, kind, frames[idx])
        for node, round_no, seq, kind, idx in zip(
            nodes, rounds, seqs, kinds, indices
        )
    ]


def _unpack_columns(
    buffer: bytes, with_kinds: bool
) -> Tuple[List[bytes], List[int], Tuple[int, ...], Tuple[int, ...], bytes]:
    (flags,) = _U8.unpack_from(buffer, 0)
    if flags & _FLAG_ZLIB:
        buffer = buffer[:1] + zlib.decompress(buffer[1:])
        flags &= ~_FLAG_ZLIB
    pos = 1
    (frame_count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    frames: List[bytes] = []
    for _ in range(frame_count):
        (length,) = _U32.unpack_from(buffer, pos)
        pos += 4
        frames.append(buffer[pos : pos + length])
        pos += length
    id_code = "I" if flags & _FLAG_WIDE_ID else "H"
    id_size = 4 if flags & _FLAG_WIDE_ID else 2
    idx_code = "I" if flags & _FLAG_WIDE_IDX else "H"
    idx_size = 4 if flags & _FLAG_WIDE_IDX else 2
    (group_count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    group = struct.Struct(">" + id_code + "I")
    senders: List[int] = []
    for _ in range(group_count):
        sender, run = group.unpack_from(buffer, pos)
        pos += group.size
        senders.extend([sender] * run)
    (count,) = _U32.unpack_from(buffer, pos)
    pos += 4
    if len(senders) != count:
        raise ValueError("sender runs do not cover the header count")
    targets = struct.unpack_from(f">{count}{id_code}", buffer, pos)
    pos += count * id_size
    indices = struct.unpack_from(f">{count}{idx_code}", buffer, pos)
    pos += count * idx_size
    kinds = b""
    if with_kinds:
        kinds = buffer[pos : pos + count]
        pos += count
    if pos != len(buffer):
        raise ValueError("trailing bytes after frame buffer")
    return frames, senders, targets, indices, kinds


def unpack_deliveries(buffer: bytes) -> List[Tuple[int, int, bytes]]:
    """Decode a delivery buffer to ``(sender, dest, frame bytes)`` triples
    in header order; interned frames share one bytes object."""
    frames, senders, dests, indices, _ = _unpack_columns(buffer, False)
    return [
        (sender, dest, frames[idx])
        for sender, dest, idx in zip(senders, dests, indices)
    ]


def unpack_intents(buffer: bytes) -> List[Tuple[str, int, int, bytes]]:
    """Decode an intent buffer to ``(kind, sender, target, frame bytes)``
    in the workers' emission order (the order replay must preserve
    per sender)."""
    frames, senders, targets, indices, kinds = _unpack_columns(buffer, True)
    return [
        (_KIND_NAME[kind], sender, target, frames[idx])
        for kind, sender, target, idx in zip(kinds, senders, targets, indices)
    ]


# -- frame-decode cache ---------------------------------------------------------

_CACHE_CAPACITY = 4096
_cache: "OrderedDict[bytes, Any]" = OrderedDict()
_cache_stats: Dict[str, int] = {
    "hits": 0, "misses": 0, "evictions": 0, "uncacheable": 0,
    "memo_seeded": 0,
}
_MISSING = object()


def configure_frame_cache(capacity: int) -> None:
    """Resize the decode cache (and clear it)."""
    global _CACHE_CAPACITY
    if capacity <= 0:
        raise ValueError("frame cache capacity must be positive")
    _CACHE_CAPACITY = capacity
    _cache.clear()


def frame_cache_stats() -> Dict[str, int]:
    stats = dict(_cache_stats)
    stats["capacity"] = _CACHE_CAPACITY
    stats["entries"] = len(_cache)
    return stats


def reset_frame_cache_stats() -> None:
    _cache_stats.update(
        hits=0, misses=0, evictions=0, uncacheable=0, memo_seeded=0
    )


def decode_frame(data: bytes) -> Any:
    """Decode one canonical frame through the bounded decode cache.

    Equal frame bytes yield the *same* decoded object while cached -- the
    sharing contract protocols already honor for bus broadcast.  Values
    containing mutable containers are never cached (each call decodes a
    fresh object); memo-safe values additionally seed the codec encode
    memo so re-encoding the decode is O(1).
    """
    hit = _cache.get(data, _MISSING)
    if hit is not _MISSING:
        _cache.move_to_end(data)
        _cache_stats["hits"] += 1
        return hit
    decoder = _Decoder(data)
    value = decoder.decode_value()
    if decoder.pos != len(data):
        raise ValueError("trailing bytes after message")
    if decoder.saw_mutable_container:
        _cache_stats["uncacheable"] += 1
        return value
    _cache_stats["misses"] += 1
    _cache[data] = value
    while len(_cache) > _CACHE_CAPACITY:
        _cache.popitem(last=False)
        _cache_stats["evictions"] += 1
    if (
        not decoder.saw_unfrozen
        # Only tuples and registered dataclasses are ever looked up in
        # the encode memo; seeding anything else is waste.
        and (type(value) is tuple or dataclasses.is_dataclass(value))
    ):
        _memo_store(value, data)
        _cache_stats["memo_seeded"] += 1
    return value


from repro.obs import registry as _telemetry

_telemetry.register("frame_cache", frame_cache_stats, reset_frame_cache_stats)
