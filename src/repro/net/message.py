"""Deterministic binary wire codec.

Every protocol message in this reproduction is serialized through this codec
before it enters the network simulator, so the bandwidth numbers of Fig. 5,
Fig. 6, and Fig. 8 are measured over actual bytes rather than estimated.

The format is a small self-describing tagged encoding supporting the Python
primitives the protocols use (None, bool, int of any size, bytes, str,
tuple, list, dict, frozenset) plus *registered message dataclasses*, which
are encoded as a type tag followed by their fields in declaration order.

Encoding is canonical: dicts and frozensets are serialized in sorted order,
so equal values always produce identical bytes -- a property the evidence
subsystem relies on (signatures are computed over encodings).

Encoding is also *memoized* for recursively-immutable values (tuples and
frozen registered dataclasses whose fields are themselves immutable): a
node hands one :class:`RoundMessage` object to every neighbor with an
equal packet tuple in a round (and its record tuples to the rest), so it
is encoded once and the bytes reused.  The memo is keyed by object *identity* and
holds a strong reference to the key object, which makes it sound: the entry
can only be hit while the exact object is alive, and an immutable object's
encoding never changes.  (A value-keyed cache would be unsound here --
``True == 1`` hash-equal but ``encode(True) != encode(1)``.)  Mutable
containers (list, dict) and anything transitively containing them are never
memoized.  The memo is bounded LRU (:func:`configure_codec_memo` resizes
it); being a pure function cache, a hit yields the bytes a fresh walk would.
"""

from __future__ import annotations

import dataclasses
import struct
from collections import OrderedDict
from typing import Any, Dict, List, Tuple, Type

_T_NONE = b"\x00"
_T_TRUE = b"\x01"
_T_FALSE = b"\x02"
_T_INT = b"\x03"
_T_BYTES = b"\x04"
_T_STR = b"\x05"
_T_TUPLE = b"\x06"
_T_LIST = b"\x07"
_T_DICT = b"\x08"
_T_FROZENSET = b"\x09"
_T_MESSAGE = b"\x10"

_registry_by_name: Dict[str, Tuple[int, Type]] = {}
_registry_by_id: Dict[int, Type] = {}
_frozen_by_name: Dict[str, bool] = {}


# -- encode memo (see module docstring) ---------------------------------------

_MEMO_CAPACITY = 4096
#: id(obj) -> (obj, encoded bytes).  The strong reference to obj pins its id.
_memo: "OrderedDict[int, Tuple[Any, bytes]]" = OrderedDict()
_memo_stats: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0, "saved_bytes": 0}


def configure_codec_memo(capacity: int) -> None:
    """Resize the encode memo (and clear it)."""
    global _MEMO_CAPACITY
    if capacity <= 0:
        raise ValueError("codec memo capacity must be positive")
    _MEMO_CAPACITY = capacity
    _memo.clear()


def codec_memo_stats() -> Dict[str, int]:
    stats = dict(_memo_stats)
    stats["capacity"] = _MEMO_CAPACITY
    stats["entries"] = len(_memo)
    return stats


def reset_codec_memo_stats() -> None:
    _memo_stats.update(hits=0, misses=0, evictions=0, saved_bytes=0)


def register_message(cls: Type) -> Type:
    """Class decorator registering a dataclass with the codec.

    The type id is derived from the class name (stable across runs and
    processes); registering two distinct classes with the same name is an
    error.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} must be a dataclass")
    name = cls.__name__
    type_id = int.from_bytes(
        __import__("hashlib").sha256(name.encode()).digest()[:4], "big"
    )
    existing = _registry_by_id.get(type_id)
    if existing is not None and existing.__name__ != name:
        raise ValueError(f"type-id collision between {name} and {existing.__name__}")
    _registry_by_name[name] = (type_id, cls)
    _registry_by_id[type_id] = cls
    _frozen_by_name[name] = bool(cls.__dataclass_params__.frozen)
    return cls


def _encode_varbytes(data: bytes, out: List[bytes]) -> None:
    out.append(struct.pack(">I", len(data)))
    out.append(data)


def _memo_store(value: Any, blob: bytes) -> None:
    _memo[id(value)] = (value, blob)
    while len(_memo) > _MEMO_CAPACITY:
        _memo.popitem(last=False)
        _memo_stats["evictions"] += 1


def _encode_into(value: Any, out: List[bytes]) -> bool:
    """Append the encoding of ``value`` to ``out``.

    Returns True when ``value`` is *recursively immutable* (so its encoding
    can never change and is safe to memoize by identity), False otherwise.
    The memo is read first: a memoized record inside a fresh tuple or a
    list is served before any type test.
    """
    hit = _memo.get(id(value))
    if hit is not None and hit[0] is value:
        _memo.move_to_end(id(value))
        _memo_stats["hits"] += 1
        _memo_stats["saved_bytes"] += len(hit[1])
        out.append(hit[1])
        return True
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        _encode_varbytes(raw, out)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _encode_varbytes(value, out)
    elif isinstance(value, str):
        out.append(_T_STR)
        _encode_varbytes(value.encode("utf-8"), out)
    elif isinstance(value, tuple):
        sub: List[bytes] = [_T_TUPLE, struct.pack(">I", len(value))]
        safe = True
        for item in value:
            safe = _encode_into(item, sub) and safe
        blob = b"".join(sub)
        out.append(blob)
        if safe:
            _memo_stats["misses"] += 1
            _memo_store(value, blob)
        return safe
    elif isinstance(value, list):
        out.append(_T_LIST)
        out.append(struct.pack(">I", len(value)))
        for item in value:
            _encode_into(item, out)
        return False
    elif isinstance(value, dict):
        out.append(_T_DICT)
        items = sorted(value.items(), key=lambda kv: encode(kv[0]))
        out.append(struct.pack(">I", len(items)))
        for k, v in items:
            _encode_into(k, out)
            _encode_into(v, out)
        return False
    elif isinstance(value, frozenset):
        out.append(_T_FROZENSET)
        items = sorted(value, key=encode)
        out.append(struct.pack(">I", len(items)))
        safe = True
        for item in items:
            safe = _encode_into(item, out) and safe
        return safe
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _registry_by_name:
            raise TypeError(f"unregistered message type: {name}")
        type_id, _ = _registry_by_name[name]
        fields = dataclasses.fields(value)
        sub = [_T_MESSAGE, struct.pack(">I", type_id), struct.pack(">I", len(fields))]
        safe = _frozen_by_name[name]
        for f in fields:
            safe = _encode_into(getattr(value, f.name), sub) and safe
        blob = b"".join(sub)
        out.append(blob)
        if safe:
            _memo_stats["misses"] += 1
            _memo_store(value, blob)
        return safe
    else:
        raise TypeError(f"cannot encode value of type {type(value).__name__}")
    return True


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def encoded_size(value: Any) -> int:
    """Size in bytes of ``encode(value)``.

    Routed through the encode memo: sizing an already-memoized frozen
    message is O(1) and never re-materializes the bytes.  Memo hits are
    counted in the memo stats exactly like :func:`encode` hits.
    """
    return len(encode(value))


class _Decoder:
    """Streaming decoder over one canonical encoding."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated message")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def _take_varbytes(self) -> bytes:
        (length,) = struct.unpack(">I", self._take(4))
        return self._take(length)

    def decode_value(self) -> Any:
        tag = self._take(1)
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return int.from_bytes(self._take_varbytes(), "big", signed=True)
        if tag == _T_BYTES:
            return self._take_varbytes()
        if tag == _T_STR:
            return self._take_varbytes().decode("utf-8")
        if tag == _T_TUPLE:
            (count,) = struct.unpack(">I", self._take(4))
            return tuple(self.decode_value() for _ in range(count))
        if tag == _T_LIST:
            (count,) = struct.unpack(">I", self._take(4))
            return [self.decode_value() for _ in range(count)]
        if tag == _T_DICT:
            (count,) = struct.unpack(">I", self._take(4))
            return {self.decode_value(): self.decode_value() for _ in range(count)}
        if tag == _T_FROZENSET:
            (count,) = struct.unpack(">I", self._take(4))
            return frozenset(self.decode_value() for _ in range(count))
        if tag == _T_MESSAGE:
            (type_id,) = struct.unpack(">I", self._take(4))
            cls = _registry_by_id.get(type_id)
            if cls is None:
                raise ValueError(f"unknown message type id {type_id}")
            (count,) = struct.unpack(">I", self._take(4))
            fields = dataclasses.fields(cls)
            if count != len(fields):
                raise ValueError(
                    f"field count mismatch for {cls.__name__}: {count} != {len(fields)}"
                )
            values = [self.decode_value() for _ in range(count)]
            return cls(**{f.name: v for f, v in zip(fields, values)})
        raise ValueError(f"unknown tag {tag!r}")


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`.

    Raises ValueError on malformed or trailing data.
    """
    decoder = _Decoder(data)
    value = decoder.decode_value()
    if decoder.pos != len(data):
        raise ValueError("trailing bytes after message")
    return value

from repro.obs import registry as _telemetry

_telemetry.register("codec_memo", codec_memo_stats, reset_codec_memo_stats)
