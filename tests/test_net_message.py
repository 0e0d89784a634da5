"""Codec tests: round-trips, canonical encoding, malformed input."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.message import (
    codec_memo_stats,
    decode,
    encode,
    encoded_size,
    register_message,
)


@register_message
@dataclass(frozen=True)
class _Sample:
    a: int
    b: bytes
    c: tuple


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**200,
            -(2**200),
            b"",
            b"\x00\xff",
            "",
            "héllo",
            (),
            (1, 2, (3, b"x")),
            [],
            [1, [2], "three"],
            {},
            {1: "a", "b": 2},
            frozenset(),
            frozenset({1, 2, 3}),
        ],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_encoded_size_matches(self):
        value = (1, b"abc", "def")
        assert encoded_size(value) == len(encode(value))

    def test_encoded_size_uses_memo(self):
        value = _Sample(a=3, b=b"m", c=(1,))
        encode(value)  # populates the identity-keyed memo
        before = codec_memo_stats()["hits"]
        assert encoded_size(value) == len(encode(value))
        assert codec_memo_stats()["hits"] > before

    def test_dict_encoding_canonical(self):
        a = {1: "x", 2: "y", 3: "z"}
        b = dict(reversed(list(a.items())))
        assert encode(a) == encode(b)

    def test_frozenset_encoding_canonical(self):
        assert encode(frozenset([3, 1, 2])) == encode(frozenset([1, 2, 3]))

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            encode(object())

    def test_float_rejected(self):
        # Protocols must not put floats on the wire (non-canonical).
        with pytest.raises(TypeError):
            encode(1.5)


class TestMessages:
    def test_dataclass_roundtrip(self):
        msg = _Sample(a=7, b=b"bytes", c=(1, "two"))
        assert decode(encode(msg)) == msg

    def test_unregistered_dataclass_rejected(self):
        @dataclass
        class NotRegistered:
            x: int

        with pytest.raises(TypeError):
            encode(NotRegistered(x=1))

    def test_nested_messages(self):
        inner = _Sample(a=1, b=b"", c=())
        outer = _Sample(a=2, b=b"x", c=(inner,))
        assert decode(encode(outer)) == outer

    def test_register_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            register_message(int)


class TestMalformed:
    def test_trailing_bytes_rejected(self):
        data = encode(42) + b"\x00"
        with pytest.raises(ValueError):
            decode(data)

    def test_truncated_rejected(self):
        data = encode(b"hello world")
        with pytest.raises(ValueError):
            decode(data[:-3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode(b"\xfe")

    def test_unknown_type_id_rejected(self):
        data = b"\x10" + (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
        with pytest.raises(ValueError):
            decode(data)


_json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.binary(max_size=32)
    | st.text(max_size=16),
    lambda children: st.tuples(children, children)
    | st.lists(children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=4),
    max_leaves=20,
)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(value=_json_like)
    def test_roundtrip_property(self, value):
        assert decode(encode(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(value=_json_like)
    def test_encoding_deterministic(self, value):
        assert encode(value) == encode(value)

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(), b=st.integers())
    def test_distinct_ints_distinct_encodings(self, a, b):
        if a != b:
            assert encode(a) != encode(b)
