"""Tests for the strict length-prefixed message codec."""

import pytest
from hypothesis import given, strategies as st

from qlhl.bits import BitString
from qlhl.handshake.wire import (FIELDS, SEED_FIELD_INDEX, WireError,
                                 core_form, core_of_wire, decode_message,
                                 encode_message, field_to_bits, with_seed)

fields_strategy = st.lists(st.binary(max_size=40), max_size=6)


def test_encode_decode_round_trip():
    fields = [b"alpha", b"", b"\x00\x01\x02"]
    data = encode_message(3, fields)
    assert data[0] == 3
    assert decode_message(data) == (3, fields)


def test_encode_rejects_bad_type():
    with pytest.raises(WireError):
        encode_message(0, [])
    with pytest.raises(WireError):
        encode_message(9, [])


def test_decode_rejects_malformed_frames():
    good = encode_message(2, [b"ab", b"c"])
    with pytest.raises(WireError):
        decode_message(good + b"\x00")            # trailing byte
    with pytest.raises(WireError):
        decode_message(good[:-1])                 # truncated payload
    with pytest.raises(WireError):
        decode_message(b"\x09" + good[1:])        # unknown type
    with pytest.raises(WireError):
        decode_message(b"\x01\x00\x00")           # short header
    # a corrupted inner field length cannot retile the payload
    broken = bytearray(good)
    broken[8] ^= 0x01                             # first field length
    with pytest.raises(WireError):
        decode_message(bytes(broken))


def test_core_form_empties_only_the_seed_field():
    fields = [b"aa", b"bb", b"cc", b"seedseed", b"dd"]
    core = core_form(2, fields)
    msg_type, stripped = decode_message(core)
    assert msg_type == 2
    assert stripped == [b"aa", b"bb", b"cc", b"", b"dd"]
    # messages without a seed field pass through unchanged
    assert core_form(1, fields) == encode_message(1, fields)
    with pytest.raises(WireError):
        core_form(2, [b"aa"])                     # missing seed field


def test_core_of_wire_matches_core_form():
    fields = [b"x", b"long seed material here"]
    wire = encode_message(4, fields)
    assert core_of_wire(wire) == core_form(4, fields)
    assert SEED_FIELD_INDEX[4] == 1


@given(st.lists(st.binary(max_size=40), min_size=4, max_size=4),
       st.binary(max_size=40))
def test_with_seed_frames_the_message_of_a_core(fields, seed):
    # filling the seed into a framed core gives the message framed whole
    for index in SEED_FIELD_INDEX:
        payload = fields[:len(FIELDS[index]) - 1]
        core = encode_message(index, payload + [b""])
        msg = with_seed(core, seed)
        assert msg == encode_message(index, payload + [seed])
        assert core_of_wire(msg) == core


def test_core_form_is_seed_value_independent():
    # two wires differing only in seed bytes share one core form
    a = encode_message(6, [b"tag", b"\xaa" * 16])
    b = encode_message(6, [b"tag", b"\x55" * 16])
    assert core_of_wire(a) == core_of_wire(b)


def test_field_to_bits_round_trip_and_padding():
    bits = BitString.from_str("101100101")
    assert field_to_bits(bits.to_bytes(), 9) == bits
    with pytest.raises(WireError):
        field_to_bits(bits.to_bytes() + b"\x00", 9)   # extra byte
    with pytest.raises(WireError):
        field_to_bits(b"\xb2\x81", 9)                 # nonzero pad bit
    assert field_to_bits(b"", 0) == BitString()


@given(st.integers(1, 8), fields_strategy)
def test_prop_codec_round_trip(msg_type, fields):
    data = encode_message(msg_type, fields)
    assert decode_message(data) == (msg_type, fields)


@given(st.integers(1, 8), fields_strategy)
def test_prop_core_form_idempotent(msg_type, fields):
    idx = SEED_FIELD_INDEX.get(msg_type)
    if idx is not None and idx >= len(fields):
        fields = fields + [b"?"] * (idx + 1 - len(fields))
    once = core_of_wire(encode_message(msg_type, fields))
    assert core_of_wire(once) == once
