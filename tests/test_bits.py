"""Tests for the fixed-length bit-string value type and its file format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl.bits import (BitString, concat, concat_all, dump_qbits, load_qbits,
                       read_qbits, split, truncate, write_qbits, xor)

bitlists = st.lists(st.integers(0, 1), max_size=64)


def test_construction_and_indexing():
    x = BitString([1, 0, 1, 1])
    assert len(x) == 4
    assert x[0] == 1 and x[1] == 0
    assert x[1:3] == BitString([0, 1])
    assert list(x) == [1, 0, 1, 1]
    assert x.to01() == "1011"
    assert x.bit_count() == 3


def test_construction_accepts_numpy_scalars():
    # 12 bits of numpy uint8 must not wrap the accumulator at one byte
    bits = np.ones(12, dtype=np.uint8)
    assert BitString(bits).to_int() == (1 << 12) - 1
    with pytest.raises(ValueError):
        BitString([np.float64(0.5)])


def test_from_int_is_big_endian():
    assert BitString.from_int(0b1011, 4).to01() == "1011"
    assert BitString.from_int(1, 3).to01() == "001"
    assert BitString.from_int(0, 0).to01() == ""
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)


def test_int_roundtrip_fixture():
    assert BitString.from_str("10110").to_int() == 22
    assert BitString.from_int(22, 5).to01() == "10110"


def test_bytes_roundtrip_and_padding():
    x = BitString.from_str("101100111")
    data = x.to_bytes()
    assert len(data) == 2
    assert BitString.from_bytes(data, 9) == x
    # full-byte lengths round-trip without an explicit length
    y = BitString.from_bytes(b"\xa5")
    assert y.to01() == "10100101"


def test_hex_roundtrip():
    x = BitString.from_str("1010010111")
    assert BitString.from_hex(x.to_hex(), 10) == x


def test_xor_concat_split():
    a = BitString.from_str("1100")
    b = BitString.from_str("1010")
    assert (a ^ b).to01() == "0110"
    assert xor(a, b) == a ^ b
    assert (a + b).to01() == "11001010"
    assert concat(a, b) == a + b
    assert concat_all([a, b, a]).to01() == "110010101100"
    left, right = split(a + b, 3)
    assert left.to01() == "110" and right.to01() == "01010"
    with pytest.raises(ValueError):
        xor(a, BitString.from_str("110"))


def test_truncate_drops_trailing_bits():
    x = BitString.from_str("110101")
    assert truncate(x, 2).to01() == "1101"
    assert truncate(x, 0) == x
    with pytest.raises(ValueError):
        truncate(x, 7)


def test_u8_roundtrip():
    arr = np.array([1, 0, 0, 1, 1], dtype=np.uint8)
    x = BitString.from_u8(arr)
    assert np.array_equal(x.to_u8(), arr)


def test_qbits_container_roundtrip(tmp_path):
    x = BitString.from_str("10100101110")
    blob = dump_qbits(x)
    assert load_qbits(blob) == x
    path = tmp_path / "x.qbits"
    write_qbits(path, x)
    assert read_qbits(path) == x


def test_qbits_rejects_corrupt_container():
    blob = bytearray(dump_qbits(BitString.from_str("1010")))
    blob[0] ^= 0xFF
    with pytest.raises(ValueError):
        load_qbits(bytes(blob))


@given(bitlists)
def test_prop_bytes_roundtrip(bits):
    x = BitString(bits)
    assert BitString.from_bytes(x.to_bytes(), len(x)) == x


@given(bitlists)
def test_prop_qbits_roundtrip(bits):
    x = BitString(bits)
    assert load_qbits(dump_qbits(x)) == x


@given(bitlists, bitlists)
def test_prop_concat_length_and_order(a_bits, b_bits):
    a, b = BitString(a_bits), BitString(b_bits)
    joined = a + b
    assert len(joined) == len(a) + len(b)
    assert joined[:len(a)] == a and joined[len(a):] == b


@given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
def test_prop_xor_self_is_zero(bits):
    x = BitString(bits)
    assert (x ^ x) == BitString.zeros(len(x))
    assert (x ^ BitString.zeros(len(x))) == x


def _pair(data, max_len=200):
    n = data.draw(st.integers(0, max_len))
    return BitString.from_int(data.draw(st.integers(0, (1 << n) - 1)), n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prop_derived_strings_equal_from_int_results(data):
    a, b = _pair(data), _pair(data)
    n = len(a)
    i = data.draw(st.integers(0, n))
    j = data.draw(st.integers(i, n))
    assert a[i:j] == BitString.from_str(a.to01()[i:j])
    assert a[i:j] == BitString.from_int(
        (a.to_int() >> (n - j)) & ((1 << (j - i)) - 1), j - i)
    assert truncate(a, n - j) == BitString.from_int(a.to_int() >> (n - j), j)
    joined = BitString.from_int((a.to_int() << len(b)) | b.to_int(),
                                n + len(b))
    assert concat(a, b) == joined
    assert concat_all([a, b]) == joined
    assert concat_all([a[:i], a[i:j], a[j:], b]) == joined
    c = BitString.from_int(data.draw(st.integers(0, (1 << n) - 1)), n)
    assert xor(a, c) == BitString.from_int(a.to_int() ^ c.to_int(), n)
    assert BitString.from_str((a ^ c).to01()) == a ^ c


def test_derived_strings_keep_the_range_check():
    from qlhl.bits import _bitstring
    assert _bitstring(5, 3) == BitString.from_int(5, 3)
    for value, length in ((8, 3), (-1, 3), (1, 0)):
        with pytest.raises(ValueError, match="does not fit"):
            _bitstring(value, length)
        with pytest.raises(ValueError, match="does not fit"):
            BitString.from_int(value, length)
    with pytest.raises(ValueError, match="length must be >= 0"):
        BitString.from_int(0, -1)
    with pytest.raises(ValueError, match="xor length mismatch"):
        xor(BitString.zeros(3), BitString.zeros(4))
