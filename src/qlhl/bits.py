"""Immutable bit strings and GF(2) primitives.

Conventions (fixed once, used everywhere):

- Bit index 0 is the most significant / leading bit.
- Equality is bitwise and length-sensitive; the empty string is legal.
- Truncation removes trailing bits, i.e. keeps the prefix.
- Serialization is big-endian within bytes; the final byte is zero-padded
  in its low bits.

The binary file format for keys/seeds is:

    8-byte magic "QLHLBITS" | 1-byte version (0x01) |
    8-byte little-endian bit length | ceil(len/8) payload bytes

Values are stored internally as a Python int plus a length, so all bulk
operations (xor, concat, slicing) are word-level rather than per-bit.
This is simulation-grade key handling: no constant-time guarantees and
no secret zeroization.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

QBITS_MAGIC = b"QLHLBITS"
QBITS_VERSION = 0x01


class BitString:
    """An immutable, ordered, finite sequence of bits.

    The universal carrier for keys, seeds, extractor inputs and outputs.
    Bit 0 is the leading (most significant) bit.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, bits: Iterable[int] = ()):
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            # int() keeps numpy scalars from retyping the accumulator
            value = (value << 1) | int(b)
            length += 1
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_length", length)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Build from a non-negative integer whose binary expansion,
        left-padded with zeros to `length` bits, gives the bits MSB-first.
        """
        if length < 0:
            raise ValueError("length must be >= 0")
        return _bitstring(value, length)

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        """Parse a string of '0'/'1' characters (underscores ignored)."""
        s = s.replace("_", "")
        if s and any(c not in "01" for c in s):
            raise ValueError("bit string must contain only 0/1")
        return cls.from_int(int(s, 2) if s else 0, len(s))

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls.from_int(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        return cls.from_int((1 << length) - 1, length) if length else cls()

    @classmethod
    def from_bytes(cls, data: bytes, length: int | None = None) -> "BitString":
        """Interpret bytes big-endian-within-byte; `length` may trim the
        trailing (low) pad bits of the final byte."""
        total = 8 * len(data)
        if length is None:
            length = total
        if not 0 <= length <= total:
            raise ValueError("length out of range for given bytes")
        value = int.from_bytes(data, "big") >> (total - length)
        return cls.from_int(value, length)

    # -- accessors ------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, idx: Union[int, slice]) -> Union[int, "BitString"]:
        n = self._length
        if isinstance(idx, slice):
            start, stop, step = idx.indices(n)
            if step != 1:
                raise ValueError("only unit-step slices are supported")
            if stop <= start:
                return _bitstring(0, 0)
            width = stop - start
            return _bitstring((self._value >> (n - stop)) & ((1 << width) - 1),
                              width)
        if idx < 0:
            idx += n
        if not 0 <= idx < n:
            raise IndexError(f"bit index {idx} out of range for length {n}")
        return (self._value >> (n - 1 - idx)) & 1

    def __iter__(self) -> Iterator[int]:
        n, v = self._length, self._value
        for i in range(n):
            yield (v >> (n - 1 - i)) & 1

    def to_int(self) -> int:
        return self._value

    def to01(self) -> str:
        return format(self._value, f"0{self._length}b") if self._length else ""

    def bit_count(self) -> int:
        return self._value.bit_count()

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __add__(self, other: "BitString") -> "BitString":
        return concat(self, other)

    def __xor__(self, other: "BitString") -> "BitString":
        return xor(self, other)

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{self.to01()}')"
        return f"BitString(len={self._length}, hex={self.to_hex()[:16]}...)"

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Pack big-endian within bytes, zero-padding the low bits of the
        final byte."""
        nbytes = (self._length + 7) // 8
        value = self._value << (8 * nbytes - self._length)
        return value.to_bytes(nbytes, "big")

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    @classmethod
    def from_hex(cls, hexstr: str, length: int) -> "BitString":
        return cls.from_bytes(bytes.fromhex(hexstr), length)

    def to_u8(self) -> np.ndarray:
        """One uint8 per bit, index 0 first (MSB-first order preserved)."""
        if self._length == 0:
            return np.zeros(0, dtype=np.uint8)
        raw = np.frombuffer(self.to_bytes(), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="big")[: self._length]

    @classmethod
    def from_u8(cls, arr: np.ndarray) -> "BitString":
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.size == 0:
            return cls()
        if arr.max(initial=0) > 1:
            raise ValueError("array entries must be 0 or 1")
        packed = np.packbits(arr, bitorder="big")
        return cls.from_bytes(packed.tobytes(), int(arr.size))


# -- free-function operations -----------------------------------------------

def is_bit_count(value) -> bool:
    """Whether `value` can be a number of bits: a Python or numpy integer,
    not a bool.

    A float length fails late, as a TypeError in a shift, and `True`
    passes for one bit; lengths checked here fail early instead.
    """
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _bitstring(value: int, length: int) -> BitString:
    """A BitString of `length` >= 0 bits holding `value`, range-checked.

    The one constructor behind `from_int` and every derived string (slices,
    concatenations, xor, extraction outputs), which pass their operands'
    `_value` and `_length` directly.
    """
    if value < 0 or value >> length:
        raise ValueError(f"value {value} does not fit in {length} bits")
    self = object.__new__(BitString)
    self._value = value
    self._length = length
    return self


def concat(a: BitString, b: BitString) -> BitString:
    """Concatenate: `a` occupies the leading positions of the result."""
    return _bitstring((a._value << b._length) | b._value,
                      a._length + b._length)


def concat_all(parts: Iterable[BitString]) -> BitString:
    value = 0
    length = 0
    for p in parts:
        value = (value << p._length) | p._value
        length += p._length
    return _bitstring(value, length)


def split(x: BitString, at: int) -> Tuple[BitString, BitString]:
    """Split into (leading `at` bits, remainder); inverse of concat."""
    if not 0 <= at <= len(x):
        raise ValueError(f"split point {at} out of range for length {len(x)}")
    return x[:at], x[at:]


def xor(a: BitString, b: BitString) -> BitString:
    """Bitwise exclusive-or of equal-length strings."""
    if a._length != b._length:
        raise ValueError(f"xor length mismatch: {a._length} != {b._length}")
    return _bitstring(a._value ^ b._value, a._length)


def truncate(x: BitString, q: int) -> BitString:
    """Drop the trailing q bits, keeping the leading |x| - q."""
    n = x._length
    if not 0 <= q <= n:
        raise ValueError(f"cannot truncate {q} bits from length {n}")
    return _bitstring(x._value >> q, n - q)


# -- binary file format -------------------------------------------------------


def dump_qbits(x: BitString) -> bytes:
    """Serialize to the QLHLBITS container format."""
    header = QBITS_MAGIC + bytes([QBITS_VERSION]) + len(x).to_bytes(8, "little")
    return header + x.to_bytes()


def load_qbits(data: bytes) -> BitString:
    """Parse the QLHLBITS container format."""
    if len(data) < 17:
        raise ValueError("truncated container: missing header")
    if data[:8] != QBITS_MAGIC:
        raise ValueError("bad magic; not a QLHLBITS file")
    if data[8] != QBITS_VERSION:
        raise ValueError(f"unsupported version {data[8]}")
    length = int.from_bytes(data[9:17], "little")
    payload = data[17:]
    if len(payload) != (length + 7) // 8:
        raise ValueError("payload size does not match recorded bit length")
    return BitString.from_bytes(payload, length)


def write_qbits(path, x: BitString) -> None:
    with open(path, "wb") as f:
        f.write(dump_qbits(x))


def read_qbits(path) -> BitString:
    with open(path, "rb") as f:
        return load_qbits(f.read())
