"""Seeded universal hashing with binary Toeplitz matrices.

Two families are provided, both 2-universal over GF(2):

- REGULAR: the full m x n Toeplitz matrix T with T[i][j] = s[i-j+n-1],
  needing a seed of m + n - 1 bits;
- MODIFIED: the concatenation H = [T | I_m] of an m x (n-m) Toeplitz
  block and the m x m identity, needing only n - 1 seed bits. Its
  output is T . x_head xor x_tail, so hashing costs one short Toeplitz
  product regardless of m.

Matrix entries for the modified family (K = n - m block columns):

    H[i][j] = 1 iff j - K == i            for j >= K   (identity part)
    H[i][j] = s[i - j]                    for j < K, i >= j
    H[i][j] = s[m - 1 + (j - i)]          for j < K, i < j

`block_seed_index` states this layout once, as the array of seed
indices of the block; `hash_matrix` and the exhaustive `oracles` read
the seed through it.

`extract` is a straightforward arbitrary-precision implementation used
as the reference; `extract_fast` hands the seed's and the input's ints
to `_kernels`, which computes the same product by whichever of row
parities, four-Russians nibble column tables, numpy byte column tables
or a checked float64 FFT its cost model finds cheapest for the shape.
The first three are exact integer forms; the FFT is exact by a written
error bound and a rounding guard checked on every call. Both functions
return identical bits for identical arguments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bits import BitString, _bitstring, is_bit_count


class Family(enum.Enum):
    """Hash family selector."""

    REGULAR = "regular"
    MODIFIED = "modified"


@dataclass(frozen=True)
class ExtractorParams:
    """Shape of one seeded extraction: family, input and output widths.

    Attributes:
        family: which Toeplitz construction to use.
        input_len: n, the number of input bits.
        output_len: m, the number of output bits.

    Both widths are integers (a Python or numpy int, not a bool).
    """

    family: Family
    input_len: int
    output_len: int

    def __post_init__(self) -> None:
        if not (is_bit_count(self.input_len)
                and is_bit_count(self.output_len)):
            raise ValueError(f"widths must be integer numbers of bits, got "
                             f"input_len={self.input_len!r}, "
                             f"output_len={self.output_len!r}")
        if self.input_len < 1:
            raise ValueError("input_len must be >= 1")
        if self.output_len < 1:
            raise ValueError("output_len must be >= 1")
        if self.output_len > self.input_len:
            raise ValueError("output_len must not exceed input_len")

    @classmethod
    def modified(cls, input_len: int, output_len: int) -> "ExtractorParams":
        return cls(Family.MODIFIED, input_len, output_len)

    @classmethod
    def regular(cls, input_len: int, output_len: int) -> "ExtractorParams":
        return cls(Family.REGULAR, input_len, output_len)

    @property
    def seed_len(self) -> int:
        """Seed bits consumed by one hash from this family."""
        if self.family is Family.MODIFIED:
            return self.input_len - 1
        return self.output_len + self.input_len - 1

    def with_output_len(self, output_len: int) -> "ExtractorParams":
        return ExtractorParams(self.family, self.input_len, output_len)


@dataclass(frozen=True)
class SeededHash:
    """One concrete hash function: parameters plus the seed that picks it."""

    params: ExtractorParams
    seed: BitString

    def __post_init__(self) -> None:
        if len(self.seed) != self.params.seed_len:
            raise ValueError(
                f"seed must be {self.params.seed_len} bits for "
                f"{self.params.family.value} (n={self.params.input_len}, "
                f"m={self.params.output_len}), got {len(self.seed)}")


def block_seed_index(params: ExtractorParams) -> np.ndarray:
    """Seed index of every Toeplitz block entry, as an m x K int array.

    Entry [i, j] is the seed position q with T[i][j] = s[q]; K is n - m
    for MODIFIED (the block left of the identity) and n for REGULAR.
    This is the one statement of the layout that `hash_matrix` and the
    `oracles` enumerators read.
    """
    m = params.output_len
    if params.family is Family.REGULAR:
        n = params.input_len
        return np.subtract.outer(np.arange(m), np.arange(n)) + n - 1
    diff = np.subtract.outer(np.arange(m), np.arange(params.input_len - m))
    return np.where(diff >= 0, diff, m - 1 - diff)


def hash_matrix(h: SeededHash) -> np.ndarray:
    """Materialize the full hash matrix as an m x n 0/1 uint8 array.

    Intended for inspection and small-size cross-checks; costs O(n * m)
    memory, so keep n modest.
    """
    block = h.seed.to_u8()[block_seed_index(h.params)]
    if h.params.family is Family.REGULAR:
        return block
    return np.hstack([block, np.eye(h.params.output_len, dtype=np.uint8)])


def extract(h: SeededHash, x: BitString) -> BitString:
    """Hash input bits with the seeded matrix (reference implementation).

    Walks the Toeplitz block one row per output bit using Python integer
    registers. Independent of the convolution kernels in `_kernels`.

    Args:
        h: the seeded hash to apply.
        x: input of exactly h.params.input_len bits.

    Returns:
        The m-bit output H_s . x over GF(2).
    """
    n = h.params.input_len
    m = h.params.output_len
    if len(x) != n:
        raise ValueError(f"input must be {n} bits, got {len(x)}")
    s = h.seed
    x_int = x.to_int()
    if h.params.family is Family.MODIFIED:
        K = n - m
        x_tail = x_int & ((1 << m) - 1)
        if K == 0:
            return BitString.from_int(x_tail, m)
        x_head = x_int >> m
        # row register bit (K-1-j) holds block entry T[i][j]; stepping a
        # row shifts right and feeds the next first-column bit s[i+1] in
        # at the top
        row = s[0] << (K - 1)
        for j in range(1, K):
            row |= s[m - 1 + j] << (K - 1 - j)
        z = 0
        for i in range(m):
            bit = ((row & x_head).bit_count() & 1) ^ ((x_tail >> (m - 1 - i))
                                                      & 1)
            z = (z << 1) | bit
            if i + 1 < m:
                row = (row >> 1) | (s[i + 1] << (K - 1))
        return BitString.from_int(z, m)
    # regular family: register bit (n-1-j) holds T[i][j]
    row = 0
    for j in range(n):
        row |= s[n - 1 - j] << (n - 1 - j)
    z = 0
    for i in range(m):
        z = (z << 1) | ((row & x_int).bit_count() & 1)
        if i + 1 < m:
            row = (row >> 1) | (s[n + i] << (n - 1))
    return BitString.from_int(z, m)


def extract_fast(h: SeededHash, x: BitString) -> BitString:
    """Hash input bits with the fast GF(2) Toeplitz kernel.

    Works on the ints the BitStrings hold, without unpacking them to one
    byte per bit. Bit-identical to `extract`; see `_kernels` for the
    exact forms (row parities, nibble column tables, byte column tables
    in numpy), the FFT form with the error bound that makes it exact,
    and the cost model that picks one.
    """
    params = h.params
    n = params.input_len
    m = params.output_len
    if x._length != n:
        raise ValueError(f"input must be {n} bits, got {x._length}")
    out = _kernels.matvec_bits(params.family is Family.MODIFIED,
                               h.seed._value, n, m, x._value)
    return _bitstring(out, m)
