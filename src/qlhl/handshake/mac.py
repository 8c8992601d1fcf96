"""One-time authentication from hash-then-pad, plus a chained variant.

One-shot MAC: tag = H_s(msg) xor pad, where H_s is the seed-efficient
[T | I] family and the key (seed plus pad) is fresh per message. For a
message of n bits and a t-bit tag the key costs n - 1 + t bits.

Caveat that shapes the chained variant: [T | I] sends a difference
confined to the last t message bits straight through the identity block,
so for those differences the one-shot tag difference is fixed rather
than uniform: once one tag has been seen, flipping the last message bit
and the last tag bit forges under every key. The one-shot MAC bounds
only impersonation, where a fixed (message, tag) is accepted by 2^-t of
the keys. The chained MAC therefore routes every data bit through the
Toeplitz block:

- the stream is a 64-bit big-endian bit-length header, the message, and
  zero padding to a block boundary, cut into blocks of b data bits;
- per block the t-bit state takes one Galois step (multiplication by x
  modulo a fixed primitive degree-t polynomial, an invertible map) and
  absorbs the block: state' = step(state) xor T . block;
- the tag is the final state xor the pad.

Because the step is invertible, a difference confined to one block
reaches the tag unless T itself annihilates it, which over the seed
happens with probability 2^-t. No such bound holds for differences
spread over several blocks. The step is public and every block meets the
same T, so a flip at bit j of block k and bit j + 1 of block k + 1 leaves
a tag difference that depends on about two seed bits: with t = 8 and
25-bit blocks it collides under about a quarter of the keys, where
(block count) * 2^-t would allow 8 * 2^-8. Against a forger who has seen
a tag the chained MAC, like the one-shot one, has no bound yet; a fixed
(message, tag) is still accepted by 2^-t of the keys, since the pad is
uniform.

The chained key is a single n-bit block: the first n - t bits seed the
compression, the last t bits are the pad. Block data width is
b = n - 2t + 1, so the key must be longer than twice the tag.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import _kernels
from ..bits import BitString
from ..toeplitz import ExtractorParams, SeededHash, extract_fast
# no longer called here; perfbench's tracing still resolves it by this path
from ..toeplitz import hash_matrix  # noqa: F401


class MacKey(NamedTuple):
    """One-shot key halves: the hash seed and the tag pad."""

    hash_seed: BitString
    pad: BitString


def one_shot_key_len(msg_len: int, tag_len: int) -> int:
    """Key bits consumed by one one-shot tag."""
    if msg_len < 1:
        raise ValueError("message must be at least 1 bit")
    if not 1 <= tag_len <= msg_len:
        raise ValueError("tag length must be 1..message length")
    return msg_len - 1 + tag_len


def split_mac_key(key: BitString, msg_len: int, tag_len: int) -> MacKey:
    """Split raw key material into (hash_seed, pad)."""
    need = one_shot_key_len(msg_len, tag_len)
    if len(key) != need:
        raise ValueError(f"one-shot key must be {need} bits for a "
                         f"{msg_len}-bit message and {tag_len}-bit tag, "
                         f"got {len(key)}")
    return MacKey(hash_seed=key[0:msg_len - 1], pad=key[msg_len - 1:need])


def its_mac_auth(key: MacKey, msg: BitString) -> BitString:
    """Tag a message with a fresh one-shot key.

    Args:
        key: (hash_seed, pad) with |hash_seed| = |msg| - 1 and |pad| the
            tag width.
        msg: message bits.

    Returns:
        tag = H_seed(msg) xor pad.
    """
    tag_len = len(key.pad)
    if len(key.hash_seed) != len(msg) - 1:
        raise ValueError(f"hash seed must be {len(msg) - 1} bits for a "
                         f"{len(msg)}-bit message, got {len(key.hash_seed)}")
    if not 1 <= tag_len <= len(msg):
        raise ValueError("pad length must be 1..message length")
    h = SeededHash(ExtractorParams.modified(len(msg), tag_len), key.hash_seed)
    return extract_fast(h, msg) ^ key.pad


def its_mac_verify(key: MacKey, msg: BitString, tag: BitString) -> bool:
    """Check a one-shot tag; the key must match the one used to tag."""
    if len(tag) != len(key.pad):
        return False
    return its_mac_auth(key, msg) == tag


# low coefficients of one primitive polynomial per degree; bit i is the
# x**i coefficient, so e.g. degree 8 -> 0x1d -> x^8+x^4+x^3+x^2+1
_GALOIS_TAPS = {
    1: 0x1, 2: 0x3, 3: 0x3, 4: 0x3, 5: 0x5, 6: 0x3, 7: 0x3, 8: 0x1d,
    9: 0x11, 10: 0x9, 11: 0x5, 12: 0x53, 13: 0x1b, 14: 0x2b, 15: 0x3,
    16: 0x2d, 17: 0x9, 18: 0x27, 19: 0x27, 20: 0x9, 21: 0x5, 22: 0x3,
    23: 0x21, 24: 0x1b, 25: 0x9, 26: 0x47, 27: 0x27, 28: 0x9, 29: 0x5,
    30: 0x53, 31: 0x9, 32: 0xaf, 33: 0x53, 34: 0xe7, 35: 0x5, 36: 0x77,
    37: 0x3f, 38: 0x63, 39: 0x11, 40: 0x39, 41: 0x9, 42: 0x3f, 43: 0x59,
    44: 0x65, 45: 0x1b, 46: 0x12f, 47: 0x21, 48: 0xb7, 49: 0x71, 50: 0x1d,
    51: 0x4b, 52: 0x9, 53: 0x47, 54: 0x7d, 55: 0x47, 56: 0x95, 57: 0x2d,
    58: 0x63, 59: 0x7b, 60: 0x3, 61: 0x27, 62: 0x69, 63: 0x3, 64: 0x1b,
}


def transcript_mac_block_bits(key_len: int, tag_len: int) -> int:
    """Data bits consumed per compression block."""
    b = key_len - 2 * tag_len + 1
    if b < 1:
        raise ValueError(
            f"chained MAC needs key length >= 2 * tag length "
            f"(got key {key_len}, tag {tag_len})")
    return b


def _toeplitz_columns(seed: int, t: int, b: int) -> np.ndarray:
    """The t x b Toeplitz block of the seeded [T | I] hash on b + t bits,
    as a (b,) uint64 array of t-bit columns with row i at bit i.

    `seed` holds the b + t - 1 seed bits as an int, MSB first. Entry
    (i, j) is seed bit i - j on and below the diagonal and t - 1 + j - i
    above it, so column j, read from row t - 1 down to row 0, is the
    window ar[j : j + t] of ar = seed[t-1::-1] || seed[t:].
    """
    width = b + t - 1
    tail = b - 1
    ar = (_kernels._reverse(seed >> tail, t) << tail) | (
        seed & ((1 << tail) - 1))
    # copy s of ar, shifted left by s bits, holds the window of column
    # 8k + s in the big-endian word at its byte k
    nbytes = (b + 7) // 8
    size = nbytes + 8
    ar <<= 8 * size - width
    full = (1 << 8 * size) - 1
    buf = b"".join(((ar << s) & full).to_bytes(size, "big") for s in range(8))
    words = np.ndarray((nbytes, 8), ">u8", buf, strides=(1, size))
    return (words.astype(np.uint64) >> np.uint64(64 - t)).ravel()[:b]


# right shifts that take block 8 i + r's bytes out of the big-endian
# 64-bit words of the one-call gather, one column per b mod 8
_WORD_SHIFTS = tuple(56 - e * np.arange(8, dtype=np.uint64)[:, None]
                     for e in range(8))
# framed length from which the eight-window gather is the faster one
_WINDOW_BYTES = 24 << 10


def _framed_store(size: int, b: int) -> np.ndarray:
    """This thread's kept array "framed", sized for `size` framed bytes:
    whole groups of 8 blocks of b bits, b bytes a group, and the 8 bytes
    past them that the 64-bit word view reads."""
    return _kernels._kept("framed", -(-size // b) * b + 8, np.uint8)


def _framed(message: bytes, b: int) -> np.ndarray:
    """The 64-bit big-endian bit-length header and the message, written
    straight into the kept array `_message_blocks` gathers b-bit blocks
    from, zero-padded past them: the framed bytes without a copy of the
    message of their own. A view of the first 8 + len(message) bytes,
    valid until the thread's next call."""
    size = 8 + len(message)
    data = _framed_store(size, b)
    view = data.data        # a memoryview copies bytes in with less work
    view[:8] = (8 * len(message)).to_bytes(8, "big")
    view[8:size] = message
    data[size:] = 0
    return data[:size]


def _message_blocks(framed: bytes, b: int) -> np.ndarray:
    """The framed bits, zero-padded to whole blocks of b bits, as an
    (nblocks, ceil(b / 8)) uint8 matrix of each block's bytes, MSB first.

    Block k = 8 i + r starts at bit 8 i b + r b of the framed bytes, so
    its byte j is bits r b mod 8 .. r b mod 8 + 7 of the big-endian
    16-bit word at byte i b + r b // 8 + j. Two gathers fill the matrix,
    chosen by the framed length alone:

    - below _WINDOW_BYTES, one right shift of one strided view of
      big-endian 64-bit words over (i, r, j). With q = b // 8 and
      e = b mod 8, the word at byte i b + r q + j holds the byte at bits
      r e .. r e + 7 (r e <= 49), so the view has strides (b, q, 1) and
      the shifts are 56 - r e;
    - from _WINDOW_BYTES on, eight right shifts, one per phase r, of a
      (groups, ceil(b / 8)) view of big-endian 16-bit words at byte
      offset r b // 8 with strides (b, 1), each by 8 - r b mod 8 and
      cast into the matrix's column r.

    Numpy buffers both unaligned byte-swapped views, at about 1.5 ns per
    output byte for the 64-bit words and half that for the 16-bit ones,
    but the eight calls cost about 15 us more. Timed one against the
    other (best of 7 loops of 100, b from 9 to 4,001 and framed lengths
    of 16 to 32 KB) they break even at 20 to 28 KB, 24 KB for the
    385-bit blocks of a 512-bit key with 64-bit tags; a 256 KB tag's
    gather falls from about 380 to 210 us. No handshake transcript
    reaches 4 KB, so every handshake tag takes the one-call shift.

    The bits past b in a block's last byte are those of the next block,
    or zero; `_kernels.chained_mac` ignores them.

    The matrix, whose rows are kept for whole groups of 8 blocks, and the
    zero-padded copy of the framed bytes are views of the calling
    thread's kept arrays "blocks" and "framed" in the kernels' store
    (_kernels._kept), valid until the thread's next call;
    `_kernels.chained_mac` drops the store as it returns if its arrays
    pass _kernels._KEPT_BYTES. A padded copy allocated per call took 64
    page faults on every 256 KB tag; kept, it takes none. Framed bytes
    that `_framed` already wrote into the kept array are not copied.
    """
    width, nblocks = (b + 7) // 8, -(-len(framed) * 8 // b)
    data = _framed_store(len(framed), b)
    if getattr(framed, "base", None) is not data.base:
        data[:len(framed)] = np.frombuffer(framed, dtype=np.uint8)
        data[len(framed):] = 0
    groups = -(-nblocks // 8)
    blocks = _kernels._kept("blocks", groups * 8 * width,
                            np.uint8).reshape(groups, 8, width)
    if len(framed) < _WINDOW_BYTES:
        words = np.ndarray((groups, 8, width), ">u8", data, 0,
                           (b, b // 8, 1))
        np.right_shift(words, _WORD_SHIFTS[b % 8], out=blocks,
                       casting="unsafe")
    else:
        for r in range(8):
            start, shift = divmod(r * b, 8)
            words = np.ndarray((groups, width), ">u2", data, start, (b, 1))
            np.right_shift(words, 8 - shift, out=blocks[:, r],
                           casting="unsafe")
    return blocks.reshape(-1, width)[:nblocks]


def transcript_mac(fk: BitString, message: bytes, tag_len: int) -> BitString:
    """Tag arbitrary-length bytes with one n-bit one-time key.

    Args:
        fk: fresh key material; its length n fixes the block geometry.
        message: bytes to authenticate.
        tag_len: tag width t, at most 64 bits.

    Returns:
        The t-bit tag.
    """
    n = len(fk)
    t = tag_len
    if not 1 <= t <= 64:
        raise ValueError("tag length must be 1..64 bits")
    b = transcript_mac_block_bits(n, t)
    columns = _toeplitz_columns(fk.to_int() >> t, t, b)
    blocks = _message_blocks(_framed(message, b), b)
    state = _kernels.chained_mac(columns, blocks, t, _GALOIS_TAPS[t])
    # tag bit i is state bit i
    return BitString.from_int(_kernels._reverse(state, t), t) ^ fk[n - t:n]


def transcript_mac_verify(fk: BitString, message: bytes,
                          tag: BitString) -> bool:
    """Check a chained tag computed with the same key.

    The tag width t is taken from len(tag), so a 1-bit tag is checked as
    a 1-bit MAC: a caller that expects t bits must check the length.
    """
    return transcript_mac(fk, message, len(tag)) == tag
