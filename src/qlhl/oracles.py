"""Exact small-size evaluators for hash universality and output distance.

These functions enumerate seeds and inputs exhaustively, so they are the
ground truth that the analytical bounds and the fast kernels are checked
against. All of them refuse sizes past hard guards rather than silently
taking hours.

Both read the seeded block through `toeplitz.block_seed_index`, the one
statement of which seed bit sits at each block entry, and work on all
seeds at once in numpy: the zero-hash probability as one parity per
output row over every seed, the distances from chunks of seeds whose
output distributions come from one `np.bincount` per chunk.

Integer encodings match `bits.BitString`: an L-bit string maps to the
integer whose bit (L-1-q) is string index q (index 0 is the most
significant bit). Distributions over L-bit strings are numpy arrays of
length 2**L indexed by that integer value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .bits import BitString
from .toeplitz import ExtractorParams, block_seed_index

# enumeration guards: seeds are enumerated as 2**seed_len integers and
# inputs as 2**input_len, so both exponents stay small
MAX_COLLISION_SEED_LEN = 22
MAX_COLLISION_INPUT_LEN = 20
MAX_DIST_INPUT_LEN = 12
MAX_DIST_SEED_LEN = 20


def _check_guard(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ValueError(f"{what} {value} exceeds enumeration guard {limit}")


def zero_hash_probability(params: ExtractorParams,
                          delta: BitString) -> Fraction:
    """Exact Pr over uniform seeds that H_s(delta) = 0, by enumeration.

    Output bit i of H_s(delta) is the parity of seed & mask[i], xored
    with delta's tail bit i for [T | I]; mask[i] holds bit d-1-q for each
    seed index q of block row i that a set head bit of delta selects.
    """
    if len(delta) != params.input_len:
        raise ValueError("delta length must equal input_len")
    _check_guard(params.input_len, MAX_COLLISION_INPUT_LEN, "input_len")
    _check_guard(params.seed_len, MAX_COLLISION_SEED_LEN, "seed_len")
    d, m = params.seed_len, params.output_len
    idx = block_seed_index(params)
    K = idx.shape[1]
    head = delta.to_u8()[:K].astype(bool)
    masks = np.bitwise_or.reduce(np.where(head, 1 << (d - 1 - idx), 0),
                                 axis=1)
    # the identity tail (empty for REGULAR) is the affine part of each row
    tail = delta.to_int() & ((1 << (params.input_len - K)) - 1)
    # uint32 holds every seed under the guard and halves the traffic
    seeds = np.arange(1 << d, dtype=np.uint32)
    ok = np.ones(1 << d, dtype=bool)
    for i, mask in enumerate(masks.astype(np.uint32)):
        ok &= (np.bitwise_count(seeds & mask) & 1) == (tail >> (m - 1 - i)) & 1
    return Fraction(int(ok.sum()), 1 << d)


def collision_probability(params: ExtractorParams, x1: BitString,
                          x2: BitString) -> Fraction:
    """Exact Pr over uniform seeds that H_s(x1) = H_s(x2).

    The hash is GF(2)-linear in its input for every seed, so the
    probability depends only on the difference x1 xor x2.
    """
    if len(x1) != params.input_len or len(x2) != params.input_len:
        raise ValueError("inputs must have length input_len")
    if x1 == x2:
        return Fraction(1)
    return zero_hash_probability(params, x1 ^ x2)


def _output_dist_chunks(params: ExtractorParams, input_dist: np.ndarray
                        ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (seeds, dists) for consecutive chunks of seed integers.

    Row r of dists is the exact output distribution under seed seeds[r].
    A chunk holds 2**17 >> n seeds (all of them if fewer), so each step
    touches at most 2**17 (input, seed) pairs whatever the shape.
    """
    n, m, d = params.input_len, params.output_len, params.seed_len
    shifts = (d - 1 - block_seed_index(params)).T[:, :, None]
    tail_len = n - shifts.shape[0]
    row_bits = (1 << (m - 1 - np.arange(m)))[:, None]
    chunk = min(1 << d, (1 << 17) >> n)
    weights = np.repeat(input_dist, chunk)
    for lo in range(0, 1 << d, chunk):
        seeds = np.arange(lo, lo + chunk)
        # block column j as an m-bit int per seed, row i at bit m-1-i
        cols = (((seeds >> shifts) & 1) * row_bits).sum(axis=1)
        # z[x, r] = (r << m) | H_r x by the subset-xor recurrence: bit p
        # of x toggles input column n-1-p, an identity column (1 << p)
        # for the [T | I] tail; the offset r << m gives every (seed,
        # output) pair its own bincount slot
        z = np.empty((1 << n, chunk), dtype=np.intp)
        z[0] = np.arange(chunk) << m
        for p in range(n):
            col = cols[n - 1 - p] if p >= tail_len else 1 << p
            z[1 << p: 2 << p] = z[:1 << p] ^ col
        yield seeds, np.bincount(z.ravel(), weights,
                                 chunk << m).reshape(chunk, 1 << m)


def _check_dist_args(params: ExtractorParams, input_dist: np.ndarray,
                     seed_dist: Optional[np.ndarray]) -> np.ndarray:
    _check_guard(params.input_len, MAX_DIST_INPUT_LEN, "input_len")
    _check_guard(params.seed_len, MAX_DIST_SEED_LEN, "seed_len")
    if input_dist.shape != (1 << params.input_len,):
        raise ValueError("input_dist must have 2**input_len entries")
    if seed_dist is None:
        seed_dist = np.full(1 << params.seed_len,
                            1.0 / (1 << params.seed_len))
    elif seed_dist.shape != (1 << params.seed_len,):
        raise ValueError("seed_dist must have 2**seed_len entries")
    return seed_dist


def exact_extraction_distance(params: ExtractorParams,
                              input_dist: np.ndarray,
                              seed_dist: Optional[np.ndarray] = None
                              ) -> float:
    """Exact distance of (output, seed) from (uniform, seed).

    Computes sum_s P[s] * (1/2) sum_z |P[z | s] - 2**-m|, the trace
    distance between the joint distribution of hash output and seed and
    an ideal uniform output carrying the same seed marginal.

    Args:
        params: hash family and dimensions.
        input_dist: probabilities over all 2**n inputs (integer-indexed).
        seed_dist: optional seed weights, uniform when omitted.

    Returns:
        The joint distance as a float in [0, 1].
    """
    seed_dist = _check_dist_args(params, input_dist, seed_dist)
    u = 1.0 / (1 << params.output_len)
    return 0.5 * sum(float(seed_dist[seeds] @ np.abs(out - u).sum(axis=1))
                     for seeds, out in _output_dist_chunks(params, input_dist))


def exact_output_distance(params: ExtractorParams,
                          input_dist: np.ndarray,
                          seed_dist: Optional[np.ndarray] = None) -> float:
    """Exact distance of the output marginal (seed averaged out) from uniform.

    This is the quantity that stays small even for a nonuniform seed as
    long as the seed's entropy deficit is paid for; it never exceeds the
    joint distance from `exact_extraction_distance`.
    """
    seed_dist = _check_dist_args(params, input_dist, seed_dist)
    mix = sum(seed_dist[seeds] @ out
              for seeds, out in _output_dist_chunks(params, input_dist))
    return 0.5 * float(np.abs(mix - 1.0 / (1 << params.output_len)).sum())


def matrix_rank_gf2(mat: np.ndarray) -> int:
    """Rank of a 0/1 matrix over GF(2) by row elimination."""
    rows = [int.from_bytes(np.packbits(r.astype(np.uint8)).tobytes(), "big")
            for r in np.atleast_2d(mat)]
    pivots: dict[int, int] = {}
    rank = 0
    for r in rows:
        cur = r
        while cur:
            high = cur.bit_length()
            if high in pivots:
                cur ^= pivots[high]
            else:
                pivots[high] = cur
                rank += 1
                break
    return rank
