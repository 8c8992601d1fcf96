"""Tests for the exhaustive enumeration oracles on desk-size instances."""

from fractions import Fraction

import numpy as np
import pytest

from qlhl.bits import BitString
from qlhl.oracles import (collision_probability, exact_extraction_distance,
                          exact_output_distance, matrix_rank_gf2,
                          zero_hash_probability)
from qlhl.toeplitz import ExtractorParams, SeededHash, extract, hash_matrix


def test_zero_hash_probability_hand_values_n2():
    # n=2, m=1: the single matrix row is [s0, 1]
    params = ExtractorParams.modified(2, 1)
    assert zero_hash_probability(params, BitString.from_str("10")) == \
        Fraction(1, 2)
    assert zero_hash_probability(params, BitString.from_str("01")) == 0
    assert zero_hash_probability(params, BitString.from_str("11")) == \
        Fraction(1, 2)


def test_zero_hash_probability_hand_values_n3():
    # n=3, m=1: row is [s0, s1, 1]
    params = ExtractorParams.modified(3, 1)
    assert zero_hash_probability(params, BitString.from_str("100")) == \
        Fraction(1, 2)
    assert zero_hash_probability(params, BitString.from_str("110")) == \
        Fraction(1, 2)
    assert zero_hash_probability(params, BitString.from_str("001")) == 0
    assert zero_hash_probability(params, BitString.from_str("101")) == \
        Fraction(1, 2)


def test_zero_hash_matches_direct_seed_enumeration():
    params = ExtractorParams.modified(5, 3)
    rng = np.random.default_rng(21)
    for _ in range(10):
        delta = BitString.from_u8(rng.integers(0, 2, 5, dtype=np.uint8))
        if delta.bit_count() == 0:
            continue
        hits = 0
        for sv in range(1 << params.seed_len):
            h = SeededHash(params, BitString.from_int(sv, params.seed_len))
            if extract(h, delta).to_int() == 0:
                hits += 1
        assert zero_hash_probability(params, delta) == \
            Fraction(hits, 1 << params.seed_len)


def test_collision_probability_reduces_to_difference():
    params = ExtractorParams.modified(4, 2)
    x1 = BitString.from_str("1010")
    x2 = BitString.from_str("0110")
    assert collision_probability(params, x1, x2) == \
        zero_hash_probability(params, x1 ^ x2)
    assert collision_probability(params, x1, x1) == 1


def test_oracle_guards_reject_large_instances():
    with pytest.raises(ValueError):
        zero_hash_probability(ExtractorParams.modified(24, 4),
                              BitString.ones(24))
    with pytest.raises(ValueError):
        exact_extraction_distance(ExtractorParams.modified(16, 4),
                                  np.full(1 << 16, 2.0 ** -16))


def test_point_mass_input_has_distance_one_minus_uniform():
    # a deterministic input gives a deterministic output for every seed
    for m in (1, 2, 3):
        params = ExtractorParams.modified(4, m)
        dist = np.zeros(16)
        dist[11] = 1.0
        got = exact_extraction_distance(params, dist)
        assert got == pytest.approx(1.0 - 2.0 ** -m, abs=1e-12)


def test_uniform_input_extracts_perfectly():
    # the identity block makes every seeded matrix surjective, so a
    # uniform input gives a uniform output under every seed
    params = ExtractorParams.modified(6, 3)
    dist = np.full(64, 1.0 / 64)
    assert exact_extraction_distance(params, dist) == pytest.approx(0.0,
                                                                    abs=1e-15)


def test_flat_subspace_hand_value():
    # n=2, m=1, input uniform on {00, 10}: row [s0, 1] maps it to
    # {0, s0}, uniform when s0 = 1, constant when s0 = 0
    params = ExtractorParams.modified(2, 1)
    dist = np.zeros(4)
    dist[0b00] = 0.5
    dist[0b10] = 0.5
    got = exact_extraction_distance(params, dist)
    assert got == pytest.approx(0.25, abs=1e-15)


def test_output_distance_never_exceeds_joint_distance():
    rng = np.random.default_rng(22)
    params = ExtractorParams.modified(6, 2)
    for _ in range(10):
        raw = rng.random(64)
        dist = raw / raw.sum()
        joint = exact_extraction_distance(params, dist)
        marginal = exact_output_distance(params, dist)
        assert marginal <= joint + 1e-12


def test_seed_dist_defaults_to_uniform():
    params = ExtractorParams.modified(5, 2)
    rng = np.random.default_rng(23)
    raw = rng.random(32)
    dist = raw / raw.sum()
    uniform = np.full(1 << params.seed_len, 2.0 ** -params.seed_len)
    assert exact_extraction_distance(params, dist) == pytest.approx(
        exact_extraction_distance(params, dist, uniform), abs=1e-14)


def test_matrix_rank_gf2_hand_values():
    assert matrix_rank_gf2(np.eye(4, dtype=np.uint8)) == 4
    assert matrix_rank_gf2(np.zeros((3, 5), dtype=np.uint8)) == 0
    dep = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    assert matrix_rank_gf2(dep) == 2


def test_every_seed_gives_full_rank_matrix():
    # surjectivity of the [T | I] family for all seeds at n=5
    for m in range(1, 6):
        params = ExtractorParams.modified(5, m)
        for sv in range(1 << params.seed_len):
            h = SeededHash(params, BitString.from_int(sv, params.seed_len))
            assert matrix_rank_gf2(hash_matrix(h)) == m


def _brute_force_outputs(params):
    """out[s, x] = extract under seed integer s of input integer x."""
    n, d = params.input_len, params.seed_len
    return np.array([[extract(SeededHash(params, BitString.from_int(s, d)),
                              BitString.from_int(x, n)).to_int()
                      for x in range(1 << n)] for s in range(1 << d)])


_SMALL_SHAPES = [(family, n, m) for family in ("modified", "regular")
                 for n in range(1, 6) for m in range(1, n + 1)]


@pytest.mark.parametrize("family,n,m", _SMALL_SHAPES)
def test_oracles_match_brute_force_through_extract(family, n, m):
    params = getattr(ExtractorParams, family)(n, m)
    out = _brute_force_outputs(params)
    seeds = 1 << params.seed_len
    for delta in range(1 << n):
        hits = int((out[:, delta] == 0).sum())
        assert zero_hash_probability(
            params, BitString.from_int(delta, n)) == Fraction(hits, seeds)
    if n > 4:
        return
    rng = np.random.default_rng(100 * n + m)
    for trial in range(3):
        dist = rng.random(1 << n)
        dist /= dist.sum()
        seed_dist = None
        weights = np.full(seeds, 1.0 / seeds)
        if trial:
            seed_dist = rng.random(seeds)
            seed_dist /= seed_dist.sum()
            weights = seed_dist
        per_seed = np.array([np.bincount(row, dist, minlength=1 << m)
                             for row in out])
        joint = float(weights @ (0.5 * np.abs(per_seed - 2.0 ** -m).sum(1)))
        marginal = 0.5 * float(np.abs(weights @ per_seed - 2.0 ** -m).sum())
        assert exact_extraction_distance(params, dist, seed_dist) == \
            pytest.approx(joint, abs=1e-12)
        assert exact_output_distance(params, dist, seed_dist) == \
            pytest.approx(marginal, abs=1e-12)
