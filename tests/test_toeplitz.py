"""Tests for the seeded Toeplitz hash families and reference extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl.bits import BitString
from qlhl.toeplitz import (ExtractorParams, Family, SeededHash, extract,
                           extract_fast, hash_matrix)


def _bits(rng, length):
    return BitString.from_u8(rng.integers(0, 2, length, dtype=np.uint8))


def _matrix_reference(h: SeededHash, x: BitString) -> BitString:
    out = (hash_matrix(h).astype(np.int64) @ np.array(list(x))) % 2
    return BitString(out.tolist())


def test_params_validation():
    with pytest.raises(ValueError):
        ExtractorParams.modified(4, 5)
    with pytest.raises(ValueError):
        ExtractorParams.modified(0, 1)
    with pytest.raises(ValueError):
        ExtractorParams.modified(4, 0)
    assert ExtractorParams.modified(8, 3).with_output_len(5).output_len == 5


@pytest.mark.parametrize("n, m", [(8.0, 3), (8, 3.0), (8, 2.5), (8, True),
                                  (True, 1), (float("nan"), 3)])
def test_params_refuse_widths_that_are_not_integers(n, m):
    with pytest.raises(ValueError, match="integer numbers of bits"):
        ExtractorParams.modified(n, m)
    with pytest.raises(ValueError, match="integer numbers of bits"):
        ExtractorParams.regular(n, m)


def test_params_take_numpy_integer_widths():
    params = ExtractorParams.modified(np.int64(8), np.int32(3))
    assert params.seed_len == 7


def test_seed_lengths_by_family():
    assert ExtractorParams.modified(10, 4).seed_len == 9
    assert ExtractorParams.regular(10, 4).seed_len == 13
    with pytest.raises(ValueError):
        SeededHash(ExtractorParams.modified(10, 4), BitString.zeros(8))


def test_extract_fixture_small():
    # n=3, m=2, seed 10: H = [[1,1,0],[0,0,1]], so 110 hashes to 00
    h = SeededHash(ExtractorParams.modified(3, 2), BitString.from_str("10"))
    assert extract(h, BitString.from_str("110")).to01() == "00"
    assert extract_fast(h, BitString.from_str("110")).to01() == "00"
    assert hash_matrix(h).tolist() == [[1, 1, 0], [0, 0, 1]]


def test_modified_matrix_entry_rule():
    # entries follow H[i][j] = s[i-j] (i >= j), s[m-1+(j-i)] (i < j),
    # identity at j - K == i, checked index by index
    n, m = 7, 4
    K = n - m
    rng = np.random.default_rng(5)
    for _ in range(10):
        seed = _bits(rng, n - 1)
        mat = hash_matrix(SeededHash(ExtractorParams.modified(n, m), seed))
        for i in range(m):
            for j in range(n):
                if j >= K:
                    want = 1 if j - K == i else 0
                elif i >= j:
                    want = seed[i - j]
                else:
                    want = seed[m - 1 + (j - i)]
                assert mat[i, j] == want


def test_regular_matrix_entry_rule():
    n, m = 6, 3
    rng = np.random.default_rng(6)
    seed = _bits(rng, m + n - 1)
    mat = hash_matrix(SeededHash(ExtractorParams.regular(n, m), seed))
    for i in range(m):
        for j in range(n):
            assert mat[i, j] == seed[i - j + n - 1]


def test_modified_identity_block():
    params = ExtractorParams.modified(9, 4)
    rng = np.random.default_rng(7)
    mat = hash_matrix(SeededHash(params, _bits(rng, params.seed_len)))
    assert np.array_equal(mat[:, 5:], np.eye(4, dtype=np.uint8))


def test_extract_agrees_with_matrix_product():
    rng = np.random.default_rng(8)
    for family in (ExtractorParams.modified, ExtractorParams.regular):
        for _ in range(25):
            n = int(rng.integers(1, 24))
            m = int(rng.integers(1, n + 1))
            params = family(n, m)
            h = SeededHash(params, _bits(rng, params.seed_len))
            x = _bits(rng, n)
            want = _matrix_reference(h, x)
            assert extract(h, x) == want
            assert extract_fast(h, x) == want


def test_extract_rejects_wrong_input_length():
    params = ExtractorParams.modified(8, 3)
    h = SeededHash(params, BitString.zeros(7))
    with pytest.raises(ValueError):
        extract(h, BitString.zeros(9))
    with pytest.raises(ValueError):
        extract_fast(h, BitString.zeros(9))


def test_full_output_equals_input_for_unit_block():
    # K = 0 leaves only the identity part: the hash is the input itself
    params = ExtractorParams.modified(5, 5)
    h = SeededHash(params, BitString.zeros(4))
    x = BitString.from_str("10110")
    assert extract(h, x) == x
    assert extract_fast(h, x) == x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prop_extraction_is_linear(data):
    n = data.draw(st.integers(2, 32))
    m = data.draw(st.integers(1, n))
    params = ExtractorParams.modified(n, m)
    seed = BitString(data.draw(
        st.lists(st.integers(0, 1), min_size=params.seed_len,
                 max_size=params.seed_len)))
    h = SeededHash(params, seed)
    x = BitString(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y = BitString(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assert extract(h, x ^ y) == extract(h, x) ^ extract(h, y)
    assert extract(h, BitString.zeros(n)) == BitString.zeros(m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prop_fast_path_matches_reference(data):
    family = data.draw(st.sampled_from(
        [ExtractorParams.modified, ExtractorParams.regular]))
    n = data.draw(st.integers(1, 200))
    m = data.draw(st.integers(1, n))
    params = family(n, m)
    seed = BitString(data.draw(
        st.lists(st.integers(0, 1), min_size=params.seed_len,
                 max_size=params.seed_len)))
    h = SeededHash(params, seed)
    x = BitString(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assert extract_fast(h, x) == extract(h, x)
