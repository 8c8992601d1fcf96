"""Tests for security-level arithmetic and the source accounting ledger."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl.ledger import (EntropyKind, IndependenceError, SecurityLevel,
                         SourceSpec, concat_sources, eps_add, eps_sum,
                         kv_format, kv_parse, leak, source_from_kv,
                         source_to_kv, split_secure, truncate_source)

levels = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)


def test_security_level_basics():
    a = SecurityLevel(32.0)
    assert a.eps == 2.0 ** -32
    assert SecurityLevel.from_eps(0.25).neg_log2 == 2.0
    assert SecurityLevel.exp2(10).neg_log2 == 10.0
    assert SecurityLevel.zero().is_zero
    assert str(a) == "2^-32"
    assert str(SecurityLevel.zero()) == "0"
    with pytest.raises(ValueError):
        SecurityLevel(-1.0)
    for eps in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            SecurityLevel.from_eps(eps)


def test_eps_add_oracle_value():
    # 2^-10 + 2^-12 = 5 * 2^-12, and -log2(5 * 2^-12) = 12 - log2(5)
    got = eps_add(SecurityLevel(10.0), SecurityLevel(12.0))
    assert got.neg_log2 == pytest.approx(9.678071905112638, abs=1e-12)


def test_eps_add_equal_terms_lose_one_bit():
    got = eps_add(SecurityLevel(20.0), SecurityLevel(20.0))
    assert got.neg_log2 == pytest.approx(19.0, abs=1e-12)


def test_eps_add_zero_identity_and_clamp():
    a = SecurityLevel(17.5)
    assert eps_add(a, SecurityLevel.zero()).neg_log2 == a.neg_log2
    # two eps values summing above 1 clamp at neg_log2 = 0
    assert eps_add(SecurityLevel(0.5), SecurityLevel(0.5)).neg_log2 == 0.0


def test_eps_sum_matches_pairwise():
    parts = [SecurityLevel(16.0)] * 4
    assert eps_sum(parts).neg_log2 == pytest.approx(14.0, abs=1e-12)


def test_ordering_compares_eps_not_exponent():
    small = SecurityLevel(64.0)   # smaller eps
    large = SecurityLevel(8.0)
    assert small < large and small <= large
    assert not large < small


@given(levels, levels)
def test_prop_eps_add_commutes_and_dominates(x, y):
    a, b = SecurityLevel(x), SecurityLevel(y)
    ab, ba = eps_add(a, b), eps_add(b, a)
    assert ab.neg_log2 == pytest.approx(ba.neg_log2, rel=1e-12)
    # the sum is at least as large an eps as either term
    assert ab.neg_log2 <= min(x, y) + 1e-9


@given(levels, levels)
def test_prop_eps_add_matches_float_path(x, y):
    got = eps_add(SecurityLevel(x), SecurityLevel(y)).eps
    assert got == pytest.approx(min(1.0, 2.0 ** -x + 2.0 ** -y), rel=1e-9)


def test_entropy_kind_join_keeps_weaker_guarantee():
    assert EntropyKind.MIN.combine(EntropyKind.SMOOTH) == EntropyKind.SMOOTH
    assert EntropyKind.SMOOTH.combine(EntropyKind.HILL) == EntropyKind.HILL
    assert EntropyKind.MIN.combine(EntropyKind.MIN) == EntropyKind.MIN
    assert EntropyKind.from_name("smooth") == EntropyKind.SMOOTH


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec("x", 8, 9.0, SecurityLevel.zero())
    with pytest.raises(ValueError):
        SourceSpec("x", -1, 0.0, SecurityLevel.zero())
    spec = SourceSpec.secure("k", 16, SecurityLevel(32.0))
    assert spec.is_secure and spec.hmin == 16.0


@pytest.mark.parametrize("length", [True, False, 2.5, 3.0, math.inf,
                                    math.nan])
def test_source_spec_refuses_a_length_that_is_not_an_integer(length):
    # True once built a 1-bit spec whose length hashed and compared equal
    # to 1, and 2.5 and inf passed the range check
    with pytest.raises(ValueError, match="length must be an integer"):
        SourceSpec("x", length, 0.0, SecurityLevel.zero())
    with pytest.raises(ValueError, match="length must be an integer"):
        SourceSpec.secure("x", length, SecurityLevel.zero())


def test_source_spec_takes_numpy_integer_lengths():
    assert SourceSpec.secure("x", np.int64(12), SecurityLevel.zero()) == \
        SourceSpec.secure("x", 12, SecurityLevel.zero())


def test_concat_requires_independence_assertion():
    a = SourceSpec.secure("a", 4, SecurityLevel(10.0))
    b = SourceSpec.secure("b", 6, SecurityLevel(12.0))
    with pytest.raises(IndependenceError):
        concat_sources(a, b)
    joined = concat_sources(a, b, independent=True)
    assert joined.length == 10 and joined.hmin == 10.0
    assert joined.eps.neg_log2 == pytest.approx(9.678071905112638, abs=1e-12)


def test_split_secure_round_trips_lengths():
    spec = SourceSpec.secure("k", 10, SecurityLevel(20.0))
    left, right = split_secure(spec, 3)
    assert (left.length, right.length) == (3, 7)
    assert left.is_secure and right.is_secure
    weak = SourceSpec("w", 10, 5.0, SecurityLevel(20.0))
    with pytest.raises(ValueError):
        split_secure(weak, 3)


def test_truncate_and_leak_are_worst_case():
    spec = SourceSpec("w", 10, 7.0, SecurityLevel(20.0))
    assert truncate_source(spec, 4).hmin == 3.0
    assert truncate_source(spec, 4).length == 6
    assert leak(spec, 2.0).hmin == 5.0
    assert leak(spec, 100.0).hmin == 0.0
    with pytest.raises(ValueError):
        truncate_source(spec, 11)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            leak(spec, bad)


def test_kv_format_round_trip():
    doc = {"alpha": "1/2", "n": 12, "ok": True, "eps": 2.5e-10}
    parsed = kv_parse(kv_format(doc))
    assert parsed["alpha"] == "1/2"
    assert int(parsed["n"]) == 12


def test_kv_format_keeps_the_sign_of_an_infinity():
    # -inf was written as inf: an infeasible bound's raw length read as
    # an infinite one
    parsed = kv_parse(kv_format({"up": math.inf, "down": -math.inf}))
    assert float(parsed["up"]) == math.inf
    assert float(parsed["down"]) == -math.inf


def test_source_kv_round_trip():
    spec = SourceSpec("qkd", 256, 254.5, SecurityLevel(64.0),
                      EntropyKind.SMOOTH)
    back = source_from_kv(source_to_kv(spec))
    assert back.label == spec.label
    assert back.length == spec.length
    assert back.hmin == pytest.approx(spec.hmin)
    assert back.eps.neg_log2 == pytest.approx(spec.eps.neg_log2)
    assert back.kind == spec.kind


@given(st.integers(0, 64), st.integers(0, 64))
def test_prop_concat_adds_lengths(la, lb):
    a = SourceSpec.secure("a", la, SecurityLevel(30.0))
    b = SourceSpec.secure("b", lb, SecurityLevel(30.0))
    joined = concat_sources(a, b, independent=True)
    assert joined.length == la + lb
    assert joined.hmin == float(la + lb)


def test_source_from_kv_names_a_missing_key():
    for missing in ("length_bits", "hmin_bits"):
        record = {"label": "qkd", "length_bits": 8, "hmin_bits": 6}
        del record[missing]
        with pytest.raises(ValueError, match=missing):
            source_from_kv(kv_format(record))


def test_negative_zero_level_is_stored_as_zero():
    level = SecurityLevel(-0.0)
    assert math.copysign(1.0, level.neg_log2) == 1.0
    assert str(level) == "2^-0"
    assert str(SecurityLevel.exp2(-0.0)) == "2^-0"
    # a zero term leaves the other operand as it is, so no -0.0 survives
    # a sum either
    total = eps_sum([SecurityLevel(-0.0), SecurityLevel.zero()])
    assert math.copysign(1.0, total.neg_log2) == 1.0
    assert SecurityLevel(0).neg_log2 == 0


def _pairwise_add(x, y):
    """-log2 of a two-term eps sum, as the pairwise eps_add computed it."""
    if x > y:
        x, y = y, x
    if math.isinf(x):
        return math.inf
    return max(0.0, x - math.log2(1.0 + 2.0 ** (x - y)))


# zero, integer, fractional and near-1 levels (whose sums clamp at 0)
fold_levels = st.one_of(
    st.just(math.inf),
    st.integers(0, 128),
    st.integers(0, 128).map(float),
    st.floats(min_value=0.0, max_value=128.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(fold_levels, min_size=1, max_size=6))
def test_prop_eps_sum_is_the_pairwise_left_fold(values):
    levels = [SecurityLevel(v) for v in values]
    want = functools.reduce(_pairwise_add, [lv.neg_log2 for lv in levels])
    assert eps_sum(levels).neg_log2 == want
    assert functools.reduce(eps_add, levels).neg_log2 == want
    assert functools.reduce(lambda a, b: a + b, levels).neg_log2 == want


def test_eps_sum_covers_zero_and_clamped_terms():
    zero = SecurityLevel.zero()
    assert eps_sum([]).is_zero()
    assert eps_sum([zero, zero]).is_zero()
    assert eps_sum([zero, SecurityLevel(17.5), zero]).neg_log2 == 17.5
    assert eps_sum([SecurityLevel(64)]).neg_log2 == 64.0
    # 2^-0.5 * 3 > 1 clamps at 0 on the second step and stays there
    half = SecurityLevel(0.5)
    assert eps_sum([half, half, half]).neg_log2 == 0.0
