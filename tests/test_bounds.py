"""Tests for output-length bound arithmetic and the alpha key split."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qlhl.bounds import (AlphaPartition, ThreatCase, alpha_partition,
                         combine_case_bound, public_seed_bound,
                         public_seed_bound_many, qlhl_basic, qlhl_general,
                         qlhl_weak_seed_penalized, report_to_kv_dict,
                         required_hmin)
from qlhl.ledger import SecurityLevel

Z = SecurityLevel.zero()
E32 = SecurityLevel(32.0)
E16 = SecurityLevel(16.0)

entropies = st.floats(min_value=0.0, max_value=4096.0, allow_nan=False)
exponents = st.floats(min_value=0.0, max_value=256.0, allow_nan=False)


def test_basic_bound_fixtures():
    assert qlhl_basic(100, Z, E32).max_output_len == 38
    assert qlhl_basic(384, Z, E32).max_output_len == 322
    r = qlhl_basic(100, Z, E32)
    assert r.feasible
    assert r.out_eps.neg_log2 == pytest.approx(32.0)


def test_basic_bound_infeasible_below_penalty():
    r = qlhl_basic(10, Z, E32)
    assert r.max_output_len == -1
    assert not r.feasible


def test_weak_seed_fixture_pays_gap_twice():
    r = qlhl_weak_seed_penalized(100, Z, seed_len=63, hmin_seed=60,
                                 eps_target=E16)
    assert r.max_output_len == 64
    assert r.terms["seed_gap_lambda"] == 3.0


def test_general_bound_fixture():
    r = qlhl_general(80, Z, hmin_seed=50, eps_seed=Z, seed_len=63,
                     eps_hash=SecurityLevel(20.0))
    assert r.max_output_len == 29


def test_general_never_below_weak_seed():
    cases = [(100, 63, 60, 16.0), (200, 99, 91, 32.0), (50, 40, 40, 8.0)]
    for hmin, d, hs, lg in cases:
        eps = SecurityLevel(lg)
        weak = qlhl_weak_seed_penalized(hmin, Z, d, hs, eps)
        general = qlhl_general(hmin, Z, hs, Z, d, eps)
        assert general.terms["raw_value"] >= weak.terms["raw_value"]


def test_general_degenerates_to_basic_on_uniform_seed():
    general = qlhl_general(120, Z, hmin_seed=63, eps_seed=Z, seed_len=63,
                           eps_hash=E32)
    basic = qlhl_basic(120, Z, E32)
    assert general.max_output_len == basic.max_output_len


def test_bounds_reject_bad_arguments():
    for hmin in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            qlhl_basic(hmin, Z, E32)
    with pytest.raises(ValueError):
        qlhl_weak_seed_penalized(10, Z, seed_len=5, hmin_seed=6,
                                 eps_target=E32)
    with pytest.raises(ValueError):
        qlhl_general(10, Z, hmin_seed=6, eps_seed=Z, seed_len=5,
                     eps_hash=E32)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            qlhl_weak_seed_penalized(bad, Z, seed_len=5, hmin_seed=4,
                                     eps_target=E32)
        with pytest.raises(ValueError):
            qlhl_weak_seed_penalized(10, Z, seed_len=5, hmin_seed=math.nan,
                                     eps_target=E32)
        with pytest.raises(ValueError):
            qlhl_general(bad, Z, hmin_seed=4, eps_seed=Z, seed_len=5,
                         eps_hash=E32)
        with pytest.raises(ValueError):
            qlhl_general(10, Z, hmin_seed=math.nan, eps_seed=Z, seed_len=5,
                         eps_hash=E32)
    # a NaN lambda used to drop the residual cap: 194, the lambda = 0
    # length, where lambda = 100 gives 156
    args = (ThreatCase.REVEAL_OUTPUT, 256, 256, Z, Z, E32)
    assert combine_case_bound(*args, lambda1=100).max_output_len == 156
    for bad in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            combine_case_bound(*args, lambda1=bad)
        with pytest.raises(ValueError):
            combine_case_bound(*args, lambda2=bad)


def test_case_bound_fixtures():
    args = (256, 256, Z, Z, E32)
    assert combine_case_bound(ThreatCase.NO_REVEAL, *args).max_output_len \
        == 194
    assert combine_case_bound(ThreatCase.REVEALED_KEY, *args).max_output_len \
        == 66
    assert combine_case_bound(ThreatCase.REVEAL_OUTPUT,
                              *args).max_output_len == 194
    bounded = combine_case_bound(ThreatCase.REVEAL_OUTPUT, *args,
                                 lambda1=128, lambda2=64)
    assert bounded.max_output_len == 128


def test_controlled_key_is_infeasible_at_real_eps():
    r = combine_case_bound(ThreatCase.CONTROLLED_KEY, 256, 256, Z, Z, E32)
    assert not r.feasible
    # the one-sided bounds appear in the term breakdown
    assert "controlled_x1_bound" in r.terms


def test_case_bound_eps_budget():
    r = combine_case_bound(ThreatCase.NO_REVEAL, 64, 64, E32, E32, E16)
    # 2*eps1 + 2*eps2 + eps_hash = 4 * 2^-32 + 2^-16
    want = (SecurityLevel(32.0) + SecurityLevel(32.0) + SecurityLevel(32.0)
            + SecurityLevel(32.0) + E16)
    assert r.out_eps.neg_log2 == pytest.approx(want.neg_log2, rel=1e-12)


def test_public_seed_fixtures():
    r = public_seed_bound(128, 256, Z, Z, Z, E32, reveal_allowed=True)
    assert r.max_output_len == 66
    r = public_seed_bound(128, 256, Z, Z, Z, E32, reveal_allowed=False)
    assert r.max_output_len == 322
    many = public_seed_bound_many([64, 128, 256], [Z, Z, Z], Z, E16, True)
    assert many.max_output_len == 64 - 32 + 2


def test_required_hmin_inverts_basic_bound():
    for target in (1, 38, 194, 511):
        hmin = required_hmin(target, E32)
        assert qlhl_basic(hmin, Z, E32).max_output_len == target
        assert qlhl_basic(hmin - 1.5, Z, E32).max_output_len < target


def test_alpha_partition_fixture():
    part = alpha_partition(128, 127)
    assert part == AlphaPartition(Fraction(127, 255), 127, 128)


def test_alpha_partition_rejects_even_total():
    with pytest.raises(ValueError):
        alpha_partition(128, 128)


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_prop_alpha_partition_consistency(len1, len2):
    total = len1 + len2
    if total % 2 == 0:
        with pytest.raises(ValueError):
            alpha_partition(len1, len2)
        return
    part = alpha_partition(len1, len2)
    assert part.seed_len + part.input_len == total
    assert part.seed_len == part.input_len - 1
    assert part.alpha == Fraction(part.seed_len, total)


@given(entropies, entropies, exponents)
def test_prop_basic_bound_monotone_in_entropy(h1, h2, lg):
    eps = SecurityLevel(lg)
    lo, hi = sorted((h1, h2))
    assert qlhl_basic(lo, Z, eps).max_output_len <= \
        qlhl_basic(hi, Z, eps).max_output_len


@given(entropies, exponents, exponents)
def test_prop_basic_bound_monotone_in_eps(h, lg1, lg2):
    lo, hi = sorted((lg1, lg2))
    # a stricter eps (larger exponent) never allows more output
    assert qlhl_basic(h, Z, SecurityLevel(hi)).max_output_len <= \
        qlhl_basic(h, Z, SecurityLevel(lo)).max_output_len


@given(st.integers(1, 1024), st.integers(1, 1024), exponents)
def test_prop_controlled_key_never_feasible_at_two_bits(len1, len2, lg):
    eps = SecurityLevel(2.0 + lg)
    r = combine_case_bound(ThreatCase.CONTROLLED_KEY, len1, len2, Z, Z, eps)
    assert not r.feasible


def test_threat_case_from_name():
    assert ThreatCase.from_name("NoReveal") is ThreatCase.NO_REVEAL
    assert ThreatCase.from_name("controlledkey") is ThreatCase.CONTROLLED_KEY
    with pytest.raises(ValueError):
        ThreatCase.from_name("other")


def test_report_kv_dict_carries_terms():
    doc = report_to_kv_dict(qlhl_basic(100, Z, E32))
    assert doc["max_output_len"] == 38
    assert doc["feasible"] == "true"
    assert doc["hash_penalty_bits"] == 64.0
    assert "raw_value" in doc
