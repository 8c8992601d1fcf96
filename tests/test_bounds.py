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


def test_public_seed_bound_many_rejects_bad_input():
    # an infinite entropy gave -1 bits at raw_value inf, a NaN one died
    # in math.floor, and a short epsilon list dropped a key's epsilon
    for bad in ([math.inf, 5], [math.nan, 5], [-1, 5]):
        with pytest.raises(ValueError):
            public_seed_bound_many(bad, [Z, Z], Z, E32, False)
    with pytest.raises(ValueError):
        public_seed_bound_many([], [], Z, E32, False)
    for eps in ([SecurityLevel(10.0)], [Z, Z, Z]):
        with pytest.raises(ValueError, match="one epsilon per key"):
            public_seed_bound_many([100, 100], eps, Z, E32, False)
    two = public_seed_bound_many([100, 100], [SecurityLevel(10.0)] * 2, Z,
                                 Z, False)
    assert two.out_eps.neg_log2 == pytest.approx(9.0)


def _all_bound_reports():
    lengths = (1, 2.5, 17, 256, 300.75)
    lambdas = (0, 0.5, 3.25, 40)
    levels = (Z, SecurityLevel(0.5), SecurityLevel(1.25), E16,
              SecurityLevel(33.7))
    for eps in levels:
        for h in lengths:
            yield qlhl_basic(h, Z, eps)
            for lam in lambdas:
                for seed_len in (3, 64, 257):
                    hmin_seed = max(0.0, seed_len - lam)
                    yield qlhl_weak_seed_penalized(h, Z, seed_len, hmin_seed,
                                                   eps)
                    yield qlhl_general(h, E16, hmin_seed, Z, seed_len, eps)
            for h2 in lengths:
                for reveal in (False, True):
                    yield public_seed_bound_many([h, h2], [Z, E16], Z, eps,
                                                 reveal)
                    yield public_seed_bound_many([h, h2, 7.5], [Z] * 3, E16,
                                                 eps, reveal)
        for len1 in (1, 2, 17, 256):
            for len2 in (1, 16, 256, 301):
                for case in ThreatCase:
                    for lam in lambdas:
                        yield combine_case_bound(case, len1, len2, Z, E16,
                                                 eps, lam, lambdas[-1] - lam)


def test_every_bound_report_adds_up_to_raw_value():
    seen = set()
    checked = 0
    for report in _all_bound_reports():
        t = report.terms
        if not math.isfinite(t["raw_value"]):
            continue
        added = (t["hmin_input"] + t["seed_penalty"]
                 - t["hash_penalty_bits"] + t["constant_2"])
        assert added == pytest.approx(t["raw_value"], abs=1e-9), t
        seen.add(t.get("case"))
        checked += 1
    assert seen == {None} | {case.value for case in ThreatCase}
    assert checked > 2000


def test_case_bounds_carry_a_zero_seed_term():
    args = (256, 256, Z, Z, E32)
    controlled = combine_case_bound(ThreatCase.CONTROLLED_KEY, *args)
    assert controlled.terms["hmin_input"] == 0.5
    assert controlled.terms["raw_value"] == -61.5
    assert controlled.terms["controlled_x1_bound"] == -61.5
    revealed = combine_case_bound(ThreatCase.REVEALED_KEY, *args)
    assert revealed.terms["hmin_input"] == 128.25
    assert revealed.terms["raw_value"] == 66.25
    for case in ThreatCase:
        assert combine_case_bound(case, *args).terms["seed_penalty"] == 0.0


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
