"""Tests for secret-key mixing in private- and public-seed modes."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl import combiner
from qlhl.bits import BitString, concat
from qlhl.bootstrap import Infeasible
from qlhl.bounds import ThreatCase
from qlhl.combiner import (CombineMode, CombineRequest, OrderingViolation,
                           combine_private, combine_public,
                           combine_public_many, model_pqc_key,
                           residual_after_reveal, xor_combine_baseline,
                           xor_vs_extractor_report)
from qlhl.ledger import EntropyKind, SecurityLevel, SourceSpec
from qlhl.toeplitz import ExtractorParams, SeededHash, extract

E32 = SecurityLevel(32.0)


def _key(rng, length, label, kind=EntropyKind.MIN):
    bits = BitString.from_u8(rng.integers(0, 2, length, dtype=np.uint8))
    return bits, SourceSpec.secure(label, length, SecurityLevel.zero(), kind)


def _private_request(rng, len1=128, len2=127, **kwargs):
    key1, spec1 = _key(rng, len1, "k1")
    key2, spec2 = _key(rng, len2, "k2")
    return CombineRequest(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                          mode=CombineMode.PRIVATE_SEED, eps_hash=E32,
                          **kwargs)


def test_private_combine_fixture_length():
    # 255 total bits under NoReveal at 2^-32: floor(128 - 62) = 66 out
    rng = np.random.default_rng(31)
    result = combine_private(_private_request(rng))
    assert len(result.output) == 66
    assert result.out_spec.is_secure
    assert result.report.max_output_len == 66
    assert result.residuals["key1"].remaining_hmin == 128 - 66


def test_private_combine_matches_manual_split():
    # seed = key1[:a1] || key2[:a2], input = the two complements
    rng = np.random.default_rng(32)
    req = _private_request(rng, requested_len=40)
    result = combine_private(req)
    part_seed_len = (128 + 127 - 1) // 2
    a1 = int((part_seed_len / (128 + 127)) * 128)
    a2 = part_seed_len - a1
    seed = concat(req.key1[:a1], req.key2[:a2])
    input_bits = concat(req.key1[a1:], req.key2[a2:])
    params = ExtractorParams.modified(len(input_bits), 40)
    assert result.output == extract(SeededHash(params, seed), input_bits)


def test_private_combine_even_total_needs_truncation():
    rng = np.random.default_rng(33)
    with pytest.raises(ValueError):
        combine_private(_private_request(rng, len2=128))
    result = combine_private(_private_request(rng, len2=128,
                                              auto_truncate=True))
    assert len(result.output) == 66


def test_private_combine_zero_keys_give_zero_output():
    spec = SourceSpec.secure("z", 128, SecurityLevel.zero())
    spec2 = SourceSpec.secure("z2", 127, SecurityLevel.zero())
    req = CombineRequest(key1=BitString.zeros(128), spec1=spec,
                         key2=BitString.zeros(127), spec2=spec2,
                         mode=CombineMode.PRIVATE_SEED, eps_hash=E32)
    result = combine_private(req)
    assert result.output == BitString.zeros(66)


def test_private_combine_requested_len_checked():
    rng = np.random.default_rng(34)
    result = combine_private(_private_request(rng, requested_len=10))
    assert len(result.output) == 10
    with pytest.raises(ValueError):
        combine_private(_private_request(rng, requested_len=67))


@pytest.mark.parametrize("mode", list(CombineMode))
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_combine_request_rejects_bad_lambdas(mode, bad):
    # a negative lambda was ignored in public mode, and a NaN one failed
    # there only on int(nan)
    rng = np.random.default_rng(36)
    key1, spec1 = _key(rng, 128, "k1")
    key2, spec2 = _key(rng, 127, "k2")
    for lambdas in ({"lambda1": bad}, {"lambda2": bad}):
        with pytest.raises(ValueError, match="lambdas"):
            CombineRequest(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                           mode=mode, eps_hash=E32,
                           threat=ThreatCase.REVEAL_OUTPUT, **lambdas)


def test_controlled_key_combination_refused():
    rng = np.random.default_rng(35)
    with pytest.raises(Infeasible):
        combine_private(_private_request(rng,
                                         threat=ThreatCase.CONTROLLED_KEY))


def test_output_kind_tracks_surviving_key():
    rng = np.random.default_rng(36)
    key1, spec1 = _key(rng, 128, "its", EntropyKind.MIN)
    key2, spec2 = _key(rng, 127, "pqc", EntropyKind.HILL)

    def run(**kwargs):
        return combine_private(CombineRequest(
            key1=key1, spec1=spec1, key2=key2, spec2=spec2,
            mode=CombineMode.PRIVATE_SEED, eps_hash=E32, **kwargs))

    assert run().out_spec.kind == EntropyKind.HILL
    revealed_pqc = run(threat=ThreatCase.REVEALED_KEY, revealed_key=2)
    assert revealed_pqc.out_spec.kind == EntropyKind.MIN
    revealed_its = run(threat=ThreatCase.REVEALED_KEY, revealed_key=1)
    assert revealed_its.out_spec.kind == EntropyKind.HILL


def test_public_combine_fixture_lengths():
    rng = np.random.default_rng(37)
    key1, spec1 = _key(rng, 128, "k1")
    key2, spec2 = _key(rng, 256, "k2")
    seed = BitString.from_u8(rng.integers(0, 2, 383, dtype=np.uint8))
    base = dict(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                mode=CombineMode.PUBLIC_SEED, eps_hash=E32, seed=seed,
                seed_after_keys=True)
    no_reveal = combine_public(CombineRequest(**base))
    assert len(no_reveal.output) == 322
    revealed = combine_public(CombineRequest(
        **base, threat=ThreatCase.REVEALED_KEY, revealed_key=2))
    assert len(revealed.output) == 66
    # the output is the plain seeded extraction of key1 || key2
    params = ExtractorParams.modified(384, 322)
    assert no_reveal.output == extract(SeededHash(params, seed),
                                       concat(key1, key2))


def test_public_combine_enforces_seed_freshness_and_size():
    rng = np.random.default_rng(38)
    key1, spec1 = _key(rng, 16, "k1")
    key2, spec2 = _key(rng, 17, "k2")
    seed = BitString.from_u8(rng.integers(0, 2, 32, dtype=np.uint8))
    base = dict(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                mode=CombineMode.PUBLIC_SEED,
                eps_hash=SecurityLevel(4.0), seed=seed)
    with pytest.raises(OrderingViolation):
        combine_public(CombineRequest(**base))
    with pytest.raises(ValueError):
        combine_public(CombineRequest(**dict(base, seed=seed[:10]),
                                      seed_after_keys=True))
    ok = combine_public(CombineRequest(**base, seed_after_keys=True))
    assert len(ok.output) == 27      # 33 - 8 + 2


def test_public_combine_binds_transcript_without_entropy_credit():
    rng = np.random.default_rng(39)
    key1, spec1 = _key(rng, 16, "k1")
    key2, spec2 = _key(rng, 17, "k2")
    transcript = b"\xa5\x5a"
    seed = BitString.from_u8(rng.integers(0, 2, 33 + 16 - 1, dtype=np.uint8))
    result = combine_public(CombineRequest(
        key1=key1, spec1=spec1, key2=key2, spec2=spec2,
        mode=CombineMode.PUBLIC_SEED, eps_hash=SecurityLevel(4.0),
        seed=seed, seed_after_keys=True, transcript=transcript))
    # the transcript lengthens the input but never the bound
    assert result.report.max_output_len == 27
    params = ExtractorParams.modified(49, 27)
    want = extract(SeededHash(params, seed),
                   concat(key1, key2) + BitString.from_bytes(transcript))
    assert result.output == want


def test_public_combine_many_keys():
    rng = np.random.default_rng(40)
    keys = [_key(rng, ln, f"k{ln}") for ln in (64, 96, 32)]
    total = 64 + 96 + 32
    seed = BitString.from_u8(rng.integers(0, 2, total - 1, dtype=np.uint8))
    pooled = combine_public_many(keys, seed, SecurityLevel.zero(), E32,
                                 seed_after_keys=True)
    assert len(pooled.output) == total - 64 + 2
    survivors = combine_public_many(keys, seed, SecurityLevel.zero(),
                                    SecurityLevel(8.0), reveal_allowed=True,
                                    seed_after_keys=True)
    assert len(survivors.output) == 32 - 16 + 2
    with pytest.raises(Infeasible):
        combine_public_many(keys, seed, SecurityLevel.zero(), E32,
                            reveal_allowed=True, seed_after_keys=True)
    with pytest.raises(OrderingViolation):
        combine_public_many(keys, seed, SecurityLevel.zero(), E32)


def _public_request(rng, spec1, spec2, **kwargs):
    key1 = BitString.from_u8(rng.integers(0, 2, spec1.length, np.uint8))
    key2 = BitString.from_u8(rng.integers(0, 2, spec2.length, np.uint8))
    seed = BitString.from_u8(
        rng.integers(0, 2, spec1.length + spec2.length - 1, np.uint8))
    return CombineRequest(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                          mode=CombineMode.PUBLIC_SEED, eps_hash=E32,
                          seed=seed, seed_after_keys=True, **kwargs)


def test_public_combine_sized_from_min_entropy():
    # 256 + 10 bits of min-entropy at 2^-32: 266 - 64 + 2 = 204, not the
    # 450 that the key lengths would give
    rng = np.random.default_rng(41)
    full = SourceSpec.secure("k1", 256, SecurityLevel.zero())
    weak = SourceSpec("k2", 256, 10.0, SecurityLevel.zero())
    assert len(combine_public(_public_request(rng, full, weak)).output) == 204
    # a HILL floor of 100 bits counts as 100: 356 - 64 + 2 = 294
    floored = model_pqc_key(256, SecurityLevel.zero(), hill_floor=100)
    assert len(combine_public(_public_request(rng, full,
                                              floored)).output) == 294
    # a key of less than one bit still adds its share: 256.5 - 64 + 2
    # floors to 194
    tiny = SourceSpec("k2", 16, 0.5, SecurityLevel.zero())
    assert len(combine_public(_public_request(rng, full, tiny)).output) == 194
    # the output-reveal cap is hmin - lambda, here 10 - 4
    capped = combine_public(_public_request(
        rng, full, weak, threat=ThreatCase.REVEAL_OUTPUT, lambda2=4.0))
    assert len(capped.output) == 6


def test_private_combine_refuses_partial_entropy_keys():
    rng = np.random.default_rng(42)
    req = _private_request(rng)
    weak = SourceSpec("k2", 127, 100.5, SecurityLevel.zero())
    with pytest.raises(Infeasible) as exc:
        combine_private(CombineRequest(
            key1=req.key1, spec1=req.spec1, key2=req.key2, spec2=weak,
            mode=CombineMode.PRIVATE_SEED, eps_hash=E32))
    assert exc.value.shortfall_bits == 26.5


def test_refusals_name_the_bound_that_refused():
    # public-seed reports carry no threat case: two 8-bit keys of 2 bits
    # each at 2^-32 give 4 - 64 + 2, refused by the public-seed bound
    rng = np.random.default_rng(45)
    weak = [SourceSpec(f"k{i}", 8, 2.0, SecurityLevel.zero()) for i in (1, 2)]
    with pytest.raises(Infeasible) as exc:
        combine_public(_public_request(rng, *weak))
    assert str(exc.value) == ("combination infeasible: the public-seed "
                              "bound allows -1 bits")
    assert exc.value.shortfall_bits == 58.0
    with pytest.raises(Infeasible) as exc:
        combine_private(_private_request(rng, requested_len=70))
    assert str(exc.value) == ("requested 70 bits but case NoReveal allows "
                              "only 66")


def test_public_combine_many_refuses_low_entropy_keys():
    # two 10-bit keys of 1 bit each at 2^-2: 2 - 4 + 2 = 0 bits, where
    # their lengths would give 18
    rng = np.random.default_rng(43)
    keys = [(BitString.from_u8(rng.integers(0, 2, 10, np.uint8)),
             SourceSpec(f"k{i}", 10, 1.0, SecurityLevel.zero()))
            for i in (1, 2)]
    seed = BitString.from_u8(rng.integers(0, 2, 19, np.uint8))
    with pytest.raises(Infeasible):
        combine_public_many(keys, seed, SecurityLevel.zero(),
                            SecurityLevel(2.0), seed_after_keys=True)


def test_requested_len_past_the_bound_is_infeasible():
    rng = np.random.default_rng(44)
    with pytest.raises(Infeasible) as exc:
        combine_private(_private_request(rng, requested_len=70))
    assert exc.value.shortfall_bits == 70 - 66


def test_xor_baseline_and_residual_bookkeeping():
    a = BitString.from_str("1100")
    b = BitString.from_str("1010")
    assert xor_combine_baseline(a, b).to01() == "0110"
    with pytest.raises(ValueError):
        xor_combine_baseline(a, BitString.from_str("101"))
    spec = SourceSpec.secure("k", 256, SecurityLevel.zero())
    res = residual_after_reveal(spec, 192, lambda_target=64)
    assert res.remaining_hmin == 64.0 and res.satisfied
    res = residual_after_reveal(spec, 200, lambda_target=64)
    assert not res.satisfied


def test_xor_vs_extractor_contrast_report():
    spec1 = SourceSpec.secure("its", 256, SecurityLevel.zero())
    spec2 = model_pqc_key(256, SecurityLevel.zero())
    doc = xor_vs_extractor_report(spec1, spec2, E32, lambda1=64)
    assert doc["xor_output_len"] == 256
    assert doc["xor_key1_remaining_hmin"] == 0.0
    assert doc["xor_lambda_satisfied"] == "false"
    assert doc["extractor_output_len"] == 192
    assert doc["extractor_key1_remaining_hmin"] >= 64.0
    assert doc["extractor_lambda_satisfied"] == "true"


@pytest.mark.parametrize("hmin1, satisfied", [(10.0, "false"),
                                               (100.0, "true")])
def test_xor_vs_extractor_report_sizes_from_min_entropy(hmin1, satisfied):
    # the private-seed combiner refuses a key below full entropy, so the
    # report's extractor emits nothing and key1 keeps all of its hmin;
    # 10 bits cannot cover lambda1 = 32 whatever the output
    spec1 = SourceSpec("k1", 256, hmin1, SecurityLevel.zero(),
                       EntropyKind.MIN)
    spec2 = SourceSpec.secure("k2", 256, SecurityLevel.zero())
    doc = xor_vs_extractor_report(spec1, spec2, E32, lambda1=32)
    assert doc["extractor_output_len"] == 0
    assert doc["extractor_key1_remaining_hmin"] == hmin1
    assert doc["extractor_lambda_satisfied"] == satisfied
    assert doc["xor_output_len"] == 256
    assert doc["xor_key1_remaining_hmin"] == 0.0
    key1 = BitString.from_u8(np.zeros(256, dtype=np.uint8))
    with pytest.raises(Infeasible):
        combine_private(CombineRequest(
            key1=key1, spec1=spec1, key2=key1, spec2=spec2,
            mode=CombineMode.PRIVATE_SEED, eps_hash=E32, lambda1=32,
            threat=ThreatCase.REVEAL_OUTPUT_AND_KEY, auto_truncate=True))


def test_model_pqc_key_is_computational():
    spec = model_pqc_key(128, SecurityLevel(40.0))
    assert spec.kind == EntropyKind.HILL
    assert spec.hmin == 128.0
    floored = model_pqc_key(128, SecurityLevel(40.0), hill_floor=100)
    assert floored.hmin == 100.0
    with pytest.raises(ValueError):
        model_pqc_key(128, SecurityLevel(40.0), hill_floor=129)


def _reveal_output(rng, hmin2, lambda2, **kwargs):
    full = SourceSpec.secure("k1", 256, SecurityLevel.zero())
    weak = SourceSpec("k2", 256, hmin2, SecurityLevel.zero())
    return _public_request(rng, full, weak, threat=ThreatCase.REVEAL_OUTPUT,
                           lambda2=lambda2, **kwargs)


@pytest.mark.parametrize("lambda2, shortfall", [
    (9.5, 0.5), (10.0, 1.0), (10.5, 1.5), (11.0, 2.0), (11.5, 2.5)])
def test_reveal_cap_shortfall_is_one_bit_minus_the_cap(lambda2, shortfall):
    # key2 of hmin 10 caps the output at 10 - lambda2 bits
    rng = np.random.default_rng(47)
    with pytest.raises(Infeasible) as exc:
        combine_public(_reveal_output(rng, 10.0, lambda2))
    assert exc.value.shortfall_bits == shortfall
    # that much more entropy in key2 makes the same request feasible
    result = combine_public(_reveal_output(rng, 10.0 + shortfall, lambda2))
    assert len(result.output) == 1


def test_reveal_caps_leave_accepted_lengths_as_they_were():
    # accepted lengths are min(bound, int(cap1), int(cap2), input):
    # measuring shortfalls from the unfloored cap moves none of them
    rng = np.random.default_rng(48)
    for lambda2 in np.arange(0.0, 9.01, 0.25):
        result = combine_public(_reveal_output(rng, 10.0, float(lambda2)))
        caps = (256 - 0.0, 10.0 - lambda2)
        want = min(result.report.max_output_len, *map(int, caps), 512)
        assert len(result.output) == want
    # a requested length past a fractional cap falls short of the cap
    with pytest.raises(Infeasible) as exc:
        combine_public(_reveal_output(rng, 10.0, 4.5, requested_len=6))
    assert exc.value.shortfall_bits == 0.5
    assert len(combine_public(
        _reveal_output(rng, 10.0, 4.5, requested_len=5)).output) == 5


def _refusal(req):
    with pytest.raises(Infeasible) as exc:
        combine_public(req)
    return exc.value.shortfall_bits, str(exc.value)


def test_refusal_names_the_limit_that_binds():
    rng = np.random.default_rng(49)
    full = SourceSpec.secure("k1", 256, SecurityLevel.zero())
    hill = SourceSpec("k2", 64, 10.0, SecurityLevel.zero(),
                      kind=EntropyKind.HILL)

    def reveal(**kwargs):
        return _public_request(rng, full, hill,
                               threat=ThreatCase.REVEAL_OUTPUT, **kwargs)

    # key2's cap, 10 - 30, binds below the bound (204) and key1's cap
    # (256 - 32); the shortfalls are measured from it as before
    assert _refusal(reveal(lambda1=32.0, lambda2=30.0, requested_len=5)) == (
        25.0, "requested 5 bits but key2's reveal cap allows only -20")
    assert _refusal(reveal(lambda1=32.0, lambda2=30.0)) == (
        21.0, "no extractable bits under key2's reveal cap (-20 bits)")
    # key1's cap, 256 - 255.5, keeps its fraction
    assert _refusal(reveal(lambda1=255.5, lambda2=0.0)) == (
        0.5, "no extractable bits under key1's reveal cap (0.5 bits)")
    # no reveal: the public-seed bound, 266 - 64 + 2, binds
    assert _refusal(_public_request(rng, full, hill, requested_len=205)) == (
        1.0, "requested 205 bits but the public-seed bound allows only 204")
    # with key2 full, a loose eps_hash lifts the bound (320 - 1 + 2) past
    # the 320-bit input
    full2 = SourceSpec.secure("k2", 64, SecurityLevel.zero())
    loose = replace(_public_request(rng, full, full2, requested_len=321),
                    eps_hash=SecurityLevel(0.5))
    assert _refusal(loose) == (
        1.0, "requested 321 bits but the input length allows only 320")
    # a request below one bit is the limit itself
    assert _refusal(_public_request(rng, full, hill, requested_len=0)) == (
        1.0, "no extractable bits under the requested length (0 bits)")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(2, 300), st.integers(0, 2 ** 32))
def test_prop_private_seed_and_input_are_the_alpha_slices(len1, len2,
                                                          draw):
    rng = np.random.default_rng(draw)
    key1, spec1 = _key(rng, len1, "k1")
    key2, spec2 = _key(rng, len2, "k2")
    # at 2^-1 the NoReveal bound admits every split
    req = CombineRequest(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                         mode=CombineMode.PRIVATE_SEED,
                         eps_hash=SecurityLevel(1.0), auto_truncate=True)
    extract_fast, seen = combiner.extract_fast, []

    def spy(h, x):
        seen.append((h.seed, x))
        return extract_fast(h, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combiner, "extract_fast", spy)
        combine_private(req)
    k1, k2 = key1.to01(), key2.to01()
    if (len1 + len2) % 2 == 0:
        k2 = k2[:-1]
    total = len1 + len(k2)
    a1 = int(Fraction(total - 1, 2 * total) * len1)
    a2 = (total - 1) // 2 - a1
    want_seed = BitString.from_str(k1[:a1] + k2[:a2])
    want_input = BitString.from_str(k1[a1:] + k2[a2:])
    assert seen == [(want_seed, want_input)]


@pytest.mark.parametrize("name, value", [
    ("seed", BitString.zeros(127)), ("transcript", b"context"),
    ("eps_seed", SecurityLevel(40.0))])
def test_private_combine_refuses_public_seed_material(name, value):
    # these were once dropped without a word: a transcript the caller
    # asked to bind came back unbound
    rng = np.random.default_rng(50)
    with pytest.raises(ValueError, match=f"private mode takes no {name}:"):
        combine_private(_private_request(rng, **{name: value}))


def test_public_combine_many_checks_every_key_and_the_seed():
    # a 90-bit key declared as 100 bits was once credited 201 bits of
    # entropy for a 191-bit input, and a missing seed reached len()
    rng = np.random.default_rng(51)
    short = BitString.from_u8(rng.integers(0, 2, 90, np.uint8))
    keys = [(short, SourceSpec.secure("k1", 100, SecurityLevel.zero())),
            _key(rng, 101, "k2")]
    seed = BitString.from_u8(rng.integers(0, 2, 190, np.uint8))
    with pytest.raises(ValueError, match="key1 length disagrees"):
        combine_public_many(keys, seed, SecurityLevel.zero(), E32,
                            seed_after_keys=True)
    keys = [_key(rng, 90, "k1"), _key(rng, 101, "k2")]
    with pytest.raises(ValueError, match="needs a seed"):
        combine_public_many(keys, None, SecurityLevel.zero(), E32,
                            seed_after_keys=True)


def _every_mode(rng, **kwargs):
    """One call per combiner on feasible full-entropy keys."""
    private = _private_request(rng, **kwargs)
    public = _public_request(rng, private.spec1, private.spec2, **kwargs)
    keys = [(public.key1, public.spec1), (public.key2, public.spec2)]
    return (lambda: combine_private(private),
            lambda: combine_public(public),
            lambda: combine_public_many(keys, public.seed,
                                        SecurityLevel.zero(), E32,
                                        seed_after_keys=True, **kwargs))


@pytest.mark.parametrize("requested", [2.5, 3.0, math.nan, math.inf,
                                       -math.inf, True])
def test_requested_len_must_be_an_integer(requested):
    # 2.5 once let a TypeError out of the kernel's shift, and True was
    # taken as one bit with out_spec.length True
    rng = np.random.default_rng(52)
    for run in _every_mode(rng, requested_len=requested):
        with pytest.raises(ValueError, match="requested_len must be an "
                                             "integer"):
            run()
    # a numpy integer is one, where it once overflowed a C long
    for run in _every_mode(rng, requested_len=np.int64(5)):
        assert run().out_spec.length == 5


def _outcome(run):
    try:
        result = run()
    except Infeasible as exc:
        return "refused", exc.shortfall_bits, str(exc)
    return (result.output, result.report, replace(result.out_spec, label=""),
            result.residuals)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200), st.booleans(),
       st.booleans(), st.sampled_from([ThreatCase.NO_REVEAL,
                                       ThreatCase.REVEALED_KEY,
                                       ThreatCase.CONTROLLED_KEY]),
       st.integers(0, 2 ** 32))
def test_prop_two_key_public_combine_matches_the_many_key_one(
        len1, len2, hill1, hill2, threat, draw):
    rng = np.random.default_rng(draw)

    def key(length, hill, label):
        bits = BitString.from_u8(rng.integers(0, 2, length, np.uint8))
        if hill:
            floor = float(rng.integers(0, length + 1))
            return bits, model_pqc_key(length, SecurityLevel(40.0), floor)
        return bits, SourceSpec.secure(label, length, SecurityLevel(48.0))

    (key1, spec1), (key2, spec2) = key(len1, hill1, "k1"), key(len2, hill2,
                                                               "k2")
    seed = BitString.from_u8(rng.integers(0, 2, len1 + len2 - 1, np.uint8))
    eps_seed, eps_hash = SecurityLevel(30.0), SecurityLevel(8.0)
    req = CombineRequest(key1=key1, spec1=spec1, key2=key2, spec2=spec2,
                         mode=CombineMode.PUBLIC_SEED, eps_hash=eps_hash,
                         threat=threat, seed=seed, eps_seed=eps_seed,
                         seed_after_keys=True)
    assert _outcome(lambda: combine_public(req)) == _outcome(
        lambda: combine_public_many(
            [(key1, spec1), (key2, spec2)], seed, eps_seed, eps_hash,
            reveal_allowed=threat is not ThreatCase.NO_REVEAL,
            seed_after_keys=True))


_AWKWARD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, 0.5, 2.5]),
    st.integers(-2 ** 60, 2 ** 60),
    st.integers(-8, 40).map(lambda n: n + 0.5))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(ThreatCase)), st.sampled_from([None, 1, 2]),
       st.integers(1, 48), st.integers(1, 48), st.one_of(st.none(), _AWKWARD),
       st.sampled_from([None, "lambda1", "lambda2", "len1", "len2"]),
       _AWKWARD, st.integers(0, 2 ** 32))
def test_prop_combiners_refuse_only_with_value_errors(
        threat, revealed_key, len1, len2, requested_len, field, value, draw):
    # requested_len and at most one other input are awkward, so most calls
    # get far enough for the awkward value to reach the bound and the tail
    fed = {"lambda1": 0.0, "lambda2": 0.0, "len1": len1, "len2": len2}
    if field is not None:
        fed[field] = value
    rng = np.random.default_rng(draw)
    key1 = BitString.from_u8(rng.integers(0, 2, len1, np.uint8))
    key2 = BitString.from_u8(rng.integers(0, 2, len2, np.uint8))
    seed = BitString.from_u8(rng.integers(0, 2, len1 + len2 - 1, np.uint8))
    eps_hash = SecurityLevel(4.0)

    def request(mode):
        spec1 = SourceSpec.secure("k1", fed["len1"], SecurityLevel.zero())
        spec2 = model_pqc_key(fed["len2"], SecurityLevel.zero())
        return CombineRequest(
            key1=key1, spec1=spec1, key2=key2, spec2=spec2, mode=mode,
            eps_hash=eps_hash, threat=threat, lambda1=fed["lambda1"],
            lambda2=fed["lambda2"], revealed_key=revealed_key,
            seed=seed if mode is CombineMode.PUBLIC_SEED else None,
            seed_after_keys=True, auto_truncate=True,
            requested_len=requested_len)

    def many():
        req = request(CombineMode.PUBLIC_SEED)
        return combine_public_many(
            [(key1, req.spec1), (key2, req.spec2)], seed,
            SecurityLevel.zero(), eps_hash,
            reveal_allowed=revealed_key is not None, seed_after_keys=True,
            requested_len=requested_len)

    for run in (lambda: combine_private(request(CombineMode.PRIVATE_SEED)),
                lambda: combine_public(request(CombineMode.PUBLIC_SEED)),
                many):
        try:
            run()
        except ValueError:
            pass
