"""Tests for the plan memos of the combiners and of bootstrap planning.

Each construction plans once per public parameter set and runs per call;
these tests check that a memo hit answers exactly as a fresh plan does,
that no two argument types share a plan, that the memos stay bounded and
hold no secret bits, and that what results share cannot be mutated.
"""

import dataclasses
import enum
import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl import bootstrap, combiner
from qlhl.bits import BitString
from qlhl.bootstrap import Infeasible, plan_bootstrap, run_bootstrap
from qlhl.bounds import ThreatCase
from qlhl.combiner import (CombineMode, CombineRequest, combine_private,
                           combine_public, combine_public_many)
from qlhl.ledger import EntropyKind, SecurityLevel, SourceSpec

MEMOS = ((combiner._private_plan, combiner._PLAN_MEMO),
         (combiner._seeded_plan, combiner._PLAN_MEMO),
         (bootstrap._plan_bootstrap, bootstrap._PLAN_MEMO))
LEVELS = [SecurityLevel(x) for x in (1.0, 4.0, 8.0, 16.0, 32.0)]


def _clear():
    for memo, _ in MEMOS:
        memo.cache_clear()


def _bits(rng, length):
    return BitString.from_u8(rng.integers(0, 2, length, np.uint8))


def _outcome(run):
    """Everything a call returns or raises, in comparable form."""
    try:
        result = run()
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "shortfall_bits", None))
    if isinstance(result, tuple):       # run_bootstrap
        return result
    report = result.report
    return (result.output, result.out_spec, result.residuals,
            report.max_output_len, report.feasible, report.out_eps,
            report.kind, dict(report.terms))


_SPEC = st.tuples(st.integers(1, 160), st.sampled_from([1.0, 1.0, 0.5, 0.0]),
                  st.sampled_from(list(EntropyKind)),
                  st.sampled_from(LEVELS + [SecurityLevel.zero()]))
_REQUESTED = st.sampled_from([None, None, None, 1, 2, 7, 40, 0, 2.0, True])


def _spec(label, drawn):
    length, share, kind, eps = drawn
    return SourceSpec(label, length, math.floor(share * length), eps, kind)


def _calls(mode, specs, threat, revealed_key, lambdas, eps_hash, requested,
           transcript):
    """A function of a bit source that makes one call of `mode`."""
    def run(rng):
        keys = [_bits(rng, spec.length) for spec in specs]
        if mode == "bootstrap":
            return lambda: run_bootstrap(
                plan_bootstrap(specs[0], specs[1], requested or 1, eps_hash),
                *keys)
        extra = 8 * len(transcript) if mode == "public" and transcript \
            else 0
        seed = _bits(rng, sum(s.length for s in specs) + extra - 1)
        if mode == "many":
            return lambda: combine_public_many(
                list(zip(keys, specs)), seed, LEVELS[-1], eps_hash,
                reveal_allowed=revealed_key is not None,
                seed_after_keys=True, requested_len=requested)
        public = mode == "public"
        req = CombineRequest(
            keys[0], specs[0], keys[1], specs[1],
            CombineMode.PUBLIC_SEED if public else CombineMode.PRIVATE_SEED,
            eps_hash, threat, *lambdas, revealed_key,
            seed=seed if public else None, seed_after_keys=True,
            transcript=transcript if public else None, auto_truncate=True,
            requested_len=requested)
        return lambda: (combine_public if public else combine_private)(req)
    return run


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["private", "public", "many", "bootstrap"]),
       st.lists(_SPEC, min_size=2, max_size=4), st.sampled_from(ThreatCase),
       st.sampled_from([None, 1, 2]),
       st.tuples(st.sampled_from([0.0, 3.0, 20.5]),
                 st.sampled_from([0.0, 3.0, 20.5])),
       st.sampled_from(LEVELS), _REQUESTED,
       st.sampled_from([None, b"", b"ctx"]), st.integers(0, 2 ** 32))
def test_prop_a_memo_hit_answers_as_a_fresh_plan(
        mode, drawn, threat, revealed_key, lambdas, eps_hash, requested,
        transcript, draw):
    if mode != "many":
        drawn = drawn[:2]
    specs = [_spec(f"k{i}", d) for i, d in enumerate(drawn, 1)]
    # equal but distinct descriptors: the memo matches by value
    twins = [dataclasses.replace(spec) for spec in specs]
    calls = _calls(mode, specs, threat, revealed_key, lambdas, eps_hash,
                   requested, transcript)
    twin_calls = _calls(mode, twins, threat, revealed_key, lambdas,
                        eps_hash, requested, transcript)
    rng = np.random.default_rng(draw)
    first, second = calls(rng), twin_calls(rng)
    _clear()
    fresh = _outcome(second)
    _clear()
    _outcome(first)                     # plans from other secret bits
    assert _outcome(second) == fresh
    assert _outcome(second) == fresh    # and again, from the memo


def _feasible_request(rng, mode, requested_len):
    key1, key2 = _bits(rng, 64), _bits(rng, 65)
    spec1 = SourceSpec.secure("k1", 64, SecurityLevel.zero())
    spec2 = SourceSpec.secure("k2", 65, SecurityLevel.zero())
    public = mode is CombineMode.PUBLIC_SEED
    return CombineRequest(key1, spec1, key2, spec2, mode, SecurityLevel(4.0),
                          seed=_bits(rng, 128) if public else None,
                          seed_after_keys=True, requested_len=requested_len)


@pytest.mark.parametrize("good, bad", [(2, 2.0), (1, True)])
def test_b_a_cached_length_never_answers_for_another_type(good, bad):
    rng = np.random.default_rng(61)
    for mode, run in ((CombineMode.PRIVATE_SEED, combine_private),
                      (CombineMode.PUBLIC_SEED, combine_public)):
        assert len(run(_feasible_request(rng, mode, good)).output) == good
        with pytest.raises(ValueError, match="requested_len must be an "
                                             "integer"):
            run(_feasible_request(rng, mode, bad))
    req = _feasible_request(rng, CombineMode.PUBLIC_SEED, None)
    keys = [(req.key1, req.spec1), (req.key2, req.spec2)]

    def many(requested):
        return combine_public_many(keys, req.seed, SecurityLevel.zero(),
                                   SecurityLevel(4.0), seed_after_keys=True,
                                   requested_len=requested)

    assert len(many(good).output) == good
    with pytest.raises(ValueError, match="requested_len must be an integer"):
        many(bad)


def test_b_a_cached_bootstrap_plan_never_answers_for_a_float():
    x1 = SourceSpec("x1", 64, 60.0, SecurityLevel.zero())
    x2 = SourceSpec("x2", 70, 66.0, SecurityLevel.zero())
    assert plan_bootstrap(x1, x2, 10, SecurityLevel(8.0)).out_len == 10
    with pytest.raises(ValueError, match="out_len must be an integer"):
        plan_bootstrap(x1, x2, 10.0, SecurityLevel(8.0))
    # and a spec of length True cannot stand in for one of length 1
    with pytest.raises(ValueError, match="length must be an integer"):
        SourceSpec.secure("k", True, SecurityLevel.zero())


def _holds_bits(obj, seen=None) -> bool:
    """Whether a BitString is reachable through containers and fields."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (enum.Enum, str, bytes, int,
                                           float, type(None))):
        return False
    seen.add(id(obj))
    if isinstance(obj, BitString):
        return True
    if isinstance(obj, (dict, MappingProxyType)):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list)):
        children = list(obj)
    else:
        children = list(vars(obj).values())
    return any(_holds_bits(child, seen) for child in children)


def test_c_memos_are_bounded_and_hold_no_bits():
    for memo, size in MEMOS:
        assert memo.cache_info().maxsize == size
    _clear()
    rng = np.random.default_rng(62)
    x1 = SourceSpec("x1", 64, 60.0, SecurityLevel.zero())
    x2 = SourceSpec("x2", 70, 66.0, SecurityLevel.zero())
    for n in range(combiner._PLAN_MEMO + 10):
        # a new lambda1 or eps_hash makes a new parameter set
        for mode, run in ((CombineMode.PRIVATE_SEED, combine_private),
                          (CombineMode.PUBLIC_SEED, combine_public)):
            run(dataclasses.replace(_feasible_request(rng, mode, None),
                                    lambda1=n / 4))
        plan = plan_bootstrap(x1, x2, 8, SecurityLevel(1.0 + n / 8))
        run_bootstrap(plan, _bits(rng, 64), _bits(rng, 70))
        assert not _holds_bits(plan)
    for memo, size in MEMOS:
        info = memo.cache_info()
        assert info.misses > size and info.currsize == size
    # the memos' own values, looked up as the combiners look them up
    req = _feasible_request(rng, CombineMode.PRIVATE_SEED, None)
    combine_private(req)
    assert not _holds_bits(combiner._private_plan(
        req.spec1, req.spec2, req.threat, req.revealed_key, req.eps_hash,
        req.lambda1, req.lambda2, req.auto_truncate, req.requested_len))
    req = _feasible_request(rng, CombineMode.PUBLIC_SEED, None)
    combine_public(req)
    assert not _holds_bits(combiner._seeded_plan(
        (req.spec1, req.spec2), (0.0, 0.0), (), req.eps_seed, req.eps_hash,
        False, EntropyKind.MIN, "mix(k1,k2)", None, 129))
    assert combiner._seeded_plan.cache_info().hits > 0


def test_d_shared_report_is_read_only_and_residuals_are_per_result():
    rng = np.random.default_rng(63)
    for mode, run in ((CombineMode.PRIVATE_SEED, combine_private),
                      (CombineMode.PUBLIC_SEED, combine_public)):
        first = run(_feasible_request(rng, mode, None))
        with pytest.raises(TypeError):
            first.report.terms["raw_value"] = 1e9
        with pytest.raises(TypeError):
            del first.report.terms["raw_value"]
        kept = dict(first.residuals)
        first.residuals["key1"] = None
        first.residuals.clear()
        second = run(_feasible_request(rng, mode, None))
        assert second.report is first.report
        assert second.residuals == kept and second.residuals is not \
            first.residuals


def test_refusals_are_raised_afresh_each_call():
    rng = np.random.default_rng(64)
    req = dataclasses.replace(_feasible_request(
        rng, CombineMode.PRIVATE_SEED, None), threat=ThreatCase.CONTROLLED_KEY)
    errors = []
    for _ in range(2):
        with pytest.raises(Infeasible) as caught:
            combine_private(req)
        errors.append(caught.value)
    assert errors[0] is not errors[1]
    assert str(errors[0]) == str(errors[1])


def test_arguments_the_memo_cannot_hash_are_planned_afresh():
    # a 0-d array answers as it did before the memos: a requested_len or
    # out_len is refused as no integer, a lambda is taken as its value
    rng = np.random.default_rng(65)
    for mode, run in ((CombineMode.PRIVATE_SEED, combine_private),
                      (CombineMode.PUBLIC_SEED, combine_public)):
        with pytest.raises(ValueError, match="requested_len must be an "
                                             "integer"):
            run(_feasible_request(rng, mode, np.array(3)))
        req = dataclasses.replace(_feasible_request(rng, mode, None),
                                  lambda1=np.array(1.0))
        assert run(req).output == run(dataclasses.replace(
            req, lambda1=1.0)).output
    x1 = SourceSpec("x1", 64, 60.0, SecurityLevel.zero())
    x2 = SourceSpec("x2", 70, 66.0, SecurityLevel.zero())
    with pytest.raises(ValueError, match="out_len must be an integer"):
        plan_bootstrap(x1, x2, np.array(10), SecurityLevel(8.0))
