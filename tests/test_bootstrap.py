"""Tests for planning and running two-source bootstrap extraction."""

import math

import numpy as np
import pytest

from qlhl.bootstrap import (BootstrapPlan, Infeasible,
                            InsufficientSeedMaterial, SourceModel,
                            WeakSourceSim, plan_bootstrap, plan_from_kv_dict,
                            plan_to_kv_dict, run_bootstrap,
                            sample_weak_source)
from qlhl.bounds import qlhl_general
from qlhl.ledger import SecurityLevel, SourceSpec
from qlhl.oracles import exact_extraction_distance

E64 = SecurityLevel(64.0)


def _spec(label, length, hmin):
    return SourceSpec(label, length, float(hmin), SecurityLevel.zero())


def test_plan_fixture_no_trim():
    # |x2| = |x1| - 1 seeds directly; budget 700 + 650 covers
    # 128 + 1023 + 126 = 1277
    plan = plan_bootstrap(_spec("x1", 1024, 700), _spec("x2", 1023, 650),
                          out_len=128, eps_hash=E64)
    assert plan.q == 0
    assert plan.params.input_len == 1024
    assert plan.params.seed_len == 1023
    assert plan.seed_spec.length == 1023


def test_plan_reports_entropy_shortfall():
    with pytest.raises(Infeasible) as exc:
        plan_bootstrap(_spec("x1", 1024, 600), _spec("x2", 1023, 600),
                       out_len=128, eps_hash=E64)
    assert exc.value.shortfall_bits == pytest.approx(77.0)


def test_plan_boundary_is_the_general_bound():
    # the largest accepted output is qlhl_general's, evaluated with X2
    # before truncation; one bit more is refused by exactly the gap
    checked = 0
    for len1, len2 in ((16, 15), (64, 63), (64, 100), (256, 511)):
        q = len2 - len1 + 1
        for hmin1 in (5, min(40.5, len1), len1 * 0.75, len1):
            for hmin2 in (0, q / 2, q + 10.25, len2 * 0.9, len2):
                for lg in (0.5, 1.25, 3.0, 7.5):
                    x1, x2 = _spec("x1", len1, hmin1), _spec("x2", len2, hmin2)
                    eps = SecurityLevel(lg)
                    report = qlhl_general(x1.hmin, SecurityLevel.zero(),
                                          x2.hmin, SecurityLevel.zero(),
                                          x2.length, eps)
                    out_len = report.max_output_len
                    if not 1 <= out_len < len1:
                        continue
                    assert plan_bootstrap(x1, x2, out_len, eps).q == q
                    with pytest.raises(Infeasible) as exc:
                        plan_bootstrap(x1, x2, out_len + 1, eps)
                    assert exc.value.shortfall_bits == pytest.approx(
                        out_len + 1 - report.terms["raw_value"], abs=1e-9)
                    checked += 1
    assert checked > 60


def test_plan_trims_long_seed_source():
    plan = plan_bootstrap(_spec("x1", 1024, 1000), _spec("x2", 2047, 2000),
                          out_len=256, eps_hash=E64)
    assert plan.q == 1024
    assert plan.seed_spec.length == 1023
    assert plan.seed_spec.hmin == 2000 - 1024
    assert plan.seed_to_input_ratio == pytest.approx(2047 / 1024)


def test_plan_rejects_short_seed_source():
    with pytest.raises(InsufficientSeedMaterial):
        plan_bootstrap(_spec("x1", 1024, 1000), _spec("x2", 1022, 1000),
                       out_len=64, eps_hash=E64)


def test_plan_rejects_output_beyond_input():
    with pytest.raises(ValueError):
        plan_bootstrap(_spec("x1", 16, 16), _spec("x2", 15, 15),
                       out_len=17, eps_hash=SecurityLevel(1.0))


def test_plan_requires_independence_assertion():
    with pytest.raises(ValueError):
        plan_bootstrap(_spec("x1", 8, 8), _spec("x2", 7, 7), 2,
                       SecurityLevel(1.0), independent=False)


@pytest.mark.parametrize("out_len", [10.0, 2.5, math.nan, True])
def test_plan_refuses_out_len_that_is_not_an_integer_first(out_len):
    # 10.0, 2.5 and NaN once planned and then raised TypeError in the
    # kernel (NaN passed the entropy check), and True gave a 1-bit output
    # whose out_spec.length was True
    enough = (_spec("x1", 64, 64), _spec("x2", 70, 70))
    short_seed = (_spec("x1", 64, 64), _spec("x2", 10, 10))
    for x1, x2, independent in ((*enough, True), (*enough, False),
                                (*short_seed, True)):
        with pytest.raises(ValueError, match="out_len must be an integer"):
            plan_bootstrap(x1, x2, out_len, SecurityLevel(1.0),
                           independent=independent)


def test_plan_takes_a_numpy_integer_out_len():
    plan = plan_bootstrap(_spec("x1", 64, 64), _spec("x2", 70, 70),
                          np.int64(10), SecurityLevel(1.0))
    assert plan.out_spec.length == 10


def test_plan_kv_round_trip():
    plan = plan_bootstrap(_spec("x1", 512, 400), _spec("x2", 600, 500),
                          out_len=64, eps_hash=SecurityLevel(32.0))
    back = plan_from_kv_dict(plan_to_kv_dict(plan))
    assert back.q == plan.q
    assert back.out_len == plan.out_len
    assert back.params == plan.params
    assert back.x1_spec.hmin == plan.x1_spec.hmin


def test_run_bootstrap_is_deterministic_and_ledgered():
    x1_sim = WeakSourceSim(256, 200, SourceModel.FLAT_K, rng_seed=1)
    x2_sim = WeakSourceSim(255, 220, SourceModel.FLAT_K, rng_seed=2)
    plan = plan_bootstrap(x1_sim.to_spec("x1"),
                          x2_sim.to_spec("x2", SecurityLevel(40.0)),
                          out_len=100, eps_hash=SecurityLevel(32.0))
    x1_bits = sample_weak_source(x1_sim)
    x2_bits = sample_weak_source(x2_sim)
    out1, spec1 = run_bootstrap(plan, x1_bits, x2_bits)
    out2, spec2 = run_bootstrap(plan, x1_bits, x2_bits)
    assert out1 == out2
    assert len(out1) == 100
    assert spec1.is_secure
    # eps adds across both sources and the hash
    want = SecurityLevel(40.0) + SecurityLevel(32.0)
    assert spec1.eps.neg_log2 == pytest.approx(want.neg_log2)
    assert spec1 == spec2


def test_run_bootstrap_checks_sample_lengths():
    plan = plan_bootstrap(_spec("x1", 16, 14), _spec("x2", 15, 14),
                          out_len=8, eps_hash=SecurityLevel(1.0))
    from qlhl.bits import BitString
    with pytest.raises(ValueError):
        run_bootstrap(plan, BitString.zeros(15), BitString.zeros(15))
    with pytest.raises(ValueError):
        run_bootstrap(plan, BitString.zeros(16), BitString.zeros(16))


def test_weak_source_models_and_validation():
    flat = WeakSourceSim(8, 5, SourceModel.FLAT_K, rng_seed=3)
    assert flat.true_hmin == 5.0
    sample = sample_weak_source(flat)
    assert len(sample) == 8
    assert sample[:3].to_int() == 0           # flat-k mass sits low
    assert sample == sample_weak_source(flat)

    biased = WeakSourceSim(16, 4.0, SourceModel.BIASED_IID, bias=0.75)
    assert biased.true_hmin == pytest.approx(-16 * math.log2(0.75))

    with pytest.raises(ValueError):
        WeakSourceSim(8, 7.5, SourceModel.FLAT_K)      # non-integer k
    with pytest.raises(ValueError):
        WeakSourceSim(8, 8, SourceModel.BIASED_IID, bias=0.75)  # over true
    with pytest.raises(ValueError):
        WeakSourceSim(8, 2, SourceModel.BIASED_IID, bias=1.5)
    with pytest.raises(ValueError):
        WeakSourceSim(4, 2, SourceModel.INJECTED,
                      table=np.full(8, 0.125))         # wrong table size


def test_exact_distribution_matches_models():
    flat = WeakSourceSim(6, 4, SourceModel.FLAT_K)
    dist = flat.exact_distribution()
    assert dist.sum() == pytest.approx(1.0)
    assert np.all(dist[:16] == 1.0 / 16) and np.all(dist[16:] == 0)

    biased = WeakSourceSim(3, 1.0, SourceModel.BIASED_IID, bias=0.75)
    dist = biased.exact_distribution()
    assert dist[0b000] == pytest.approx(0.25 ** 3)
    assert dist[0b111] == pytest.approx(0.75 ** 3)
    assert dist.sum() == pytest.approx(1.0)


def test_tiny_bootstrap_distance_within_proof_bound():
    # exhaustive check on a desk-size instance: uniform 5-bit seed,
    # flat-4 input of 6 bits, one output bit at eps 2^-1
    x1 = WeakSourceSim(6, 4, SourceModel.FLAT_K)
    x2 = WeakSourceSim(5, 5, SourceModel.FLAT_K)
    plan = plan_bootstrap(x1.to_spec("x1"), x2.to_spec("x2"), out_len=2,
                          eps_hash=SecurityLevel(1.0))
    got = exact_extraction_distance(plan.params, x1.exact_distribution())
    assert got <= 0.5 * math.sqrt(2.0 ** (2 - 4)) + 1e-12


def test_tiny_bootstrap_distance_with_weak_seed():
    # seed flat over 2^3 of 2^5 values: deficiency 2 enters the exponent
    x1 = WeakSourceSim(6, 4, SourceModel.FLAT_K)
    x2 = WeakSourceSim(5, 3, SourceModel.FLAT_K)
    plan = plan_bootstrap(x1.to_spec("x1"), x2.to_spec("x2"), out_len=1,
                          eps_hash=SecurityLevel(1.0))
    assert plan.q == 0
    got = exact_extraction_distance(plan.params, x1.exact_distribution(),
                                    x2.exact_distribution())
    assert got <= 0.5 * math.sqrt(2.0 ** (1 - 4 + 2)) + 1e-12
