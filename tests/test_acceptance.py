"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Each test prints a single PASS/FAIL line naming the guarantee it checks,
so a plain ``pytest -s tests/test_acceptance.py`` doubles as a checklist.
All statistical quantities here are computed exactly (enumeration over
seeds, inputs, or keys); float comparisons carry a 1e-12 slack and
everything else is integer or rational arithmetic.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qlhl.bits import BitString, concat
from qlhl.bounds import (ThreatCase, combine_case_bound, public_seed_bound,
                         qlhl_basic, qlhl_general)
from qlhl.combiner import model_pqc_key, xor_vs_extractor_report
from qlhl.handshake import (InMemoryChannel, TamperSpec, make_configs,
                            run_handshake)
from qlhl.handshake.mac import (its_mac_auth, its_mac_verify, split_mac_key,
                                transcript_mac_block_bits)
from qlhl.handshake.protocol import OUTCOME_SUCCESS
from qlhl.handshake.schedule import budget
from qlhl.ledger import SecurityLevel, SourceSpec, kv_format, kv_parse
from qlhl.oracles import collision_probability, exact_extraction_distance
from qlhl.toeplitz import (ExtractorParams, SeededHash, extract, extract_fast,
                           hash_matrix)

SLACK = 1e-12


def _verdict(label, ok, detail=""):
    """Print one PASS/FAIL line and turn it into the test outcome."""
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def _input_bit_rows(n):
    """All 2**n inputs as a (2**n, n) 0/1 matrix in BitString index order."""
    ints = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((ints[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _hash_values_all_seeds(params):
    """Integer hash values, shape (2**seed_len, 2**input_len)."""
    n, m, d = params.input_len, params.output_len, params.seed_len
    rows = _input_bit_rows(n)
    pows = (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    outs = np.empty((1 << d, 1 << n), dtype=np.int64)
    for sv in range(1 << d):
        mat = hash_matrix(SeededHash(params, BitString.from_int(sv, d)))
        outs[sv] = ((rows @ mat.T.astype(np.int64)) & 1) @ pows
    return outs


def test_universality_exhaustive_small_lengths():
    """Collision probability over every seed, pair, and width is <= 2**-m."""
    started = time.perf_counter()
    worst = Fraction(0)
    checked_pairs = 0
    for n in range(2, 9):
        for m in range(1, n + 1):
            params = ExtractorParams.modified(n, m)
            d = params.seed_len
            outs = _hash_values_all_seeds(params)
            counts = np.zeros((1 << n, 1 << n), dtype=np.int64)
            for sv in range(1 << d):
                counts += outs[sv][:, None] == outs[sv][None, :]
            np.fill_diagonal(counts, 0)
            # integer form of count / 2**d <= 2**-m
            assert int(counts.max()) << m <= 1 << d, (n, m)
            worst = max(worst, Fraction(int(counts.max()) << m, 1 << d))
            checked_pairs += (1 << n) * ((1 << n) - 1) // 2
            if (n, m) == (6, 3):
                rng = np.random.default_rng(61)
                for _ in range(10):
                    a, b = rng.choice(1 << n, size=2, replace=False)
                    got = collision_probability(
                        params, BitString.from_int(int(a), n),
                        BitString.from_int(int(b), n))
                    assert got == Fraction(int(counts[a, b]), 1 << d)
    elapsed = time.perf_counter() - started
    _verdict(
        "universality: exhaustive collision bound 2^-m, n=2..8, all m",
        worst <= 1 and elapsed < 60.0,
        f"{checked_pairs} pairs/width, worst ratio {worst} of bound, "
        f"{elapsed:.1f}s")


def _flat_dist(n, support):
    dist = np.zeros(1 << n)
    dist[support] = 1.0 / len(support)
    return dist


def test_leftover_hash_distance_flat_sources():
    """Exact joint distance meets both the target and the proof bound."""
    cases = []
    rng = np.random.default_rng(12)
    for n, k in ((4, 4), (6, 4), (6, 6), (9, 5), (9, 7), (9, 9),
                 (12, 8), (12, 12)):
        for neg in (2.0, 4.0):
            m = qlhl_basic(k, SecurityLevel.zero(),
                           SecurityLevel(neg)).max_output_len
            if m < 1:
                continue
            assert m == k - int(2 * neg) + 2
            supports = [np.arange(1 << k)]
            if (n, k, neg) == (9, 7, 4.0):
                supports.append(rng.choice(1 << n, size=1 << k,
                                           replace=False))
            for support in supports:
                params = ExtractorParams.modified(n, m)
                dist = exact_extraction_distance(params,
                                                 _flat_dist(n, support))
                target = 2.0 ** -neg
                proof = 0.5 * math.sqrt(2.0 ** (m - k))
                assert dist <= target + SLACK, (n, k, m, neg, dist)
                assert dist <= proof + SLACK, (n, k, m, neg, dist)
                cases.append(dist / proof)
    _verdict(
        "leftover-hash distance: flat-k sources, n<=12, eps' in "
        "{2^-2, 2^-4}",
        len(cases) >= 10,
        f"{len(cases)} exact distances, worst {max(cases):.3f} of proof "
        f"bound")


def _deficient_seed_dists(d, lam, rng):
    """Seed distributions with min-entropy exactly d - lam."""
    size = 1 << (d - lam)
    flat_low = np.zeros(1 << d)
    flat_low[:size] = 1.0 / size
    flat_rand = np.zeros(1 << d)
    flat_rand[rng.choice(1 << d, size=size, replace=False)] = 1.0 / size
    # spiked: a few seeds at the maximal probability, remainder spread
    spiked = np.full(1 << d, 0.0)
    peak = 2.0 ** (lam - d)
    heavy = size // 2
    spiked[:heavy] = peak
    spiked[heavy:] = (1.0 - heavy * peak) / ((1 << d) - heavy)
    assert spiked.max() <= peak + SLACK and abs(spiked.sum() - 1.0) < SLACK
    return [flat_low, flat_rand, spiked]


def test_weak_seed_penalty_bounds():
    """Deficient seeds obey both the 2^lam factor and the sqrt form."""
    rng = np.random.default_rng(3)
    instances = 0
    for n, k, m in ((9, 6, 1), (9, 6, 2), (11, 8, 1), (11, 8, 3)):
        params = ExtractorParams.modified(n, m)
        d = params.seed_len
        input_dist = _flat_dist(n, np.arange(1 << k))
        eps_uniform = 0.5 * math.sqrt(2.0 ** (m - k))
        for lam in (1, 2, 3):
            looser = 2.0 ** lam * eps_uniform
            tighter = 0.5 * math.sqrt(2.0 ** (m - k + lam))
            assert tighter <= looser + SLACK
            for seed_dist in _deficient_seed_dists(d, lam, rng):
                measured = exact_extraction_distance(params, input_dist,
                                                     seed_dist)
                assert measured <= tighter + SLACK, (n, k, m, lam, measured)
                assert measured <= looser + SLACK
                instances += 1
    _verdict(
        "weak-seed penalty: measured <= (1/2)sqrt(2^(m-k+lam)) <= "
        "2^lam * eps, lam in {1,2,3}",
        instances == 36,
        f"{instances} exact instances, seed lengths up to 10")


def test_fast_path_matches_reference():
    """extract_fast is bit-identical to the naive path on random cases."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    forced = [(2, 1, True), (2, 2, True), (3, 3, False), (64, 64, True),
              (65, 1, False), (4096, 1, True), (4096, 256, False),
              (4096, 4096, True), (4096, 4096, False)]
    cases = 0
    mismatches = 0
    for trial in range(10000 + len(forced)):
        if trial < len(forced):
            n, m, modified = forced[trial]
        else:
            n = min(4096, int(2.0 ** rng.uniform(1.0, 12.0)))
            m = min(n, max(1, int(2.0 ** rng.uniform(
                0.0, min(math.log2(n), 8.0)))))
            modified = bool(rng.integers(2))
        params = (ExtractorParams.modified(n, m) if modified
                  else ExtractorParams.regular(n, m))
        d = params.seed_len
        seed = BitString.from_bytes(rng.bytes((d + 7) // 8), d)
        x = BitString.from_bytes(rng.bytes((n + 7) // 8), n)
        h = SeededHash(params, seed)
        if extract_fast(h, x) != extract(h, x):
            mismatches += 1
        cases += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "fast path: extract_fast == extract on 10^4 randomized cases, "
        "n <= 4096",
        mismatches == 0 and cases >= 10000,
        f"{cases} cases, {mismatches} mismatches, {elapsed:.1f}s")


def test_bound_arithmetic_fixtures():
    """Length formulas hit their frozen integer values exactly."""
    zero = SecurityLevel.zero()
    e32 = SecurityLevel(32.0)
    got = (
        qlhl_basic(100, zero, e32).max_output_len,
        qlhl_general(80, zero, hmin_seed=50, eps_seed=zero, seed_len=63,
                     eps_hash=SecurityLevel(20.0)).max_output_len,
        public_seed_bound(128, 256, zero, zero, zero, e32,
                          reveal_allowed=True).max_output_len,
        combine_case_bound(ThreatCase.NO_REVEAL, 256, 256, zero, zero,
                           e32).max_output_len,
        combine_case_bound(ThreatCase.REVEALED_KEY, 256, 256, zero, zero,
                           e32).max_output_len,
    )
    want = (38, 29, 66, 194, 66)
    _verdict(
        "bound fixtures: basic=38 general=29 public-min=66 "
        "no-reveal=194 revealed-key=66",
        got == want,
        f"got {got}")


def test_controlled_key_never_feasible():
    """An adversarial partner key blocks extraction at every eps' <= 2^-2."""
    rng = np.random.default_rng(99)
    eps_set = [SecurityLevel(e) for e in (2.0, 3.0, 8.0, 32.0, 128.0)]
    pairs = 0
    feasible_seen = 0
    for _ in range(1000):
        len1 = int(rng.integers(2, 4097))
        len2 = int(rng.integers(2, 4097))
        for eps in eps_set:
            report = combine_case_bound(ThreatCase.CONTROLLED_KEY, len1,
                                        len2, SecurityLevel.zero(),
                                        SecurityLevel.zero(), eps)
            feasible_seen += bool(report.feasible)
        pairs += 1
    _verdict(
        "controlled-key case: infeasible for every eps' <= 2^-2 over "
        "1000 length pairs",
        pairs == 1000 and feasible_seen == 0,
        f"{pairs * len(eps_set)} evaluations, {feasible_seen} feasible")


def test_qkd_budget_formula():
    """Budget fixtures and the 9-tuple path match the closed form."""
    ok = (budget(256, SecurityLevel(64.0)).qkd_budget == 2808
          and budget(128, SecurityLevel(32.0)).qkd_budget == 1400)
    deviations = 0
    for neg in (8.0, 16.0, 33.5, 64.0):
        eps = SecurityLevel(neg)
        closed_add = 8 * math.floor(neg) - 8
        for n in range(1, 513):
            want = 9 * n + closed_add
            if budget(n, eps).qkd_budget != want:
                deviations += 1
            if budget(n, eps,
                      per_key_lengths=(n,) * 9).qkd_budget != want:
                deviations += 1
    _verdict(
        "qkd budget: fixtures 2808/1400 and 9-tuple == closed form for "
        "all n <= 512",
        ok and deviations == 0,
        f"4 eps levels x 512 lengths, {deviations} deviations")


def test_handshake_end_to_end():
    """Clean runs agree and balance the books; every bit flip aborts."""
    started = time.perf_counter()
    e16 = SecurityLevel(16.0)
    expected_budget = budget(64, e16).qkd_budget
    expected_eps = SecurityLevel.zero()
    for _ in range(4):
        expected_eps = expected_eps + e16
    clean_failures = 0
    first_messages = None
    for i in range(100):
        init_cfg, resp_cfg = make_configs(n=64, eps_prime=e16,
                                          rng_seed=1000 + i)
        res = run_handshake(init_cfg, resp_cfg)
        fin_i, fin_r = res.initiator_finals, res.responder_finals
        good = (res.outcome == OUTCOME_SUCCESS
                and fin_i is not None and fin_r is not None
                and fin_i.iats == fin_r.iats and fin_i.rats == fin_r.rats
                and len(fin_i.iats) == 64 and len(fin_i.rats) == 64
                and fin_i.consumed_qkd == expected_budget
                and fin_r.consumed_qkd == expected_budget
                and fin_i.out_eps == expected_eps)
        clean_failures += not good
        if first_messages is None:
            first_messages = res.messages
    # nonzero ledger inputs fold into the finals the same way
    eps_qkd, eps_seed = SecurityLevel(20.0), SecurityLevel(18.0)
    want = eps_qkd
    for _ in range(4):
        want = want + eps_seed + e16
    init_cfg, resp_cfg = make_configs(n=64, eps_prime=e16, rng_seed=7,
                                      eps_qkd=eps_qkd, eps_seed=eps_seed)
    ledger_ok = run_handshake(
        init_cfg, resp_cfg).initiator_finals.out_eps == want

    surviving = 0
    flips = 0
    aborts = Counter()
    for idx, wire in enumerate(first_messages, start=1):
        for bit in range(len(wire) * 8):
            init_cfg, resp_cfg = make_configs(n=64, eps_prime=e16,
                                              rng_seed=1000)
            res = run_handshake(init_cfg, resp_cfg,
                                tamper=TamperSpec(idx, bit))
            if (res.outcome == OUTCOME_SUCCESS
                    or res.initiator_finals is not None
                    or res.responder_finals is not None):
                surviving += 1
            else:
                aborts[idx, res.abort_reason.value, res.abort_party] += 1
            flips += 1
    elapsed = time.perf_counter() - started
    # which check catches each flip, and on which side: a reordered or
    # misattributed check moves a count even when every flip still aborts
    want_aborts = {
        (1, "BadMessage", "responder"): 104,
        (1, "CertUntrusted", "initiator"): 64,
        (2, "BadMessage", "initiator"): 169,
        (2, "CertUntrusted", "initiator"): 1415,
        (2, "UnknownQkdId", "initiator"): 64,
        (3, "BadMessage", "initiator"): 72,
        (3, "CertUntrusted", "initiator"): 32,
        (4, "BadMessage", "responder"): 111,
        (4, "CertUntrusted", "responder"): 1401,
        (5, "BadMessage", "responder"): 72,
        (5, "CertUntrusted", "responder"): 32,
        (6, "BadMessage", "initiator"): 109,
        (6, "MacFailIF", "responder"): 1483,
        (7, "BadMessage", "responder"): 107,
        (7, "MacFailIF", "responder"): 16,
        (7, "MacFailRF", "initiator"): 1437,
        (8, "BadMessage", "initiator"): 72,
        (8, "MacFailRF", "initiator"): 16,
    }
    _verdict(
        "handshake: 100 clean runs agree, budget and eps ledger exact, "
        "all single-bit tampers abort with the pinned reason and party",
        clean_failures == 0 and ledger_ok and surviving == 0
        and flips == 6776 and aborts == want_aborts and elapsed < 60.0,
        f"{flips} bit flips over 8 messages, {surviving} survived, "
        f"{elapsed:.1f}s")


def _flip_pair(index, first, second):
    """One channel transform flipping two bits of message `index`."""
    flip_first = TamperSpec(index, first).apply
    flip_second = TamperSpec(index, second).apply
    return index, lambda data: flip_second(flip_first(data))


def test_handshake_two_bit_flips_across_mac_blocks():
    """Paired flips across each IF block boundary of m1..m6 all abort."""
    started = time.perf_counter()
    e16 = SecurityLevel(16.0)
    init_cfg, resp_cfg = make_configs(n=64, eps_prime=e16, rng_seed=1000)
    clean = run_handshake(init_cfg, resp_cfg).messages
    b = transcript_mac_block_bits(64, init_cfg.tag_bits)
    assert (init_cfg.tag_bits, b) == (16, 33)
    # the IF stream is the 64-bit length header, then m1..m6; message i
    # holds stream bits starting[i - 1] .. starting[i] - 1
    starting = [64]
    for wire in clean[:6]:
        starting.append(starting[-1] + 8 * len(wire))
    pairs = []
    for j in (0, b - 2):
        k = 0
        while (k + 1) * b + j + 1 < starting[-1]:
            first, second = k * b + j, (k + 1) * b + j + 1
            k += 1
            for index in range(1, 7):
                lo, hi = starting[index - 1], starting[index]
                if lo <= first and second < hi:
                    pairs.append((index, first - lo, second - lo))
    surviving = 0
    aborts = Counter()
    for index, first, second in pairs:
        init_cfg, resp_cfg = make_configs(n=64, eps_prime=e16,
                                          rng_seed=1000)
        channel = InMemoryChannel(
            transforms=[_flip_pair(index, first, second)])
        res = run_handshake(init_cfg, resp_cfg, channel=channel)
        if (res.outcome == OUTCOME_SUCCESS
                or res.initiator_finals is not None
                or res.responder_finals is not None):
            surviving += 1
        else:
            aborts[index, res.abort_reason.value, res.abort_party] += 1
    elapsed = time.perf_counter() - started
    # Both fields of m6 (c_R and s3) feed stage 3, so a flip there also
    # splits the parties' fk_I and MacFailIF follows from unequal keys:
    # no pair here tests a tag collision under equal keys.
    want_aborts = {
        (1, "BadMessage", "responder"): 9,
        (2, "BadMessage", "initiator"): 14,
        (2, "CertUntrusted", "initiator"): 80,
        (2, "UnknownQkdId", "initiator"): 2,
        (3, "BadMessage", "initiator"): 5,
        (4, "BadMessage", "responder"): 8,
        (4, "CertUntrusted", "responder"): 80,
        (5, "BadMessage", "responder"): 6,
        (6, "BadMessage", "initiator"): 8,
        (6, "MacFailIF", "responder"): 86,
    }
    _verdict(
        "handshake: two-bit flips at bit j of IF block k and j + 1 of "
        "block k + 1, j in {0, b - 2}, within one of m1..m6, all abort "
        "with the pinned reason and party",
        surviving == 0 and len(pairs) == 298 and aborts == want_aborts
        and elapsed < 60.0,
        f"{len(pairs)} flip pairs, b = {b}, {surviving} survived, "
        f"{elapsed:.1f}s")


def test_one_time_mac_forgery_exhaustive():
    """Every fixed forgery is accepted by exactly a 2^-4 key fraction."""
    rng = np.random.default_rng(44)
    tag_len = 4
    total_tables = 0
    for msg_len in range(tag_len, 11):
        params = ExtractorParams.modified(msg_len, tag_len)
        d = params.seed_len
        counts = np.zeros((1 << msg_len, 1 << tag_len), dtype=np.int64)
        msg_idx = np.arange(1 << msg_len)
        rows = _input_bit_rows(msg_len)
        pows = (1 << np.arange(tag_len - 1, -1, -1, dtype=np.int64))
        for sv in range(1 << d):
            mat = hash_matrix(SeededHash(params,
                                         BitString.from_int(sv, d)))
            hv = ((rows @ mat.T.astype(np.int64)) & 1) @ pows
            for pad in range(1 << tag_len):
                counts[msg_idx, hv ^ pad] += 1
        # keys = 2**(d + tag_len), so 2**-tag_len of them is 2**d per cell
        assert (counts == 1 << d).all(), msg_len
        total_tables += counts.size
        for _ in range(8):
            sv = int(rng.integers(1 << d))
            pad = int(rng.integers(1 << tag_len))
            mi = int(rng.integers(1 << msg_len))
            key = split_mac_key(
                concat(BitString.from_int(sv, d),
                       BitString.from_int(pad, tag_len)),
                msg_len, tag_len)
            msg = BitString.from_int(mi, msg_len)
            tag = its_mac_auth(key, msg)
            assert its_mac_verify(key, msg, tag)
            assert int(counts[mi, tag.to_int()]) == 1 << d
            with pytest.raises(ValueError):
                its_mac_verify(key, BitString.from_int(0, msg_len + 1), tag)
    _verdict(
        "one-time mac: exhaustive forgery acceptance == 2^-4 exactly, "
        "msg lengths 4..10",
        total_tables > 0,
        f"{total_tables} (message, tag) cells, full key enumeration")


def test_xor_baseline_contrast_report(tmp_path):
    """Generated report shows xor leaks key1 while extraction keeps it."""
    spec1 = SourceSpec.secure("its", 256, SecurityLevel.zero())
    spec2 = model_pqc_key(256, SecurityLevel.zero())
    doc = xor_vs_extractor_report(spec1, spec2, SecurityLevel(32.0),
                                  lambda1=64)
    path = tmp_path / "xor_contrast.kv"
    path.write_text(kv_format(doc))
    back = kv_parse(path.read_text())
    ok = (float(back["xor_key1_remaining_hmin"]) == 0.0
          and back["xor_lambda_satisfied"] == "false"
          and float(back["extractor_key1_remaining_hmin"]) >= 64.0
          and back["extractor_lambda_satisfied"] == "true"
          and int(back["extractor_output_len"]) == 192)
    _verdict(
        "xor contrast: xor leaves residual 0, extractor keeps >= "
        "lambda1 = 64 (report written)",
        ok,
        f"xor len {back['xor_output_len']}, extractor len "
        f"{back['extractor_output_len']}")
