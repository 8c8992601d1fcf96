"""Tests for the budgeted four-stage handshake simulation."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlhl.bits import BitString, concat_all
from qlhl.bounds import required_hmin
from qlhl.handshake import (AbortReason, BudgetExceeded, InMemoryChannel,
                            MockQkdStore, OneTimePad, PadExhaustedError,
                            ScheduleParams, TamperSpec, UnknownQkdIdError,
                            budget, dump_transcript, make_configs,
                            run_handshake, schedule_stage)
from qlhl.handshake import protocol, schedule
from qlhl.handshake.protocol import (LABEL_BITS, OUTCOME_ABORT,
                                     OUTCOME_SUCCESS, HandshakeConfig)
from qlhl.handshake.wire import (FIELDS, core_of_wire, decode_message,
                                 encode_message)
from qlhl.ledger import SecurityLevel
from qlhl.toeplitz import ExtractorParams, SeededHash, extract

E16 = SecurityLevel(16.0)


def _toy_run(rng_seed=7, tamper=None, channel=None, **cfg_kwargs):
    init_cfg, resp_cfg = make_configs(n=64, eps_prime=E16, rng_seed=rng_seed,
                                      **cfg_kwargs)
    return run_handshake(init_cfg, resp_cfg, channel=channel, tamper=tamper)


# -- budget arithmetic -------------------------------------------------------


def test_budget_fixtures():
    assert budget(256, SecurityLevel(64.0)).qkd_budget == 2808
    assert budget(128, SecurityLevel(32.0)).qkd_budget == 1400
    params = budget(256, SecurityLevel(64.0))
    assert (params.k1, params.k2, params.k3) == (2170, 1532, 894)
    assert params.hash_penalty == 126


def test_budget_closed_form_equal_lengths():
    for exponent in (8.0, 16.0, 64.0):
        eps = SecurityLevel(exponent)
        for n in range(1, 513):
            got = budget(n, eps, per_key_lengths=(n,) * 9).qkd_budget
            assert got == 9 * n - 8 + 8 * int(exponent)


def test_budget_mixed_lengths():
    lens = (32, 32, 64, 48, 48, 64, 64, 16, 16)
    params = budget(0, E16, per_key_lengths=lens)
    penalty = 30
    k3 = 32 + 32 + 64 + penalty
    k2 = k3 + 48 + 48 + penalty
    k1 = k2 + 64 + 64 + penalty
    assert params.k3 == k3 and params.k2 == k2 and params.k1 == k1
    assert params.qkd_budget == k1 + 16 + 16 + penalty
    assert params.n == 0          # no common length
    assert params.stage_out_lens(1) == (k1, 16, 16)
    assert params.stage_out_lens(4) == (32, 32, 64)


def test_budget_back_substitutes_through_required_hmin():
    # each stage's secure input carries required_hmin of its outputs at
    # the floored stage eps
    for n in (32, 64, 256):
        for lg in (8.0, 16.5, 33.9, 64.25):
            eps = SecurityLevel(float(math.floor(lg)))
            params = budget(n, SecurityLevel(lg))
            k3 = required_hmin(3 * n, eps)
            k2 = required_hmin(k3 + 2 * n, eps)
            k1 = required_hmin(k2 + 2 * n, eps)
            qkd = required_hmin(k1 + 2 * n, eps)
            assert (params.k3, params.k2, params.k1, params.qkd_budget) == \
                (k3, k2, k1, qkd)
            assert params.hash_penalty == required_hmin(0, eps)
            assert params.stage_eps == eps


def test_budget_validation():
    with pytest.raises(ValueError):
        budget(0, E16)
    with pytest.raises(ValueError):
        budget(64, SecurityLevel.zero())
    with pytest.raises(ValueError):
        budget(0, E16, per_key_lengths=(8,) * 8)


def test_budget_refuses_lengths_that_are_not_whole_numbers():
    with pytest.raises(ValueError, match="whole number"):
        budget(1.5, E16)
    for bad in (8.7, math.inf, math.nan, "8"):
        with pytest.raises(ValueError, match="whole number"):
            budget(0, E16, per_key_lengths=(bad,) * 9)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        budget(2 ** 60, E16)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        budget(64, SecurityLevel(2.0 ** 60))
    # an integral float is its int, before the memo is looked up
    assert budget(256.0, E16) == budget(256, E16)
    assert type(budget(256.0, E16).n) is int


def test_budget_memo_equals_a_fresh_computation():
    eps = SecurityLevel(64.0)
    lens = (32, 32, 64, 48, 48, 64, 64, 16, 16)
    for n, per_key in ((256, None), (0, lens), (128, (128,) * 9)):
        want = schedule._budget.__wrapped__(
            per_key if per_key else (n,) * 9, eps)
        first = budget(n, eps, per_key)
        assert first == want
        assert budget(n, eps, per_key) is first
        assert [first.stage_out_lens(s) for s in range(1, 5)] == \
            [want.stage_out_lens(s) for s in range(1, 5)]
    assert schedule._budget.cache_info().maxsize == schedule._BUDGET_MEMO


# NaN, infinities, fractions, negatives and huge integers
_NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.fractions(), st.integers(-2 ** 70, 2 ** 70),
                     st.integers(1, 600), st.sampled_from([2 ** 53, 10 ** 400]))


@settings(max_examples=150, deadline=None)
@given(_NUMBERS, st.none() | st.lists(_NUMBERS, min_size=8, max_size=10),
       st.lists(_NUMBERS, max_size=4), st.floats(0.0, 80.0))
def test_schedule_refuses_bad_numbers_only_with_value_error(n, lengths,
                                                            out_lens, lg):
    eps = SecurityLevel(lg)
    try:
        budget(n, eps, lengths)
    except ValueError:          # BudgetExceeded is one
        pass
    key = BitString.zeros(200)
    label = LABEL_BITS[3]
    traffic = BitString.zeros(16)
    seed = BitString.zeros(200 + 64 + 16 - 1)
    try:
        schedule_stage(2, [key], label, traffic, seed, out_lens, eps)
    except ValueError:
        pass


def test_schedule_stage_refuses_output_lengths_that_are_not_whole():
    rng = np.random.default_rng(54)
    key, label, traffic, _, seed = _stage_fixture(rng)
    for bad in (math.nan, math.inf, 2.5):
        with pytest.raises(ValueError, match="whole number"):
            schedule_stage(2, [key], label, traffic, seed, (bad,), E16)
    with pytest.raises(BudgetExceeded):
        schedule_stage(2, [key], label, traffic, seed, (10 ** 400,), E16)
    assert schedule_stage(2, [key], label, traffic, seed, (20.0, 10), E16) \
        == schedule_stage(2, [key], label, traffic, seed, (20, 10), E16)


# -- stage extraction --------------------------------------------------------


def _stage_fixture(rng):
    key = BitString.from_u8(rng.integers(0, 2, 80, dtype=np.uint8))
    label = BitString.from_bytes(b"QLHL/L3\0")
    traffic = BitString.from_u8(rng.integers(0, 2, 200, dtype=np.uint8))
    input_bits = concat_all([key, label, traffic])
    seed = BitString.from_u8(
        rng.integers(0, 2, len(input_bits) - 1, dtype=np.uint8))
    return key, label, traffic, input_bits, seed


def test_schedule_stage_is_one_seeded_extraction():
    rng = np.random.default_rng(51)
    key, label, traffic, input_bits, seed = _stage_fixture(rng)
    outs = schedule_stage(2, [key], label, traffic, seed, (20, 10, 10), E16)
    whole = extract(SeededHash(ExtractorParams.modified(len(input_bits), 40),
                               seed), input_bits)
    assert concat_all(outs) == whole
    assert [len(o) for o in outs] == [20, 10, 10]
    again = schedule_stage(2, [key], label, traffic, seed, (20, 10, 10), E16)
    assert outs == again


def test_schedule_stage_enforces_budget_and_seed_size():
    rng = np.random.default_rng(52)
    key, label, traffic, input_bits, seed = _stage_fixture(rng)
    # the 80-bit secure key covers 80 - 32 + 2 = 50 output bits
    schedule_stage(2, [key], label, traffic, seed, (50,), E16)
    with pytest.raises(BudgetExceeded):
        schedule_stage(2, [key], label, traffic, seed, (51,), E16)
    with pytest.raises(ValueError):
        schedule_stage(2, [key], label, traffic, seed[:-1], (10,), E16)


def test_schedule_stage_default_secure_key_position():
    # stage 1 budgets on its second input (the pre-shared block),
    # later stages on their first (the chain key)
    rng = np.random.default_rng(53)
    short = BitString.from_u8(rng.integers(0, 2, 40, dtype=np.uint8))
    long_key = BitString.from_u8(rng.integers(0, 2, 90, dtype=np.uint8))
    label = BitString.from_bytes(b"QLHL/L3\0")
    traffic = BitString.zeros(16)

    def run(stage, keys, out_len):
        input_len = sum(len(k) for k in keys) + 64 + 16
        seed = BitString.from_u8(
            rng.integers(0, 2, input_len - 1, dtype=np.uint8))
        return schedule_stage(stage, keys, label, traffic, seed, (out_len,),
                              E16)

    run(1, [short, long_key], 60)        # 90 - 30 covers 60
    with pytest.raises(BudgetExceeded):
        run(1, [long_key, short], 60)    # 40 - 30 covers only 10
    run(2, [long_key, short], 60)
    with pytest.raises(BudgetExceeded):
        run(2, [short, long_key], 60)


# -- pads and channel --------------------------------------------------------


def test_one_time_pad_carves_sequentially():
    pad = OneTimePad(BitString.from_str("10110011"), "demo")
    assert pad.take(3).to01() == "101"
    assert pad.take(5).to01() == "10011"
    with pytest.raises(PadExhaustedError):
        pad.take(1)


@pytest.mark.parametrize("nbits", [-2, -1, 2.0, 1.5, "2", None])
def test_one_time_pad_refuses_bad_sizes_without_moving(nbits):
    # a negative size would move the cursor back and hand out used bits
    pad = OneTimePad(BitString.from_str("10110011"), "demo")
    assert pad.take(4).to01() == "1011"
    with pytest.raises(ValueError):
        pad.take(nbits)
    assert pad.take(np.int64(2)).to01() == "00"
    assert pad.take(2).to01() == "11"
    with pytest.raises(PadExhaustedError):
        pad.take(1)


def test_tamper_spec_parse_and_apply():
    spec = TamperSpec.parse("m7:bit3")
    assert (spec.message_index, spec.bit_index) == (7, 3)
    assert TamperSpec(1, 0).apply(b"\x00") == b"\x80"
    assert TamperSpec(1, 15).apply(b"\x00\x00") == b"\x00\x01"
    with pytest.raises(ValueError):
        TamperSpec.parse("m9:bit0")
    with pytest.raises(ValueError):
        TamperSpec(1, 8).apply(b"\x00")


# -- end-to-end runs ---------------------------------------------------------


def test_clean_run_agrees_on_finals():
    result = _toy_run()
    assert result.outcome == OUTCOME_SUCCESS
    assert result.initiator_finals == result.responder_finals
    finals = result.initiator_finals
    assert len(finals.iats) == 64
    assert len(finals.rats) == 64
    assert len(finals.sec_state_next) == 64
    assert finals.consumed_qkd == result.params.qkd_budget == 696
    assert len(result.messages) == 8


def test_clean_run_frozen_regression_values():
    result = _toy_run(rng_seed=7)
    finals = result.initiator_finals
    assert finals.iats.to_hex() == "efe88e1beeb473d0"
    assert finals.rats.to_hex() == "3762ca19fba11e1d"
    assert result.params.seed_lens == (1351, 1369, 1451, 1437)
    assert finals.out_eps.neg_log2 == pytest.approx(14.0)
    assert hashlib.sha256(b"".join(result.messages)).hexdigest() == (
        "8195af8bb84eb186a8fd755a10866a2743a0ddd153df6b9e31214ab5cca82c59")


# frozen before the schedule geometry was kept across runs: per (n,
# -log2 eps', tampered message or 0), the first 16 hex digits of the
# SHA-256 of the delivered messages, and of the finals (hex keys, eps,
# QKD bits and seed lengths) on success or else the abort reason and
# party; the flipped bit is bit 4 * len + 3 of the clean run's message
_GRID = {
    (128, 32.0, 0): ('835201b6f40e7b3d', '7d5475084ede378f'),
    (128, 32.0, 1): ('0e80e26729d462e5', 'CertUntrusted/initiator'),
    (128, 32.0, 2): ('bc85c49656e11989', 'CertUntrusted/initiator'),
    (128, 32.0, 3): ('51d9d405aad542bc', 'BadMessage/initiator'),
    (128, 32.0, 4): ('6577d45ca2c14bd4', 'CertUntrusted/responder'),
    (128, 32.0, 5): ('47bb93363a088591', 'BadMessage/responder'),
    (128, 32.0, 6): ('0498f48e3e7fc961', 'MacFailIF/responder'),
    (128, 32.0, 7): ('1992b399aa132832', 'MacFailRF/initiator'),
    (128, 32.0, 8): ('0fb879e3ff577138', 'BadMessage/initiator'),
    (128, 64.0, 0): ('df0c648006dea359', '320599f20a022a2e'),
    (128, 64.0, 1): ('11e8f7673e0a8a08', 'CertUntrusted/initiator'),
    (128, 64.0, 2): ('deba9ce42a2b4f8a', 'CertUntrusted/initiator'),
    (128, 64.0, 3): ('50715e1a3159f4f4', 'BadMessage/initiator'),
    (128, 64.0, 4): ('af03805fae9b91ef', 'MacFailIF/responder'),
    (128, 64.0, 5): ('477574d243a7602c', 'BadMessage/responder'),
    (128, 64.0, 6): ('af43e8e5e164050f', 'MacFailIF/responder'),
    (128, 64.0, 7): ('83339f132b3eeefc', 'MacFailRF/initiator'),
    (128, 64.0, 8): ('0f6ff749362d4a3d', 'BadMessage/initiator'),
    (128, 16.5, 0): ('a6fe85c8800b5dff', 'eceb27ccae2ef731'),
    (128, 16.5, 1): ('a027499795309968', 'CertUntrusted/initiator'),
    (128, 16.5, 2): ('e1d37c5d6c2d1813', 'CertUntrusted/initiator'),
    (128, 16.5, 3): ('1560f0662a98d726', 'BadMessage/initiator'),
    (128, 16.5, 4): ('35bfb04d30db69a2', 'CertUntrusted/responder'),
    (128, 16.5, 5): ('41256885d6c829d2', 'BadMessage/responder'),
    (128, 16.5, 6): ('4e2ee6eaea48ebb4', 'MacFailIF/responder'),
    (128, 16.5, 7): ('6ee3bd1667bdfb46', 'MacFailRF/initiator'),
    (128, 16.5, 8): ('78d74bad93b8af10', 'BadMessage/initiator'),
    (256, 32.0, 0): ('e326370bedc739cc', '2b7367e3dca6511b'),
    (256, 32.0, 1): ('2eacc9521708c115', 'CertUntrusted/initiator'),
    (256, 32.0, 2): ('eb51c2c35bf463e0', 'CertUntrusted/initiator'),
    (256, 32.0, 3): ('0d6d0ce309991023', 'CertUntrusted/initiator'),
    (256, 32.0, 4): ('70c55ef9f406babb', 'MacFailIF/responder'),
    (256, 32.0, 5): ('cbce44656cb02b65', 'CertUntrusted/responder'),
    (256, 32.0, 6): ('7db4b92793472933', 'MacFailIF/responder'),
    (256, 32.0, 7): ('898e6b74369fc25e', 'MacFailRF/initiator'),
    (256, 32.0, 8): ('20be25621f89e6d5', 'BadMessage/initiator'),
    (256, 64.0, 0): ('bae76c604b6f95e2', '9b5a519f24fd177a'),
    (256, 64.0, 1): ('6b5984fb4532916d', 'CertUntrusted/initiator'),
    (256, 64.0, 2): ('f93a1225a9e782a3', 'CertUntrusted/initiator'),
    (256, 64.0, 3): ('6ebd2533241b6030', 'CertUntrusted/initiator'),
    (256, 64.0, 4): ('54f29a4597433b51', 'MacFailIF/responder'),
    (256, 64.0, 5): ('e504b98f7ab5408d', 'CertUntrusted/responder'),
    (256, 64.0, 6): ('d3044c518b08c983', 'MacFailIF/responder'),
    (256, 64.0, 7): ('eb939aa52a7d918a', 'MacFailRF/initiator'),
    (256, 64.0, 8): ('9e8a6f7e887b33bd', 'BadMessage/initiator'),
    (256, 16.5, 0): ('93ad6e7c474aaba3', 'e60c19739f5fe0a3'),
    (256, 16.5, 1): ('2d2625b0f60bd9c9', 'CertUntrusted/initiator'),
    (256, 16.5, 2): ('c255ed1f6fecb9a9', 'CertUntrusted/initiator'),
    (256, 16.5, 3): ('7747d9254eb94806', 'CertUntrusted/initiator'),
    (256, 16.5, 4): ('d42c904ffdf8334b', 'MacFailIF/responder'),
    (256, 16.5, 5): ('07525d30c240d24a', 'CertUntrusted/responder'),
    (256, 16.5, 6): ('d3cafbcc264a35d1', 'MacFailIF/responder'),
    (256, 16.5, 7): ('f32c84ba9599919f', 'MacFailRF/initiator'),
    (256, 16.5, 8): ('1e448631f9b304c5', 'BadMessage/initiator'),
    (512, 32.0, 0): ('97fbb332546ce7e2', '8154be13ad3f533a'),
    (512, 32.0, 1): ('12cfa700320f6815', 'CertUntrusted/initiator'),
    (512, 32.0, 2): ('ffcf5f25e7972a5a', 'CertUntrusted/initiator'),
    (512, 32.0, 3): ('39b32e8d2f62b976', 'CertUntrusted/initiator'),
    (512, 32.0, 4): ('622c9794ee4a9941', 'CertUntrusted/responder'),
    (512, 32.0, 5): ('44ab17c7ff9faf48', 'CertUntrusted/responder'),
    (512, 32.0, 6): ('1ea64c13d140dc3d', 'MacFailIF/responder'),
    (512, 32.0, 7): ('a00f37f608f10efc', 'MacFailRF/initiator'),
    (512, 32.0, 8): ('c2e2611fc3447152', 'BadMessage/initiator'),
    (512, 64.0, 0): ('5dc520fb5370bb25', '0d0e1b792ef67a75'),
    (512, 64.0, 1): ('8097bc5a186728e9', 'CertUntrusted/initiator'),
    (512, 64.0, 2): ('ca91e498077b00bb', 'CertUntrusted/initiator'),
    (512, 64.0, 3): ('ced17d2f5892c47c', 'CertUntrusted/initiator'),
    (512, 64.0, 4): ('ff5d8a6717b54def', 'CertUntrusted/responder'),
    (512, 64.0, 5): ('7c48e9d074012995', 'CertUntrusted/responder'),
    (512, 64.0, 6): ('dcf47bf6166d1d57', 'MacFailIF/responder'),
    (512, 64.0, 7): ('0a09fe0bf6a12c8a', 'MacFailRF/initiator'),
    (512, 64.0, 8): ('222793a70d7dd5a5', 'BadMessage/initiator'),
    (512, 16.5, 0): ('5fc462fa836cbd33', '1bfa024013c6fb06'),
    (512, 16.5, 1): ('451dbb64d4bf3e00', 'CertUntrusted/initiator'),
    (512, 16.5, 2): ('e92ef31f01abe12c', 'CertUntrusted/initiator'),
    (512, 16.5, 3): ('4c46982f33c27422', 'CertUntrusted/initiator'),
    (512, 16.5, 4): ('6a28f371f2d179ab', 'CertUntrusted/responder'),
    (512, 16.5, 5): ('f3761e3faf98a54f', 'CertUntrusted/responder'),
    (512, 16.5, 6): ('fba516eeb4b8e493', 'MacFailIF/responder'),
    (512, 16.5, 7): ('3bb0fdf48e2686a8', 'MacFailRF/initiator'),
    (512, 16.5, 8): ('fedaf326d2ef0e63', 'BadMessage/initiator'),
}
# one run with the tag length set: n = 64, eps' = 2^-16, 21-bit tags
_GRID_TAG21 = ('c014a8ad96f25205', 'cb97867a7c644968')


def _grid_digest(result):
    messages = hashlib.sha256(b"".join(result.messages)).hexdigest()[:16]
    if result.abort_reason is not None:
        return messages, f"{result.abort_reason.value}/{result.abort_party}"
    f = result.initiator_finals
    assert f == result.responder_finals
    finals = "|".join((f.iats.to_hex(), f.rats.to_hex(),
                       f.sec_state_next.to_hex(), repr(f.out_eps.neg_log2),
                       str(f.consumed_qkd), repr(result.params.seed_lens)))
    return messages, hashlib.sha256(finals.encode()).hexdigest()[:16]


def _grid_run(n, lg, tamper=None, tag_len=None):
    init_cfg, resp_cfg = make_configs(n, SecurityLevel(lg), rng_seed=5,
                                      tag_len=tag_len)
    return run_handshake(init_cfg, resp_cfg, tamper=tamper)


def test_wire_bytes_finals_and_refusals_are_frozen_across_a_grid():
    got = {}
    for n in (128, 256, 512):
        for lg in (32.0, 64.0, 16.5):
            clean = _grid_run(n, lg)
            got[n, lg, 0] = _grid_digest(clean)
            for i, msg in enumerate(clean.messages, 1):
                tamper = TamperSpec(i, 4 * len(msg) + 3)
                got[n, lg, i] = _grid_digest(_grid_run(n, lg, tamper))
    assert got == _GRID
    assert _grid_digest(_grid_run(64, 16.0, tag_len=21)) == _GRID_TAG21


def test_runs_are_deterministic_per_seed():
    a = _toy_run(rng_seed=3)
    b = _toy_run(rng_seed=3)
    c = _toy_run(rng_seed=4)
    assert a.messages == b.messages
    assert a.initiator_finals == b.initiator_finals
    assert c.initiator_finals.iats != a.initiator_finals.iats
    assert c.messages != a.messages


def test_eps_ledger_accumulates_all_stages():
    eps_qkd = SecurityLevel(20.0)
    eps_seed = SecurityLevel(18.0)
    result = _toy_run(eps_qkd=eps_qkd, eps_seed=eps_seed)
    want = eps_qkd
    for _ in range(4):
        want = want + eps_seed + E16
    assert result.initiator_finals.out_eps.neg_log2 == \
        pytest.approx(want.neg_log2, rel=1e-12)


def test_fractional_eps_prime_charges_the_level_its_penalty_meets():
    # 2^-16.5 pays the 2^-16 penalty (30 bits a stage, 696 QKD bits), so
    # each of the four stages charges 2^-16: 2^-14 in all, not 2^-14.5
    init_cfg, resp_cfg = make_configs(n=64, eps_prime=SecurityLevel(16.5),
                                      rng_seed=7)
    result = run_handshake(init_cfg, resp_cfg)
    assert result.params.hash_penalty == 30
    assert result.params.stage_eps == E16
    finals = result.initiator_finals
    assert finals.consumed_qkd == 696
    assert finals.out_eps.neg_log2 == 14


def test_seed_lengths_are_input_minus_one():
    # stage s hashes its keys, a 64-bit label and the core (seed-emptied)
    # transcript up to m(2s), the message that completes it; its seed is
    # one bit shorter than that input
    result = _toy_run()
    p, n = result.params, 64
    key_bits = {1: n + p.qkd_budget + n, 2: p.k1 + n, 3: p.k2 + n, 4: p.k3}
    want = tuple(
        key_bits[s] + 64 - 1
        + 8 * sum(len(core_of_wire(msg)) for msg in result.messages[:2 * s])
        for s in range(1, 5))
    assert p.seed_lens == want


def test_transcript_dump_lists_all_messages():
    result = _toy_run()
    lines = dump_transcript(result.messages).splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("m1 ")
    assert bytes.fromhex(lines[6].split()[-1]) == result.messages[6]


def test_tampered_header_aborts_as_bad_message():
    result = _toy_run(tamper="m7:bit3")
    assert result.outcome == OUTCOME_ABORT
    assert result.abort_reason == AbortReason.BAD_MESSAGE
    assert result.abort_party == "responder"
    assert result.initiator_finals is None and result.responder_finals is None


def test_tampered_qkd_id_aborts_as_unknown_id():
    # m2 payload: 4-byte block ciphertext then the 8-byte block id;
    # bit 136 is the id's first bit
    result = _toy_run(tamper="m2:bit136")
    assert result.outcome == OUTCOME_ABORT
    assert result.abort_reason == AbortReason.UNKNOWN_QKD_ID
    assert result.abort_party == "initiator"


def test_qkd_store_fetch_retires_the_block_and_spec_for_does_not():
    store = MockQkdStore(block_bits=16, eps=SecurityLevel.zero(),
                         rng=np.random.default_rng(0))
    ident, block = store.next_block()
    assert store.spec_for(ident).length == 16
    assert store.fetch(ident) == block
    with pytest.raises(UnknownQkdIdError):
        store.fetch(ident)
    with pytest.raises(UnknownQkdIdError):
        store.spec_for(ident)


def test_replayed_m2_cannot_reuse_a_qkd_block():
    # two sessions share one store; the second is fed the first's m2,
    # whose block id names a block the initiator already consumed
    init_cfg, resp_cfg = make_configs(n=64, eps_prime=E16, rng_seed=7)
    first = run_handshake(init_cfg, resp_cfg)
    assert first.outcome == OUTCOME_SUCCESS
    replay = InMemoryChannel(transforms=[(2, lambda _: first.messages[1])])
    second = run_handshake(init_cfg, resp_cfg, channel=replay)
    assert second.outcome == OUTCOME_ABORT
    assert second.abort_reason == AbortReason.UNKNOWN_QKD_ID
    assert second.abort_party == "initiator"
    assert second.initiator_finals is None and second.responder_finals is None
    # without the replay the shared store still serves fresh blocks
    assert run_handshake(init_cfg, resp_cfg).outcome == OUTCOME_SUCCESS


def test_tampered_certificate_fails_trust_check():
    result = _toy_run(tamper="m3:bit72")
    assert result.outcome == OUTCOME_ABORT
    assert result.abort_reason == AbortReason.CERT_UNTRUSTED
    assert result.abort_party == "initiator"


def test_tampered_initiator_finish_fails_its_mac():
    result = _toy_run(tamper="m7:bit72")
    assert result.outcome == OUTCOME_ABORT
    assert result.abort_reason == AbortReason.MAC_FAIL_IF
    assert result.abort_party == "responder"


def test_tampered_responder_finish_fails_its_mac():
    result = _toy_run(tamper="m8:bit72")
    assert result.outcome == OUTCOME_ABORT
    assert result.abort_reason == AbortReason.MAC_FAIL_RF
    assert result.abort_party == "initiator"


def test_tampered_first_flight_aborts_before_finals():
    for tamper in ("m1:bit40", "m4:bit72", "m5:bit72", "m6:bit72"):
        result = _toy_run(tamper=tamper)
        assert result.outcome == OUTCOME_ABORT, tamper
        assert result.initiator_finals is None


def test_channel_loss_names_the_waiting_party():
    # the receiver of the first lost message, m1..m8, written out rather
    # than read from the protocol's own step table
    waiting = ("responder", "initiator", "initiator", "responder",
               "responder", "initiator", "responder", "initiator")
    for drop_after, party in enumerate(waiting):
        result = _toy_run(channel=InMemoryChannel(drop_after=drop_after))
        assert result.outcome == OUTCOME_ABORT, drop_after
        assert result.abort_reason == AbortReason.CHANNEL_LOSS, drop_after
        assert result.abort_party == party, drop_after
        assert len(result.messages) == drop_after


def test_reused_channel_is_refused():
    # a channel's transforms are keyed by absolute message index, so a
    # second run over the same channel would skip a requested tamper
    channel = InMemoryChannel()
    assert _toy_run(channel=channel).outcome == OUTCOME_SUCCESS
    with pytest.raises(ValueError, match="fresh channel"):
        _toy_run(channel=channel, tamper="m3:bit40")
    assert len(channel.log) == 8


def test_clean_run_decodes_each_message_once(monkeypatch):
    calls = Counter()
    for name in ("decode_message", "core_of_wire"):
        def spy(*args, _name=name, _fn=getattr(protocol, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(protocol, name, spy)
    assert _toy_run().outcome == OUTCOME_SUCCESS
    assert (calls["decode_message"], calls["core_of_wire"]) == (8, 0)


def test_well_framed_field_of_wrong_size_is_a_bad_message():
    # a sender that re-frames a message passes the codec; the receiver
    # still sizes every field, seeds and tags included
    receivers = ("responder", "initiator", "initiator", "responder",
                 "responder", "initiator", "responder", "initiator")
    for index, kinds in FIELDS.items():
        for slot, kind in enumerate(kinds):
            def shorten(data, slot=slot):
                msg_type, fields = decode_message(data)
                fields[slot] = fields[slot][:-1]
                return encode_message(msg_type, fields)
            result = _toy_run(
                channel=InMemoryChannel(transforms=[(index, shorten)]))
            assert result.abort_reason == AbortReason.BAD_MESSAGE, \
                (index, kind)
            assert result.abort_party == receivers[index - 1], (index, kind)


def test_truncating_transform_aborts():
    channel = InMemoryChannel(transforms=[(5, lambda data: data[:-1])])
    result = _toy_run(channel=channel)
    assert result.outcome == OUTCOME_ABORT
    assert result.abort_reason == AbortReason.BAD_MESSAGE


def test_config_validation():
    with pytest.raises(ValueError):
        make_configs(n=20, eps_prime=E16)          # below the minimum
    with pytest.raises(ValueError):
        make_configs(n=72, eps_prime=E16)          # not a multiple of 16
    with pytest.raises(ValueError):
        make_configs(n=1024, eps_prime=E16)        # above the maximum
    with pytest.raises(ValueError):
        make_configs(n=64, eps_prime=E16, tag_len=40)   # n < 3t - 1
    init_cfg, _ = make_configs(n=64, eps_prime=E16)
    assert init_cfg.tag_bits == 16
    big_cfg, _ = make_configs(n=256, eps_prime=SecurityLevel(64.0))
    assert big_cfg.tag_bits == 64


def test_tag_length_edge_of_three_tags_per_key():
    # n = 64 holds 3 * 21 - 1 = 62 bits but not 3 * 22 - 1 = 65
    cfg, _ = make_configs(n=64, eps_prime=E16, tag_len=21)
    assert cfg.tag_bits == 21
    with pytest.raises(ValueError, match=r"3\*tag_len - 1"):
        make_configs(n=64, eps_prime=E16, tag_len=22)


def test_mismatched_parties_rejected():
    init_cfg, _ = make_configs(n=64, eps_prime=E16)
    _, resp_cfg = make_configs(n=96, eps_prime=E16)
    with pytest.raises(ValueError):
        run_handshake(init_cfg, resp_cfg)
