"""Tests for the budgeted four-stage handshake simulation."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from qlhl.bits import BitString, concat_all
from qlhl.handshake import (AbortReason, BudgetExceeded, InMemoryChannel,
                            MockQkdStore, OneTimePad, PadExhaustedError,
                            ScheduleParams, TamperSpec, UnknownQkdIdError,
                            budget, dump_transcript, make_configs,
                            run_handshake, schedule_stage)
from qlhl.handshake import protocol
from qlhl.handshake.protocol import (OUTCOME_ABORT, OUTCOME_SUCCESS,
                                     HandshakeConfig)
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


def test_budget_validation():
    with pytest.raises(ValueError):
        budget(0, E16)
    with pytest.raises(ValueError):
        budget(64, SecurityLevel.zero())
    with pytest.raises(ValueError):
        budget(0, E16, per_key_lengths=(8,) * 8)


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
