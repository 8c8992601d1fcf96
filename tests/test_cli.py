"""Tests for the command-line interface, driven through main(argv)."""

import numpy as np
import pytest

from qlhl import _kernels
from qlhl.bits import BitString, read_qbits, write_qbits
from qlhl.cli import main, parse_eps
from qlhl.handshake import mac
from qlhl.ledger import kv_parse, source_to_kv
from qlhl.ledger import SecurityLevel, SourceSpec


def _write_spec(path, label, length, hmin, neg_log2=0.0):
    spec = SourceSpec(label, length, float(hmin), SecurityLevel(neg_log2))
    path.write_text(source_to_kv(spec))


def _write_bits(path, rng, length):
    bits = BitString.from_u8(rng.integers(0, 2, length, dtype=np.uint8))
    write_qbits(path, bits)
    return bits


def test_parse_eps_forms():
    assert parse_eps("2^-32").neg_log2 == 32.0
    assert parse_eps("0.25").neg_log2 == pytest.approx(2.0)
    with pytest.raises(ValueError):
        parse_eps("eps")


def test_bound_qlhl_fixture(capsys):
    assert main(["bound", "qlhl", "--hmin", "100", "--eps", "2^-32"]) == 0
    assert capsys.readouterr().out == "38\n"


def test_bound_verbose_details_go_to_stderr(capsys):
    assert main(["bound", "qlhl", "--hmin", "100", "--eps", "2^-32",
                 "--verbose"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "38\n"
    assert "feasible: true" in captured.err
    assert "hash_penalty_bits" in captured.err


def test_bound_general_fixture(capsys):
    code = main(["bound", "general", "--hmin", "80", "--hmin-seed", "50",
                 "--seed-len", "63", "--eps", "2^-20"])
    assert code == 0
    assert capsys.readouterr().out == "29\n"


def test_bound_weak_seed(capsys):
    code = main(["bound", "weak-seed", "--hmin", "100", "--seed-len", "63",
                 "--hmin-seed", "60", "--eps", "2^-16"])
    assert code == 0
    assert capsys.readouterr().out == "64\n"


def test_bound_case_fixtures(capsys):
    assert main(["bound", "case", "--case", "no-reveal", "--len1", "256",
                 "--len2", "256", "--eps", "2^-32"]) == 0
    assert capsys.readouterr().out == "194\n"
    assert main(["bound", "case", "--case", "revealed-key", "--len1", "256",
                 "--len2", "256", "--eps", "2^-32"]) == 0
    assert capsys.readouterr().out == "66\n"


@pytest.mark.parametrize("argv", [
    ["bound", "qlhl", "--hmin", "100", "--eps", "nan"],
    ["bound", "qlhl", "--hmin", "nan", "--eps", "2^-32"],
    ["bound", "case", "--case", "reveal-output", "--len1", "256",
     "--len2", "256", "--eps", "2^-32", "--lambda1", "nan"],
])
def test_bound_nan_arguments_exit_1(argv, capsys):
    # each printed a length and exited 0, or died in math.floor
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_bound_case_controlled_is_infeasible(capsys):
    code = main(["bound", "case", "--case", "controlled", "--len1", "256",
                 "--len2", "256", "--eps", "2^-32"])
    assert code == 2
    assert capsys.readouterr().out == "-1\n"


def test_bound_public_fixture(capsys):
    code = main(["bound", "public", "--len1", "128", "--len2", "256",
                 "--eps", "2^-32", "--reveal-allowed"])
    assert code == 0
    assert capsys.readouterr().out == "66\n"


def test_alpha_fixture(capsys):
    assert main(["alpha", "--len1", "128", "--len2", "127"]) == 0
    out = capsys.readouterr().out
    assert "alpha: 127/255" in out
    assert "seed_len: 127" in out
    assert main(["alpha", "--len1", "128", "--len2", "128"]) == 1


def test_budget_fixtures(capsys):
    assert main(["budget", "--n", "256", "--eps", "2^-64"]) == 0
    assert capsys.readouterr().out == "2808\n"
    assert main(["budget", "--n", "128", "--eps", "2^-32"]) == 0
    assert capsys.readouterr().out == "1400\n"


def test_budget_report_file(tmp_path, capsys):
    report = tmp_path / "budget.kv"
    assert main(["budget", "--n", "64", "--eps", "2^-16",
                 "--report", str(report)]) == 0
    capsys.readouterr()
    doc = kv_parse(report.read_text())
    assert int(doc["qkd_budget_bits"]) == 696
    assert int(doc["k3"]) == 222


def test_extract_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(61)
    x = _write_bits(tmp_path / "x.qbits", rng, 100)
    params_seed = _write_bits(tmp_path / "s.qbits", rng, 99)
    out_path = tmp_path / "out.qbits"
    code = main(["extract", "--in", str(tmp_path / "x.qbits"),
                 "--seed", str(tmp_path / "s.qbits"), "--m", "38",
                 "--out", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    stored = read_qbits(out_path)
    assert printed == stored.to01()
    assert len(stored) == 38
    # --naive must agree with the fast path
    code = main(["extract", "--in", str(tmp_path / "x.qbits"),
                 "--seed", str(tmp_path / "s.qbits"), "--m", "38",
                 "--naive"])
    assert code == 0
    assert capsys.readouterr().out.strip() == stored.to01()
    del x, params_seed


def test_extract_fixture_value(tmp_path, capsys):
    write_qbits(tmp_path / "x.qbits", BitString.from_str("110"))
    write_qbits(tmp_path / "s.qbits", BitString.from_str("10"))
    code = main(["extract", "--in", str(tmp_path / "x.qbits"),
                 "--seed", str(tmp_path / "s.qbits"), "--m", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "00"


def test_extract_rejects_wrong_seed_len(tmp_path, capsys):
    rng = np.random.default_rng(62)
    _write_bits(tmp_path / "x.qbits", rng, 100)
    _write_bits(tmp_path / "s.qbits", rng, 90)
    code = main(["extract", "--in", str(tmp_path / "x.qbits"),
                 "--seed", str(tmp_path / "s.qbits"), "--m", "38"])
    assert code == 1
    capsys.readouterr()


def test_bootstrap_plan_and_run(tmp_path, capsys):
    rng = np.random.default_rng(63)
    _write_spec(tmp_path / "x1.kv", "x1", 1024, 700)
    _write_spec(tmp_path / "x2.kv", "x2", 1023, 650)
    plan_path = tmp_path / "plan.kv"
    code = main(["bootstrap", "plan", "--x1", str(tmp_path / "x1.kv"),
                 "--x2", str(tmp_path / "x2.kv"), "--out-len", "128",
                 "--eps", "2^-64", "--out", str(plan_path)])
    assert code == 0
    capsys.readouterr()
    doc = kv_parse(plan_path.read_text())
    assert int(doc["q"]) == 0
    assert doc["roles_swapped"] == "false"

    _write_bits(tmp_path / "x1.qbits", rng, 1024)
    _write_bits(tmp_path / "x2.qbits", rng, 1023)
    out_path = tmp_path / "boot.qbits"
    code = main(["bootstrap", "run", "--plan", str(plan_path),
                 "--x1-bits", str(tmp_path / "x1.qbits"),
                 "--x2-bits", str(tmp_path / "x2.qbits"),
                 "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    assert len(read_qbits(out_path)) == 128


def test_bootstrap_plan_swaps_only_when_needed(tmp_path, capsys):
    # x1 much longer than x2 + 1 cannot seed as given; roles swap
    _write_spec(tmp_path / "x1.kv", "x1", 2047, 2000)
    _write_spec(tmp_path / "x2.kv", "x2", 1024, 1000)
    plan_path = tmp_path / "plan.kv"
    code = main(["bootstrap", "plan", "--x1", str(tmp_path / "x1.kv"),
                 "--x2", str(tmp_path / "x2.kv"), "--out-len", "128",
                 "--eps", "2^-64", "--out", str(plan_path)])
    assert code == 0
    capsys.readouterr()
    doc = kv_parse(plan_path.read_text())
    assert doc["roles_swapped"] == "true"
    # with --no-swap the same geometry is an error
    assert main(["bootstrap", "plan", "--x1", str(tmp_path / "x1.kv"),
                 "--x2", str(tmp_path / "x2.kv"), "--out-len", "128",
                 "--eps", "2^-64", "--no-swap"]) == 1
    capsys.readouterr()
    # the edge: x2 one bit shorter than x1 still seeds it; two bits
    # shorter it cannot, and the roles swap
    for x2_len, swapped in ((1023, "false"), (1022, "true")):
        _write_spec(tmp_path / "x1.kv", "x1", 1024, 1000)
        _write_spec(tmp_path / "x2.kv", "x2", x2_len, 1000)
        assert main(["bootstrap", "plan", "--x1", str(tmp_path / "x1.kv"),
                     "--x2", str(tmp_path / "x2.kv"), "--out-len", "128",
                     "--eps", "2^-64", "--out", str(plan_path)]) == 0
        capsys.readouterr()
        doc = kv_parse(plan_path.read_text())
        assert doc["roles_swapped"] == swapped, x2_len


def test_bootstrap_plan_infeasible_exit_code(tmp_path, capsys):
    _write_spec(tmp_path / "x1.kv", "x1", 1024, 600)
    _write_spec(tmp_path / "x2.kv", "x2", 1023, 600)
    code = main(["bootstrap", "plan", "--x1", str(tmp_path / "x1.kv"),
                 "--x2", str(tmp_path / "x2.kv"), "--out-len", "128",
                 "--eps", "2^-64"])
    assert code == 2
    capsys.readouterr()


def test_combine_private_cli(tmp_path, capsys):
    rng = np.random.default_rng(64)
    _write_bits(tmp_path / "k1.qbits", rng, 128)
    _write_bits(tmp_path / "k2.qbits", rng, 128)
    _write_spec(tmp_path / "k1.kv", "k1", 128, 128)
    _write_spec(tmp_path / "k2.kv", "k2", 128, 128)
    out_path = tmp_path / "mixed.qbits"
    code = main(["combine", "--mode", "private",
                 "--key1", str(tmp_path / "k1.qbits"),
                 "--spec1", str(tmp_path / "k1.kv"),
                 "--key2", str(tmp_path / "k2.qbits"),
                 "--spec2", str(tmp_path / "k2.kv"),
                 "--eps", "2^-32", "--auto-truncate",
                 "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == "66\n"
    assert len(read_qbits(out_path)) == 66


def test_combine_public_cli_with_report(tmp_path, capsys):
    rng = np.random.default_rng(65)
    _write_bits(tmp_path / "k1.qbits", rng, 128)
    _write_bits(tmp_path / "k2.qbits", rng, 256)
    _write_bits(tmp_path / "seed.qbits", rng, 383)
    _write_spec(tmp_path / "k1.kv", "k1", 128, 128)
    _write_spec(tmp_path / "k2.kv", "k2", 256, 256)
    report = tmp_path / "combine.kv"
    code = main(["combine", "--mode", "public",
                 "--key1", str(tmp_path / "k1.qbits"),
                 "--spec1", str(tmp_path / "k1.kv"),
                 "--key2", str(tmp_path / "k2.qbits"),
                 "--spec2", str(tmp_path / "k2.kv"),
                 "--seed", str(tmp_path / "seed.qbits"),
                 "--threat", "revealed-key", "--revealed-key", "2",
                 "--eps", "2^-32", "--seed-after-keys",
                 "--report", str(report)])
    assert code == 0
    capsys.readouterr()
    doc = kv_parse(report.read_text())
    assert int(doc["output_len"]) == 66
    assert "key1_remaining_hmin" in doc


def _combine_argv(tmp_path, mode, *extra):
    return ["combine", "--mode", mode,
            "--key1", str(tmp_path / "k1.qbits"),
            "--spec1", str(tmp_path / "k1.kv"),
            "--key2", str(tmp_path / "k2.qbits"),
            "--spec2", str(tmp_path / "k2.kv"),
            "--eps", "2^-32", *extra]


def test_combine_cli_sizes_from_min_entropy(tmp_path, capsys):
    # a 128-bit key and a 129-bit key of 5 bits: 133 - 64 + 2 = 71 in
    # public mode; private mode needs full-entropy keys and exits 2
    rng = np.random.default_rng(67)
    _write_bits(tmp_path / "k1.qbits", rng, 128)
    _write_bits(tmp_path / "k2.qbits", rng, 129)
    _write_bits(tmp_path / "seed.qbits", rng, 256)
    _write_spec(tmp_path / "k1.kv", "k1", 128, 128)
    _write_spec(tmp_path / "k2.kv", "k2", 129, 5)
    code = main(_combine_argv(tmp_path, "public", "--seed",
                              str(tmp_path / "seed.qbits"),
                              "--seed-after-keys"))
    assert code == 0
    assert capsys.readouterr().out == "71\n"
    assert main(_combine_argv(tmp_path, "private")) == 2
    assert "infeasible:" in capsys.readouterr().err


def test_combine_cli_oversize_requested_len_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(68)
    _write_bits(tmp_path / "k1.qbits", rng, 128)
    _write_bits(tmp_path / "k2.qbits", rng, 127)
    _write_spec(tmp_path / "k1.kv", "k1", 128, 128)
    _write_spec(tmp_path / "k2.kv", "k2", 127, 127)
    assert main(_combine_argv(tmp_path, "private",
                              "--requested-len", "67")) == 2
    assert "infeasible:" in capsys.readouterr().err


def test_combine_private_refuses_a_transcript(tmp_path, capsys):
    # private mode binds no transcript; it once exited 0 with the
    # transcript dropped
    rng = np.random.default_rng(69)
    _write_bits(tmp_path / "k1.qbits", rng, 128)
    _write_bits(tmp_path / "k2.qbits", rng, 127)
    _write_spec(tmp_path / "k1.kv", "k1", 128, 128)
    _write_spec(tmp_path / "k2.kv", "k2", 127, 127)
    (tmp_path / "t.bin").write_bytes(b"context")
    assert main(_combine_argv(tmp_path, "private", "--transcript",
                              str(tmp_path / "t.bin"))) == 1
    assert "error: private mode takes no transcript" \
        in capsys.readouterr().err


def test_combine_missing_ordering_flag_errors(tmp_path, capsys):
    rng = np.random.default_rng(66)
    _write_bits(tmp_path / "k1.qbits", rng, 128)
    _write_bits(tmp_path / "k2.qbits", rng, 256)
    _write_bits(tmp_path / "seed.qbits", rng, 383)
    _write_spec(tmp_path / "k1.kv", "k1", 128, 128)
    _write_spec(tmp_path / "k2.kv", "k2", 256, 256)
    code = main(["combine", "--mode", "public",
                 "--key1", str(tmp_path / "k1.qbits"),
                 "--spec1", str(tmp_path / "k1.kv"),
                 "--key2", str(tmp_path / "k2.qbits"),
                 "--spec2", str(tmp_path / "k2.kv"),
                 "--seed", str(tmp_path / "seed.qbits"),
                 "--eps", "2^-32"])
    assert code == 1
    capsys.readouterr()


def test_handshake_simulate_cli(tmp_path, capsys):
    report = tmp_path / "run.kv"
    code = main(["handshake", "simulate", "--n", "64", "--eps", "2^-16",
                 "--rng-seed", "7", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome: Success" in out
    assert "finals_match: true" in out
    assert "consumed_qkd_bits: 696" in out
    doc = kv_parse(report.read_text())
    assert doc["iats_hex"] == "efe88e1beeb473d0"


def test_options_a_command_does_not_read_are_refused(capsys):
    # --rng-seed only on the one command that draws randomness, --verbose
    # only where it prints something
    for argv in (["alpha", "--len1", "8", "--len2", "7", "--verbose"],
                 ["selftest", "--verbose"],
                 ["budget", "--n", "64", "--eps", "2^-16", "--rng-seed", "1"]):
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_handshake_simulate_tamper_expects_abort(capsys):
    code = main(["handshake", "simulate", "--n", "64", "--eps", "2^-16",
                 "--tamper", "m7:bit3"])
    assert code == 0          # tampered runs are expected to abort
    out = capsys.readouterr().out
    assert "outcome: Abort" in out
    assert "abort_reason: BadMessage" in out


def test_handshake_dump_transcript(tmp_path, capsys):
    log = tmp_path / "transcript.log"
    code = main(["handshake", "simulate", "--n", "64", "--eps", "2^-16",
                 "--dump", str(log)])
    assert code == 0
    capsys.readouterr()
    assert len(log.read_text().splitlines()) == 8


def test_mac_auth_verify_cli(tmp_path, capsys):
    rng = np.random.default_rng(67)
    _write_bits(tmp_path / "key.qbits", rng, 13)   # 10-bit msg, 4-bit tag
    _write_bits(tmp_path / "msg.qbits", rng, 10)
    tag_path = tmp_path / "tag.qbits"
    code = main(["mac", "auth", "--key", str(tmp_path / "key.qbits"),
                 "--msg", str(tmp_path / "msg.qbits"), "--tag-len", "4",
                 "--out", str(tag_path)])
    assert code == 0
    capsys.readouterr()
    code = main(["mac", "verify", "--key", str(tmp_path / "key.qbits"),
                 "--msg", str(tmp_path / "msg.qbits"),
                 "--tag", str(tag_path)])
    assert code == 0
    assert "accept" in capsys.readouterr().out
    # flip the message: the tag must be rejected with exit code 1
    bits = read_qbits(tmp_path / "msg.qbits")
    write_qbits(tmp_path / "msg.qbits",
                bits ^ BitString.from_int(1, len(bits)))
    code = main(["mac", "verify", "--key", str(tmp_path / "key.qbits"),
                 "--msg", str(tmp_path / "msg.qbits"),
                 "--tag", str(tag_path)])
    assert code == 1
    assert "reject" in capsys.readouterr().out


def test_unknown_arguments_exit_one(capsys):
    assert main(["bound", "qlhl", "--hmin", "100"]) == 1   # missing --eps
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_selftest_passes_and_reaches_the_fft(monkeypatch, capsys):
    sizes = []
    original = _kernels._fft_convolve

    def spy(a, x, size):
        sizes.append(size)
        return original(a, x, size)

    monkeypatch.setattr(_kernels, "_fft_convolve", spy)
    ran = []
    for name in ("_rows", "_columns", "_bytes"):
        def counted(*args, form=getattr(_kernels, name), name=name):
            ran.append(name)
            return form(*args)
        monkeypatch.setattr(_kernels, name, counted)
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("ok: ") for line in lines)
    assert len(sizes) >= 2
    assert set(ran) == {"_rows", "_columns", "_bytes"}


def test_selftest_tags_on_both_sides_of_the_gather_crossover(monkeypatch,
                                                            capsys):
    # the chained-MAC suite gathers one message's blocks with the one-call
    # shift and one through 16-bit windows
    framed = []
    gather = mac._message_blocks

    def spy(data, b):
        framed.append(len(data))
        return gather(data, b)

    monkeypatch.setattr(mac, "_message_blocks", spy)
    assert main(["selftest"]) == 0
    assert "ok: chained MAC" in capsys.readouterr().out
    assert min(framed) < mac._WINDOW_BYTES <= max(framed)
