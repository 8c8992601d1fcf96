"""Command-line front end for extraction, bounds, and the simulators.

Exit codes: 0 on success, 2 when a requested operation is infeasible
(not enough entropy, impossible threat case, over-budget schedule), 1 on
any other error including argument problems.

Epsilon arguments accept "2^-N" (N may be fractional) or a decimal in
[0, 1]; "0" means a perfect, zero-failure term. Every subcommand takes
`--report PATH` to write its result as a flat key-value document; the
report is written whenever a command returns a result (exit 0, 1 or 2)
and never when it stops with an error. Those
with details to show (extract, bound, bootstrap plan, combine, budget,
handshake simulate) take `--verbose` to print term breakdowns or debug
dumps on stderr. `handshake simulate`, the one command that draws
randomness, derives all of it from `--rng-seed`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import _kernels
from .bits import BitString, read_qbits, write_qbits
from .bootstrap import (Infeasible, plan_bootstrap, plan_from_kv_dict,
                        plan_to_kv_dict, run_bootstrap)
from .bounds import (BoundReport, ThreatCase, alpha_partition,
                     combine_case_bound, public_seed_bound, qlhl_basic,
                     qlhl_general, qlhl_weak_seed_penalized,
                     report_to_kv_dict)
from .combiner import (CombineMode, CombineRequest, combine_private,
                       combine_public)
from .handshake import (BudgetExceeded, OUTCOME_ABORT, OUTCOME_SUCCESS,
                        budget, dump_transcript, its_mac_auth,
                        its_mac_verify, make_configs, run_handshake,
                        split_mac_key, transcript_mac, transcript_mac_verify)
from .handshake.mac import (_GALOIS_TAPS, _WINDOW_BYTES,
                            transcript_mac_block_bits)
from .handshake.schedule import KEY_NAMES
from .ledger import SecurityLevel, kv_format, kv_parse, source_from_kv
from .oracles import (collision_probability, matrix_rank_gf2,
                      zero_hash_probability)
from .toeplitz import (ExtractorParams, Family, SeededHash, extract,
                       extract_fast, hash_matrix)

_THREAT_NAMES = {
    "no-reveal": ThreatCase.NO_REVEAL,
    "controlled": ThreatCase.CONTROLLED_KEY,
    "revealed-key": ThreatCase.REVEALED_KEY,
    "reveal-output": ThreatCase.REVEAL_OUTPUT,
    "reveal-both": ThreatCase.REVEAL_OUTPUT_AND_KEY,
}

_FAMILY_NAMES = {
    "modified-toeplitz": Family.MODIFIED,
    "regular-toeplitz": Family.REGULAR,
}


def parse_eps(text: str) -> SecurityLevel:
    """Parse an epsilon flag: '2^-N', a decimal in [0, 1], or '0'."""
    t = text.strip()
    if t.startswith("2^-"):
        return SecurityLevel(float(t[3:]))
    return SecurityLevel.from_eps(float(t))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_bound(args: argparse.Namespace,
                report: BoundReport) -> tuple[int, dict]:
    print(report.max_output_len)
    if args.verbose:
        print(kv_format(report.terms), end="", file=sys.stderr)
        print(f"out_eps: {report.out_eps}", file=sys.stderr)
        print(f"feasible: {str(report.feasible).lower()}", file=sys.stderr)
    return 0 if report.feasible else 2, report_to_kv_dict(report)


def _read_spec(path: str):
    return source_from_kv(Path(path).read_text(encoding="utf-8"))


# -- subcommand handlers -----------------------------------------------------
# Each returns (exit code, result document); main writes the document to
# --report.


def _cmd_extract(args: argparse.Namespace) -> tuple[int, dict]:
    x = read_qbits(args.infile)
    seed = read_qbits(args.seed)
    params = ExtractorParams(_FAMILY_NAMES[args.family], len(x), args.m)
    h = SeededHash(params, seed)
    if args.verbose:
        if len(x) <= 64:
            for row in hash_matrix(h):
                print("".join(str(int(b)) for b in row), file=sys.stderr)
        else:
            print(f"matrix dump skipped: n={len(x)} exceeds 64",
                  file=sys.stderr)
    out = extract(h, x) if args.naive else extract_fast(h, x)
    if args.out:
        write_qbits(args.out, out)
    print(out.to01())
    return 0, {
        "family": args.family, "input_len": len(x), "output_len": args.m,
        "seed_len": params.seed_len, "backend":
            "reference" if args.naive else _kernels.backend(),
        "output_bits": out.to01(),
    }


def _cmd_bound_qlhl(args: argparse.Namespace) -> tuple[int, dict]:
    return _emit_bound(args, qlhl_basic(args.hmin, args.eps_smooth, args.eps))


def _cmd_bound_weak_seed(args: argparse.Namespace) -> tuple[int, dict]:
    return _emit_bound(args, qlhl_weak_seed_penalized(
        args.hmin, args.eps_smooth, args.seed_len, args.hmin_seed, args.eps))


def _cmd_bound_general(args: argparse.Namespace) -> tuple[int, dict]:
    return _emit_bound(args, qlhl_general(
        args.hmin, args.eps_input, args.hmin_seed, args.eps_seed,
        args.seed_len, args.eps))


def _cmd_bound_case(args: argparse.Namespace) -> tuple[int, dict]:
    return _emit_bound(args, combine_case_bound(
        _THREAT_NAMES[args.case], args.len1, args.len2, args.eps1, args.eps2,
        args.eps, args.lambda1, args.lambda2))


def _cmd_bound_public(args: argparse.Namespace) -> tuple[int, dict]:
    return _emit_bound(args, public_seed_bound(
        args.len1, args.len2, args.eps1, args.eps2, args.eps_seed, args.eps,
        args.reveal_allowed))


def _cmd_alpha(args: argparse.Namespace) -> tuple[int, dict]:
    part = alpha_partition(args.len1, args.len2)
    doc = {"alpha": str(part.alpha), "seed_len": part.seed_len,
           "input_len": part.input_len}
    print(kv_format(doc), end="")
    return 0, doc


def _cmd_bootstrap_plan(args: argparse.Namespace) -> tuple[int, dict]:
    x1 = _read_spec(args.x1)
    x2 = _read_spec(args.x2)
    swapped = False
    if not args.no_swap and x2.length < x1.length - 1:
        # seed material must reach input length minus one; when the
        # given roles cannot, the longer source becomes the seed
        x1, x2 = x2, x1
        swapped = True
    plan = plan_bootstrap(x1, x2, args.out_len, args.eps)
    doc = plan_to_kv_dict(plan)
    doc["roles_swapped"] = "true" if swapped else "false"
    text = kv_format(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    if args.verbose:
        print(f"seed_to_input_ratio: {plan.seed_to_input_ratio:g}",
              file=sys.stderr)
    return 0, doc


def _cmd_bootstrap_run(args: argparse.Namespace) -> tuple[int, dict]:
    doc = kv_parse(Path(args.plan).read_text(encoding="utf-8"))
    plan = plan_from_kv_dict(doc)
    x1 = read_qbits(args.x1_bits)
    x2 = read_qbits(args.x2_bits)
    if doc.get("roles_swapped") == "true":
        x1, x2 = x2, x1
    output, out_spec = run_bootstrap(plan, x1, x2)
    write_qbits(args.out, output)
    result = {"out_len": len(output), "label": out_spec.label,
              "neg_log2_eps": out_spec.eps.neg_log2,
              "kind": out_spec.kind.value}
    print(kv_format(result), end="")
    return 0, result


def _cmd_combine(args: argparse.Namespace) -> tuple[int, dict]:
    key1 = read_qbits(args.key1)
    key2 = read_qbits(args.key2)
    spec1 = _read_spec(args.spec1)
    spec2 = _read_spec(args.spec2)
    mode = CombineMode(args.mode)
    seed = read_qbits(args.seed) if args.seed else None
    transcript = (Path(args.transcript).read_bytes() if args.transcript
                  else None)
    req = CombineRequest(
        key1=key1, spec1=spec1, key2=key2, spec2=spec2, mode=mode,
        eps_hash=args.eps, threat=_THREAT_NAMES[args.threat],
        lambda1=args.lambda1, lambda2=args.lambda2,
        revealed_key=args.revealed_key, seed=seed, eps_seed=args.eps_seed,
        seed_after_keys=args.seed_after_keys, transcript=transcript,
        auto_truncate=args.auto_truncate, requested_len=args.requested_len)
    result = combine_private(req) if mode is CombineMode.PRIVATE_SEED \
        else combine_public(req)
    if args.out:
        write_qbits(args.out, result.output)
    doc = report_to_kv_dict(result.report)
    doc["output_len"] = len(result.output)
    doc["out_kind"] = result.out_spec.kind.value
    doc["out_neg_log2_eps"] = result.out_spec.eps.neg_log2
    for name, res in result.residuals.items():
        doc[f"{name}_remaining_hmin"] = res.remaining_hmin
        doc[f"{name}_lambda_satisfied"] = str(res.satisfied).lower()
    print(len(result.output))
    if args.verbose:
        print(kv_format(doc), end="", file=sys.stderr)
    return 0, doc


def _cmd_budget(args: argparse.Namespace) -> tuple[int, dict]:
    lengths = ([int(v) for v in args.lengths.split(",")] if args.lengths
               else None)
    params = budget(args.n, args.eps, lengths)
    print(params.qkd_budget)
    doc = {"qkd_budget_bits": params.qkd_budget, "k1": params.k1,
           "k2": params.k2, "k3": params.k3,
           "hash_penalty_bits": params.hash_penalty,
           "eps_prime_neg_log2": params.eps_prime.neg_log2}
    for name, length in zip(KEY_NAMES, params.per_key_lengths):
        doc[f"len_{name}"] = length
    if args.verbose:
        print(kv_format(doc), end="", file=sys.stderr)
    return 0, doc


def _cmd_handshake_simulate(args: argparse.Namespace) -> tuple[int, dict]:
    init_cfg, resp_cfg = make_configs(
        n=args.n, eps_prime=args.eps, rng_seed=args.rng_seed,
        eps_qkd=args.eps_qkd, tag_len=args.tag_len)
    result = run_handshake(init_cfg, resp_cfg, tamper=args.tamper)
    if args.dump:
        Path(args.dump).write_text(dump_transcript(result.messages),
                                   encoding="utf-8")
    doc = {"outcome": result.outcome, "n": args.n,
           "eps_prime_neg_log2": args.eps.neg_log2,
           "qkd_budget_bits": result.params.qkd_budget,
           "tamper": args.tamper or "none",
           "message_count": len(result.messages)}
    if result.outcome == OUTCOME_SUCCESS:
        ini = result.initiator_finals
        rsp = result.responder_finals
        match = (ini.iats == rsp.iats and ini.rats == rsp.rats
                 and ini.sec_state_next == rsp.sec_state_next)
        doc["finals_match"] = str(match).lower()
        doc["consumed_qkd_bits"] = ini.consumed_qkd
        doc["out_eps_neg_log2"] = ini.out_eps.neg_log2
        for idx, length in enumerate(result.params.seed_lens, start=1):
            doc[f"seed_len_{idx}"] = length
        doc["iats_hex"] = ini.iats.to_hex()
        doc["rats_hex"] = ini.rats.to_hex()
    else:
        doc["abort_reason"] = result.abort_reason.value
        doc["abort_party"] = result.abort_party
    print(kv_format(doc), end="")
    if args.verbose:
        print(dump_transcript(result.messages), end="", file=sys.stderr)
    expected = OUTCOME_ABORT if args.tamper else OUTCOME_SUCCESS
    ok = (result.outcome == expected
          and doc.get("finals_match", "true") == "true")
    return 0 if ok else 1, doc


def _cmd_mac_auth(args: argparse.Namespace) -> tuple[int, dict]:
    key = read_qbits(args.key)
    msg = read_qbits(args.msg)
    mac_key = split_mac_key(key, len(msg), args.tag_len)
    tag = its_mac_auth(mac_key, msg)
    if args.out:
        write_qbits(args.out, tag)
    print(tag.to01())
    return 0, {"msg_len": len(msg), "tag_len": args.tag_len,
               "key_len": len(key), "tag_bits": tag.to01()}


def _cmd_mac_verify(args: argparse.Namespace) -> tuple[int, dict]:
    key = read_qbits(args.key)
    msg = read_qbits(args.msg)
    tag = read_qbits(args.tag)
    mac_key = split_mac_key(key, len(msg), len(tag))
    ok = its_mac_verify(mac_key, msg, tag)
    verdict = "accept" if ok else "reject"
    print(verdict)
    return 0 if ok else 1, {"verdict": verdict, "msg_len": len(msg),
                            "tag_len": len(tag)}


# -- selftest ----------------------------------------------------------------


def _selftest_universality() -> str:
    checks = 0
    for n in range(2, 7):
        for m in range(1, n + 1):
            params = ExtractorParams.modified(n, m)
            for dv in range(1, 1 << n):
                delta = BitString.from_int(dv, n)
                p = zero_hash_probability(params, delta)
                if p * (1 << m) > 1:
                    raise AssertionError(
                        f"collision bound violated at n={n} m={m} "
                        f"delta={delta.to01()}: {p}")
                checks += 1
    # spot-check the pairwise form agrees with the delta form
    pair = collision_probability(ExtractorParams.modified(3, 2),
                                 BitString.from_str("110"),
                                 BitString.from_str("011"))
    if pair != zero_hash_probability(ExtractorParams.modified(3, 2),
                                     BitString.from_str("101")):
        raise AssertionError("pairwise and delta collision forms disagree")
    return f"universality: {checks} delta checks at n<=6"


def _selftest_surjectivity() -> str:
    n, checks = 5, 0
    for m in range(1, n + 1):
        params = ExtractorParams.modified(n, m)
        for sv in range(1 << params.seed_len):
            seed = BitString.from_int(sv, params.seed_len)
            if matrix_rank_gf2(hash_matrix(SeededHash(params, seed))) != m:
                raise AssertionError(f"rank deficit at n={n} m={m} seed={sv}")
            checks += 1
    return f"surjectivity: {checks} seeds at n=5"


def _seeded_block(rng, n: int, m: int, modified: bool):
    params = (ExtractorParams.modified(n, m) if modified
              else ExtractorParams.regular(n, m))
    seed = BitString.from_u8(
        rng.integers(0, 2, params.seed_len, dtype=np.uint8))
    x = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
    return SeededHash(params, seed), x


def _selftest_fast_path() -> str:
    rng = np.random.default_rng(20240817)
    # 300 small random shapes through the form the cost model picks
    for trial, n in enumerate(rng.integers(1, 513, 300)):
        n = int(n)
        m = int(rng.integers(1, n + 1))
        h, x = _seeded_block(rng, n, m, trial % 2 == 1)
        if extract(h, x) != extract_fast(h, x):
            raise AssertionError(f"fast path mismatch at n={n} m={m}")
    # every form of the block product on blocks of both families, up to
    # a 32 kbit privacy amplification block (FFT in 16,384-point blocks)
    forms = {"rows": _kernels._rows, "columns": _kernels._columns,
             "bytes": _kernels._bytes, "FFT": _kernels._fft}
    blocks = ((8192, 3000, True), (8192, 2271, False), (32768, 15492, True))
    for n, m, modified in blocks:
        h, x = _seeded_block(rng, n, m, modified)
        want = extract(h, x).to_int()
        d, xr, k, tail = _kernels._operands(modified, h.seed.to_int(), n, m,
                                            x.to_int())
        for name, form in forms.items():
            if form(d, xr, k, m) ^ tail != want:
                raise AssertionError(f"{name} form mismatch at n={n} m={m}")
    # a block the cost model gives the FFT, checked on 64 seeded rows by
    # a direct dot product: row i of [T | I] has s[i - j] at j <= i,
    # s[m - 1 + j - i] at i < j < K and the identity at K + i
    n, m = 200_000, 115_000
    k = n - m
    if _kernels._forms(k, m)[0] != "_fft":
        raise AssertionError(f"n={n} m={m} no longer ranks the FFT first")
    h, x = _seeded_block(rng, n, m, True)
    out, s, xs = extract_fast(h, x).to_u8(), h.seed.to_u8(), x.to_u8()
    j = np.arange(k)
    for i in rng.choice(m, size=64, replace=False).tolist():
        row = s[np.where(i >= j, i - j, m - 1 + j - i)].astype(np.int64)
        if out[i] != (int(row @ xs[:k]) + int(xs[k + i])) & 1:
            raise AssertionError(f"FFT block row {i} mismatch at n={n}")
    return (f"fast path: 300 random cases match the reference; the "
            f"{', '.join(forms)} forms match it on {len(blocks)} blocks up "
            f"to 32 kbit; a {n}-bit FFT block matches 64 rows by direct "
            "dot product")


def _selftest_fixtures() -> str:
    reports = [
        ("basic", qlhl_basic(100, SecurityLevel.zero(), SecurityLevel(32.0)),
         38),
        ("general", qlhl_general(80, SecurityLevel.zero(), 50,
                                 SecurityLevel.zero(), 63,
                                 SecurityLevel(20.0)), 29),
        ("public-seed", public_seed_bound(
            128, 256, SecurityLevel.zero(), SecurityLevel.zero(),
            SecurityLevel.zero(), SecurityLevel(32.0), True), 66),
        ("NoReveal", combine_case_bound(
            ThreatCase.NO_REVEAL, 256, 256, SecurityLevel.zero(),
            SecurityLevel.zero(), SecurityLevel(32.0)), 194),
        ("RevealedKey", combine_case_bound(
            ThreatCase.REVEALED_KEY, 256, 256, SecurityLevel.zero(),
            SecurityLevel.zero(), SecurityLevel(32.0)), 66),
    ]
    for name, report, _ in reports:
        terms = report.terms
        added = (terms["hmin_input"] + terms["seed_penalty"]
                 - terms["hash_penalty_bits"] + terms["constant_2"])
        if abs(added - terms["raw_value"]) > 1e-9:
            raise AssertionError(f"terms of the {name} fixture add up to "
                                 f"{added}, not {terms['raw_value']}")
    fixtures = [(report.max_output_len, want) for _, report, want in reports]
    fixtures += [(budget(256, SecurityLevel(64.0)).qkd_budget, 2808),
                 (budget(128, SecurityLevel(32.0)).qkd_budget, 1400)]
    for got, want in fixtures:
        if got != want:
            raise AssertionError(f"fixture mismatch: got {got}, want {want}")
    return (f"fixtures: {len(fixtures)} formula values exact, "
            f"{len(reports)} term breakdowns add up")


def _selftest_mac() -> str:
    msg_len, tag_len = 5, 2
    key_len = msg_len - 1 + tag_len
    msg = BitString.from_str("10110")
    forgeries = [(BitString.from_str("10111"), BitString.from_str("00")),
                 (BitString.from_str("01010"), BitString.from_str("11"))]
    for forged_msg, forged_tag in forgeries:
        accepted = 0
        for kv in range(1 << key_len):
            key = split_mac_key(BitString.from_int(kv, key_len), msg_len,
                                tag_len)
            its_mac_auth(key, msg)  # tag the honest message first
            if its_mac_verify(key, forged_msg, forged_tag):
                accepted += 1
        if accepted * (1 << tag_len) != (1 << key_len):
            raise AssertionError(
                f"forgery acceptance {accepted}/{1 << key_len} is not "
                f"2^-{tag_len}")
    return "one-shot MAC: forgery rate exactly 2^-2 over all 128 keys"


def _selftest_chained_mac() -> str:
    rng = np.random.default_rng(20240818)
    n, t = 48, 16
    b = transcript_mac_block_bits(n, t)
    fk = BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))
    # bit-level model: the hash rows and the blocks of the framed stream
    # as ints, one Galois step and one parity per row for each block
    mat = hash_matrix(SeededHash(ExtractorParams.modified(b + t, t),
                                 fk[:n - t]))[:, :b]
    rows = [int("".join(map(str, row)), 2) for row in mat]
    # one message framed below the length from which the block gather
    # changes, one at it
    counts = []
    for size in (13000, _WINDOW_BYTES - 8):
        message = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        framed = (8 * len(message)).to_bytes(8, "big") + message
        nblocks = -(-8 * len(framed) // b)
        stream = f"{int.from_bytes(framed, 'big'):0{8 * len(framed)}b}"
        stream += "0" * (nblocks * b - len(stream))
        state = 0
        for k in range(nblocks):
            block = int(stream[k * b:(k + 1) * b], 2)
            state <<= 1
            if state >> t:
                state ^= (1 << t) | _GALOIS_TAPS[t]
            for i, row in enumerate(rows):
                state ^= ((row & block).bit_count() & 1) << i
        want = BitString([(state >> i) & 1 for i in range(t)]) ^ fk[n - t:]
        if nblocks <= _kernels._MAC_FOLD_BLOCKS:
            raise AssertionError("chained-MAC case fits in one fold step")
        tag = transcript_mac(fk, message, t)
        if tag != want:
            raise AssertionError(f"chained tag {tag.to01()} != model "
                                 f"{want.to01()} over {nblocks} blocks")
        tampered = bytearray(message)
        tampered[-1] ^= 0x10
        if transcript_mac_verify(fk, bytes(tampered), tag):
            raise AssertionError("chained MAC accepted a one-bit tamper")
        counts.append(nblocks)
    return (f"chained MAC: {counts[0]}- and {counts[1]}-block tags, one "
            f"framed below {_WINDOW_BYTES} bytes and one at it, match "
            "the bit model, one-bit tampers rejected")


def _selftest_extract_fixture() -> str:
    h = SeededHash(ExtractorParams.modified(3, 2), BitString.from_str("10"))
    got = extract(h, BitString.from_str("110"))
    if got != BitString.from_str("00"):
        raise AssertionError(f"3-bit fixture produced {got.to01()}")
    if extract_fast(h, BitString.from_str("110")) != got:
        raise AssertionError("fast path disagrees on the 3-bit fixture")
    return "extract fixture: n=3 seed=10 input=110 -> 00"


def _cmd_selftest(args: argparse.Namespace) -> tuple[int, dict]:
    suites = [_selftest_extract_fixture, _selftest_universality,
              _selftest_surjectivity, _selftest_fast_path,
              _selftest_fixtures, _selftest_mac, _selftest_chained_mac]
    results = {}
    for suite in suites:
        name = suite.__name__.removeprefix("_selftest_")
        try:
            print(f"ok: {suite()}")
            results[name] = "ok"
        except AssertionError as exc:
            print(f"FAIL: {exc}")
            results[name] = "fail"
    return int("fail" in results.values()), results


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qlhl", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    leaves = []

    def subgroup(name, help, dest):
        """A subcommand that takes one of its own subcommands."""
        return top.add_parser(name, help=help).add_subparsers(
            dest=dest, required=True, parser_class=_Parser)

    def command(group, name, handler, help, verbose=True) -> _Parser:
        """A leaf subcommand running `handler`; its --report (and
        --verbose) follow its own arguments, added once all exist."""
        p = group.add_parser(name, help=help)
        p.set_defaults(func=handler)
        leaves.append((p, verbose))
        return p

    p = command(top, "extract", _cmd_extract,
                "apply a seeded hash to input bits")
    p.add_argument("--family", choices=sorted(_FAMILY_NAMES),
                   default="modified-toeplitz")
    p.add_argument("--in", dest="infile", required=True, metavar="X.QBITS")
    p.add_argument("--seed", required=True, metavar="S.QBITS")
    p.add_argument("--m", type=int, required=True, help="output bits")
    p.add_argument("--out", metavar="OUT.QBITS")
    p.add_argument("--naive", action="store_true",
                   help="use the reference path instead of the kernels")

    bsub = subgroup("bound", "evaluate an output-length bound", "bound_kind")

    p = command(bsub, "qlhl", _cmd_bound_qlhl,
                "uniform-seed leftover-hash bound")
    p.add_argument("--hmin", type=float, required=True)
    p.add_argument("--eps", type=parse_eps, required=True,
                   help="hashing closeness parameter")
    p.add_argument("--eps-smooth", type=parse_eps, default=SecurityLevel.zero())

    p = command(bsub, "weak-seed", _cmd_bound_weak_seed,
                "deficient seed, penalty paid twice")
    p.add_argument("--hmin", type=float, required=True)
    p.add_argument("--seed-len", type=int, required=True)
    p.add_argument("--hmin-seed", type=float, required=True)
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--eps-smooth", type=parse_eps, default=SecurityLevel.zero())

    p = command(bsub, "general", _cmd_bound_general,
                "nonuniform seed, penalty paid once")
    p.add_argument("--hmin", type=float, required=True)
    p.add_argument("--hmin-seed", type=float, required=True)
    p.add_argument("--seed-len", type=int, required=True)
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--eps-input", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--eps-seed", type=parse_eps, default=SecurityLevel.zero())

    p = command(bsub, "case", _cmd_bound_case,
                "two-key mixing bound per threat case")
    p.add_argument("--case", choices=sorted(_THREAT_NAMES), required=True)
    p.add_argument("--len1", type=int, required=True)
    p.add_argument("--len2", type=int, required=True)
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--eps1", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--eps2", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)

    p = command(bsub, "public", _cmd_bound_public, "public-seed mixing bound")
    p.add_argument("--len1", type=int, required=True)
    p.add_argument("--len2", type=int, required=True)
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--eps1", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--eps2", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--eps-seed", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--reveal-allowed", action="store_true")

    p = command(top, "alpha", _cmd_alpha,
                "balanced seed/input split of two keys", verbose=False)
    p.add_argument("--len1", type=int, required=True)
    p.add_argument("--len2", type=int, required=True)

    bssub = subgroup("bootstrap", "seed one extraction from two raw sources",
                     "bootstrap_step")

    p = command(bssub, "plan", _cmd_bootstrap_plan,
                "check geometry and entropy budget")
    p.add_argument("--x1", required=True, metavar="SPEC.KV")
    p.add_argument("--x2", required=True, metavar="SPEC.KV")
    p.add_argument("--out-len", type=int, required=True)
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--out", metavar="PLAN.KV")
    p.add_argument("--no-swap", action="store_true",
                   help="keep x1 as input and x2 as seed even if shorter")

    p = command(bssub, "run", _cmd_bootstrap_run,
                "execute a plan on sampled bits", verbose=False)
    p.add_argument("--plan", required=True, metavar="PLAN.KV")
    p.add_argument("--x1-bits", required=True, metavar="F1.QBITS")
    p.add_argument("--x2-bits", required=True, metavar="F2.QBITS")
    p.add_argument("--out", required=True, metavar="OUT.QBITS")

    p = command(top, "combine", _cmd_combine, "mix two secret keys into one")
    p.add_argument("--mode", choices=["private", "public"], required=True)
    p.add_argument("--key1", required=True, metavar="A.QBITS")
    p.add_argument("--spec1", required=True, metavar="A.KV")
    p.add_argument("--key2", required=True, metavar="B.QBITS")
    p.add_argument("--spec2", required=True, metavar="B.KV")
    p.add_argument("--seed", metavar="S.QBITS",
                   help="public-mode seed, |key1|+|key2|-1 bits")
    p.add_argument("--threat", choices=sorted(_THREAT_NAMES),
                   default="no-reveal")
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--eps-seed", type=parse_eps, default=SecurityLevel.zero())
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--revealed-key", type=int, choices=[1, 2])
    p.add_argument("--transcript", metavar="T.BIN")
    p.add_argument("--seed-after-keys", action="store_true",
                   help="assert the public seed postdates both keys")
    p.add_argument("--auto-truncate", action="store_true",
                   help="drop one bit of key2 when the total is even")
    p.add_argument("--requested-len", type=int)
    p.add_argument("--out", metavar="OUT.QBITS")

    p = command(top, "budget", _cmd_budget,
                "QKD bits one handshake run consumes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--lengths", metavar="L1,...,L9",
                   help="explicit per-key lengths overriding --n")

    hsub = subgroup("handshake", "hybrid handshake simulator",
                    "handshake_step")
    p = command(hsub, "simulate", _cmd_handshake_simulate,
                "run one two-party handshake")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--eps", type=parse_eps, default=SecurityLevel(64.0))
    p.add_argument("--eps-qkd", type=parse_eps, default=None)
    p.add_argument("--tag-len", type=int, default=None)
    p.add_argument("--tamper", metavar="mX:bitY",
                   help="flip one wire bit, e.g. m7:bit3")
    p.add_argument("--dump", metavar="TRANSCRIPT.LOG")
    p.add_argument("--rng-seed", type=int, default=0,
                   help="master seed every random draw derives from")

    msub = subgroup("mac", "one-shot hash-then-pad MAC; bounds impersonation "
                    "only, not substitution", "mac_step")
    p = command(msub, "auth", _cmd_mac_auth,
                "tag a message with a fresh key", verbose=False)
    p.add_argument("--key", required=True, metavar="K.QBITS")
    p.add_argument("--msg", required=True, metavar="M.QBITS")
    p.add_argument("--tag-len", type=int, required=True)
    p.add_argument("--out", metavar="TAG.QBITS")

    p = command(msub, "verify", _cmd_mac_verify, "check a tag", verbose=False)
    p.add_argument("--key", required=True, metavar="K.QBITS")
    p.add_argument("--msg", required=True, metavar="M.QBITS")
    p.add_argument("--tag", required=True, metavar="TAG.QBITS")

    command(top, "selftest", _cmd_selftest,
            "run the exhaustive oracle suites", verbose=False)

    for p, verbose in leaves:
        p.add_argument("--report", metavar="PATH",
                       help="write a flat key-value report to PATH")
        if verbose:
            p.add_argument("--verbose", action="store_true",
                           help="print term breakdowns or debug dumps on "
                                "stderr")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, doc = args.func(args)
        if args.report:
            Path(args.report).write_text(kv_format(doc), encoding="utf-8")
        return code
    except (Infeasible, BudgetExceeded) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
