"""Seeded operation streams for the four benchmark workloads.

A workload turns a seed into an endless, reproducible stream of
operations. Each operation carries its generated inputs, a closure that
calls the library (the only part the benchmark times), and a check that
judges the result outside the timed region.

The stream is a sequence of decks. A deck lists operation kinds, and a
kind fixes every parameter the library's running time depends on (sizes,
QBER, threat case, family, the message a tamper flips). The seed shuffles
each deck and draws everything else: key, seed, message and source bits,
which bit a tamper or forgery flips, and which key a threat case reveals.
Every operation of one kind therefore costs the same, up to contention
from outside the process, which lets the benchmark read each kind's cost
off the fastest of its latencies. Kinds that differ only in what the
check expects (a tag, a genuine verify, a forged verify) share a cost key
and pool their latencies.

The library is reached through module attributes looked up at call time
(`toeplitz.extract_fast`, `protocol.run_handshake`, ...), which is where
the traced run wraps it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from qlhl import bootstrap, bounds, combiner, ledger, toeplitz
from qlhl.bits import BitString, concat_all
from qlhl.bounds import ThreatCase
from qlhl.handshake import mac, protocol, schedule
from qlhl.ledger import EntropyKind, SecurityLevel, SourceSpec
from qlhl.toeplitz import ExtractorParams, Family, SeededHash, extract


class Op(NamedTuple):
    """One operation of a workload.

    Attributes:
        run: calls the library; the benchmark times this call alone.
        check: judges run's return value; True when it is correct.
        bits: input bits the operation consumes when it succeeds.
        refusal: exception type run must raise instead of returning, or
            None when it must return.
    """

    run: Callable[[], object]
    check: Callable[[object], bool]
    bits: int
    refusal: Optional[type] = None


def _bits(rng: np.random.Generator, n: int) -> BitString:
    return BitString.from_u8(rng.integers(0, 2, n, dtype=np.uint8))


def _flip(x: BitString, i: int) -> BitString:
    return BitString.from_int(x.to_int() ^ (1 << (len(x) - 1 - i)), len(x))


def _flip_byte_bit(data: bytes, i: int) -> bytes:
    out = bytearray(data)
    out[i // 8] ^= 0x80 >> (i % 8)
    return bytes(out)


class Workload:
    """A deck of operation kinds, shuffled deck after deck by the seed."""

    name = ""
    index = 0
    deck: tuple = ()
    # kinds run once, untimed, before measuring; default: every deck kind
    warmup_kinds: tuple = ()
    # decks run by each pass of a traced run
    trace_decks = 1

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self) -> Iterator[tuple]:
        """The (kind, operation) stream; every call restarts it."""
        self._rng = np.random.default_rng([self.seed, self.index])
        while True:
            for i in self._rng.permutation(len(self.deck)):
                yield self.deck[i], self.make(self.deck[i])

    def warmup(self) -> list:
        self._rng = np.random.default_rng([self.seed, self.index, 1])
        kinds = self.warmup_kinds or tuple(dict.fromkeys(self.deck))
        return [self.make(kind) for kind in kinds]

    def make(self, kind) -> Op:
        raise NotImplementedError

    def cost_key(self, kind):
        """Kinds with equal cost keys cost the same; default: the kind."""
        return kind


# -- pa_bulk -----------------------------------------------------------------

EC_EFFICIENCY = 1.16          # error-correction leak per bit, over h(QBER)
EPS_PA = SecurityLevel(64.0)
_M, _R = Family.MODIFIED, Family.REGULAR


def _h2(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class PaBulk(Workload):
    """Privacy amplification of raw QKD blocks: (n, family, QBER) kinds.

    Each deck of eight holds 3 x 4, 2 x 8, 2 x 16 and 1 x 32 kbit blocks
    with QBER spread over 1-8 %; one 8 kbit block uses the regular family.
    """

    name = "pa_bulk"
    index = 1
    deck = ((4096, _M, 0.01), (4096, _M, 0.045), (4096, _M, 0.08),
            (8192, _M, 0.025), (8192, _R, 0.06),
            (16384, _M, 0.015), (16384, _M, 0.07),
            (32768, _M, 0.04))
    warmup_kinds = ((4096, _M, 0.045), (4096, _R, 0.045))
    trace_decks = 4

    def make(self, kind):
        n, family, qber = kind
        hmin = n * (1.0 - _h2(qber))
        leaked = EC_EFFICIENCY * n * _h2(qber)
        m = math.floor((hmin - leaked) - 2.0 * EPS_PA.neg_log2 + 2.0)
        params = ExtractorParams(family, n, m)
        seed = _bits(self._rng, params.seed_len)
        x = _bits(self._rng, n)

        def run():
            sifted = SourceSpec("sifted", n, hmin, SecurityLevel(64.0),
                                EntropyKind.SMOOTH)
            spec = ledger.leak(sifted, leaked)
            report = bounds.qlhl_basic(spec.hmin, spec.eps, EPS_PA)
            h = SeededHash(ExtractorParams(family, n, report.max_output_len),
                           seed)
            return toeplitz.extract_fast(h, x)

        def check(out):
            return out == extract(SeededHash(params, seed), x)

        return Op(run, check, n)


# -- handshake ---------------------------------------------------------------


_SESSIONS = tuple((n, e) for n in (128, 256, 512) for e in (32.0, 64.0))


class Handshake(Workload):
    """Back-to-back sessions over (n, eps', tampered message) kinds.

    Each (n, eps') has 14 clean sessions (message 0) and 2 tampered ones
    per deck of 96, so one session in eight has one bit flipped in one
    message. The kind names that message, 1-8, because where a session
    aborts sets its cost; the tampered kinds cover all eight messages.
    The seed picks the bit's position within the message.
    """

    name = "handshake"
    index = 2
    deck = tuple(kind
                 for i, (n, e) in enumerate(_SESSIONS)
                 for kind in ((n, e, 0),) * 14
                 + ((n, e, 2 * i % 8 + 1), (n, e, 2 * i % 8 + 2)))
    warmup_kinds = ((128, 32.0, 0),)
    trace_decks = 1

    def make(self, kind):
        n, e, tampered = kind
        eps = SecurityLevel(e)
        init_cfg, resp_cfg = protocol.make_configs(
            n, eps, rng_seed=int(self._rng.integers(2 ** 31)))
        transforms = ()
        if tampered:
            where = float(self._rng.random())

            def flip(data: bytes) -> bytes:
                return _flip_byte_bit(data, int(where * 8 * len(data)))

            transforms = ((tampered, flip),)
        want_qkd = schedule.budget(n, eps).qkd_budget

        def run():
            channel = protocol.InMemoryChannel(transforms=transforms)
            return protocol.run_handshake(init_cfg, resp_cfg, channel)

        def check(result):
            if tampered:
                return result.outcome == protocol.OUTCOME_ABORT
            fi, fr = result.initiator_finals, result.responder_finals
            return (result.outcome == protocol.OUTCOME_SUCCESS
                    and fi is not None and fi == fr
                    and fi.consumed_qkd == want_qkd
                    and len(fi.iats) == len(fi.rats) == n)

        return Op(run, check, want_qkd)


# -- auth --------------------------------------------------------------------

TRANSCRIPT_TAG_BITS = 64


def chained_mac_reference(fk: BitString, message: bytes, t: int) -> BitString:
    """Chained transcript tag computed from the construction's definition.

    Per block the t-bit state takes one Galois step and absorbs the
    product of the Toeplitz block (first n - t key bits) with the data
    block; the tag is the final state xor the last t key bits. Independent
    of the library's packing and kernels.
    """
    n = len(fk)
    b = n - 2 * t + 1
    s = fk[:n - t].to_u8().astype(np.int64)
    rows = np.arange(t)[:, None]
    cols = np.arange(b)[None, :]
    block = s[np.where(rows >= cols, rows - cols, t - 1 + (cols - rows))]
    header = np.unpackbits(np.frombuffer(
        (8 * len(message)).to_bytes(8, "big"), dtype=np.uint8))
    stream = np.concatenate(
        [header, np.unpackbits(np.frombuffer(message, dtype=np.uint8))])
    stream = np.concatenate(
        [stream, np.zeros((-stream.size) % b, dtype=np.uint8)])
    data = stream.reshape(-1, b)
    columns = block.T.astype(np.float32)
    weights = np.left_shift(np.uint64(1), np.arange(t, dtype=np.uint64))
    taps = mac._GALOIS_TAPS[t]
    top, mask = 1 << (t - 1), (1 << t) - 1
    state = 0
    for start in range(0, data.shape[0], 1024):
        # exact: every dot product is an integer below 2**24
        chunk = data[start:start + 1024].astype(np.float32)
        parity = (chunk @ columns).astype(np.int64) & 1
        for mixed in (parity.astype(np.uint64) * weights).sum(
                axis=1, dtype=np.uint64).tolist():
            fb = taps if state & top else 0
            state = ((state << 1) & mask) ^ fb ^ mixed
    tag = BitString.from_u8(np.array([(state >> i) & 1 for i in range(t)],
                                     dtype=np.uint8))
    return tag ^ fk[n - t:]


class Auth(Workload):
    """MAC tagging and verification over (scheme, action, size, key) kinds.

    One-shot tags cover 1 and 16 kbit messages with 32- and 64-bit tags;
    chained tags cover 4, 32 and 256 KB messages under 256- and 512-bit
    keys. Tag, genuine verify and forged verify come in equal numbers; a
    forgery flips one seeded bit of the message or of the tag. The five
    shapes differ in cost by at least a factor of two, so the median and
    the 90th percentile of a deck's 15 slots each fall in the middle of
    one shape's three slots rather than between two shapes.
    """

    name = "auth"
    index = 3
    deck = tuple(
        (scheme, action, size, variant)
        for scheme, shapes in (
            ("its", ((1024, 32), (16384, 64))),
            ("chained", ((4096, 256), (32768, 512), (262144, 512))))
        for action in ("tag", "verify", "forged")
        for size, variant in shapes)
    warmup_kinds = (("its", "tag", 1024, 32), ("its", "verify", 1024, 32),
                    ("chained", "tag", 4096, 256),
                    ("chained", "verify", 4096, 256))
    trace_decks = 3

    def make(self, kind):
        scheme, action, size, variant = kind
        if scheme == "its":
            return self._one_shot(action, size, variant)
        return self._chained(action, size, variant)

    def cost_key(self, kind):
        scheme, _action, size, variant = kind
        return scheme, size, variant

    def _forge(self, msg_len: int, tag: BitString):
        """Pick which bit a forgery flips: (message bit or None, tag)."""
        if self._rng.random() < 0.5:
            return int(self._rng.integers(msg_len)), tag
        return None, _flip(tag, int(self._rng.integers(len(tag))))

    def _one_shot(self, action, nbits, t):
        key = _bits(self._rng, mac.one_shot_key_len(nbits, t))
        mk = mac.MacKey(key[:nbits - 1], key[nbits - 1:])
        msg = _bits(self._rng, nbits)
        ref = extract(SeededHash(ExtractorParams.modified(nbits, t),
                                 mk.hash_seed), msg) ^ mk.pad
        if action == "tag":
            return Op(lambda: mac.its_mac_auth(mk, msg),
                      lambda out: out == ref, nbits)
        tag = ref
        if action == "forged":
            flip, tag = self._forge(nbits, ref)
            if flip is not None:
                msg = _flip(msg, flip)
        want = action == "verify"
        return Op(lambda: mac.its_mac_verify(mk, msg, tag),
                  lambda out: out is want, nbits)

    def _chained(self, action, nbytes, key_len):
        t = TRANSCRIPT_TAG_BITS
        fk = _bits(self._rng, key_len)
        message = self._rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
        ref = chained_mac_reference(fk, message, t)
        if action == "tag":
            return Op(lambda: mac.transcript_mac(fk, message, t),
                      lambda out: out == ref, 8 * nbytes)
        tag = ref
        if action == "forged":
            flip, tag = self._forge(8 * nbytes, ref)
            if flip is not None:
                message = _flip_byte_bit(message, flip)
        want = action == "verify"
        return Op(lambda: mac.transcript_mac_verify(fk, message, tag),
                  lambda out: out is want, 8 * nbytes)


# -- keymix ------------------------------------------------------------------

EPS_MIX = SecurityLevel(32.0)
EPS_KEY = SecurityLevel(64.0)
LAMBDA = 32.0


def modified_by_columns(seed: BitString, x: BitString, m: int) -> BitString:
    """[T | I] . x from the family's definition, one column at a time.

    T . x_head is the xor of the block columns that the set bits of
    x_head select. Column j holds seed bit i - j at rows i >= j and seed
    bit m - 1 + j - i above, so each column is the previous one shifted
    down a row with seed bit m - 1 + j entering at the top. The loop runs
    n - m times, where the reference `extract` walks m rows; the key-mixing
    outputs are long and their Toeplitz blocks narrow.
    """
    n = len(x)
    k = n - m
    s = seed.to01()
    xv = x.to_int()
    tail = xv & ((1 << m) - 1)
    if k == 0:
        return BitString.from_int(tail, m)
    head = xv >> m
    col = int(s[:m], 2)
    acc = 0
    for j in range(k):
        if (head >> (k - 1 - j)) & 1:
            acc ^= col
        if j + 1 < k:
            col = (col >> 1) | (int(s[m + j]) << (m - 1))
    return BitString.from_int(acc ^ tail, m)


def _private_reference(key1: BitString, key2: BitString,
                       out_len: int) -> BitString:
    """Private-seed combine by its definition: balanced alpha split."""
    if (len(key1) + len(key2)) % 2 == 0:
        key2 = key2[:len(key2) - 1]
    total = len(key1) + len(key2)
    seed_len = (total - 1) // 2
    a1 = len(key1) * (total - 1) // (2 * total)
    a2 = seed_len - a1
    return modified_by_columns(key1[:a1] + key2[:a2], key1[a1:] + key2[a2:],
                               out_len)


def _mixed_ok(result, reference) -> bool:
    """Combined output matches its definition and its reported length."""
    out = result.output
    return (1 <= len(out) <= result.report.max_output_len
            and result.out_spec.length == len(out)
            and out == reference(len(out)))


class KeyMix(Workload):
    """Small key-management operations; two kinds in twelve are refused.

    Keys are long (up to 4096 bits) where the output is nearly as long as
    the input, which leaves a narrow Toeplitz block, and short (128-600
    bits) where the block is about as wide as the input (reveal cases,
    bootstrap), so per-call work outside the kernel stays a large share of
    every kind.
    """

    name = "keymix"
    index = 4
    deck = (
        ("private", ThreatCase.NO_REVEAL, (4096, 2048)),
        ("private", ThreatCase.NO_REVEAL, (128, 256)),
        ("private", ThreatCase.REVEALED_KEY, (512, 384)),
        ("private", ThreatCase.REVEAL_OUTPUT_AND_KEY, (256, 512)),
        ("private", ThreatCase.CONTROLLED_KEY, (1024, 1024)),   # refused
        ("public", ThreatCase.NO_REVEAL, (4096, 1024)),
        ("public", ThreatCase.REVEALED_KEY, (256, 384)),
        ("public", ThreatCase.REVEAL_OUTPUT, (512, 128)),
        ("many", None, (128, 1024, 4096)),
        ("many", None, (256, 512, 2048, 3072)),
        ("bootstrap", True, (512, 600)),
        ("bootstrap", False, (384, 400)),                       # refused
    )
    trace_decks = 500

    def make(self, kind):
        mode, variant, lens = kind
        if mode == "many":
            return self._many(lens)
        if mode == "bootstrap":
            return self._bootstrap(variant, *lens)
        return self._pair(mode, variant, *lens)

    def _pair(self, mode, threat, len1, len2):
        key1, key2 = _bits(self._rng, len1), _bits(self._rng, len2)
        spec1 = SourceSpec.secure("qkd", len1, EPS_KEY)
        spec2 = combiner.model_pqc_key(len2, EPS_KEY)
        extra = {}
        if threat in (ThreatCase.REVEALED_KEY,
                      ThreatCase.REVEAL_OUTPUT_AND_KEY):
            extra["revealed_key"] = int(self._rng.integers(1, 3))
        if threat in (ThreatCase.REVEAL_OUTPUT,
                      ThreatCase.REVEAL_OUTPUT_AND_KEY):
            extra.update(lambda1=LAMBDA, lambda2=LAMBDA)
        if mode == "private":
            req = combiner.CombineRequest(
                key1, spec1, key2, spec2, combiner.CombineMode.PRIVATE_SEED,
                EPS_MIX, threat, auto_truncate=True, **extra)

            def run():
                return combiner.combine_private(req)

            def reference(n):
                return _private_reference(key1, key2, n)
        else:
            seed = _bits(self._rng, len1 + len2 - 1)
            req = combiner.CombineRequest(
                key1, spec1, key2, spec2, combiner.CombineMode.PUBLIC_SEED,
                EPS_MIX, threat, seed=seed, seed_after_keys=True, **extra)

            def run():
                return combiner.combine_public(req)

            def reference(n):
                return modified_by_columns(seed, key1 + key2, n)

        if threat is ThreatCase.CONTROLLED_KEY and mode == "private":
            return Op(run, lambda out: False, 0, bootstrap.Infeasible)
        return Op(run, lambda res: _mixed_ok(res, reference), len1 + len2)

    def _many(self, lens):
        keys = [(_bits(self._rng, n), SourceSpec.secure(f"k{i}", n, EPS_KEY))
                for i, n in enumerate(lens)]
        seed = _bits(self._rng, sum(lens) - 1)
        data = concat_all(bits for bits, _ in keys)

        def run():
            return combiner.combine_public_many(
                keys, seed, SecurityLevel.zero(), EPS_MIX,
                seed_after_keys=True)

        return Op(run, lambda res: _mixed_ok(
            res, lambda n: modified_by_columns(seed, data, n)), sum(lens))

    def _bootstrap(self, feasible, len1, len2):
        bias = 0.45
        sim1 = bootstrap.WeakSourceSim(
            len1, math.floor(-len1 * math.log2(1.0 - bias)),
            bootstrap.SourceModel.BIASED_IID,
            rng_seed=int(self._rng.integers(2 ** 31)), bias=bias)
        sim2 = bootstrap.WeakSourceSim(
            len2, math.floor(0.9 * len2), bootstrap.SourceModel.FLAT_K,
            rng_seed=int(self._rng.integers(2 ** 31)))
        x1, x2 = (bootstrap.sample_weak_source(sim1),
                  bootstrap.sample_weak_source(sim2))
        spec1, spec2 = sim1.to_spec("x1"), sim2.to_spec("x2")
        # largest certifiable output; one bit more is an entropy shortfall
        most = math.floor(spec1.hmin + spec2.hmin - len2
                          - 2.0 * EPS_MIX.neg_log2 + 2.0)
        out_len = max(1, most // 2) if feasible else most + 1

        def run():
            plan = bootstrap.plan_bootstrap(spec1, spec2, out_len, EPS_MIX)
            return bootstrap.run_bootstrap(plan, x1, x2)

        if not feasible:
            return Op(run, lambda out: False, 0, bootstrap.Infeasible)

        def check(result):
            out, spec = result
            return (out == modified_by_columns(x2[:len1 - 1], x1, out_len)
                    and spec.length == out_len == len(out))

        return Op(run, check, len1 + len2)


WORKLOADS = {w.name: w for w in (PaBulk, Handshake, Auth, KeyMix)}
