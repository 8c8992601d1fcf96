"""Two-party hybrid key agreement simulator with an ITS key schedule.

Message flow (I = initiator, R = responder; {x}_P is one-time-pad
encryption of x under pad segment P):

    m1  I -> R   eph_pk, n_I
    m2  R -> I   c_pq, id_qkd, n_R, s1
                   stage 1: k1 || IHTS || RHTS
    m3  R -> I   {cert_R}_RHTS
    m4  I -> R   {c_I}_IHTS, s2
                   stage 2: k2 || IAHTS || RAHTS
    m5  I -> R   {cert_I}_IAHTS
    m6  R -> I   {c_R}_RAHTS, s3
                   stage 3: k3 || fk_I || fk_R
    m7  I -> R   {IF}_IAHTS, s4        IF tags m1..m6 under fk_I
    m8  R -> I   {RF}_RAHTS            RF tags m1..m7 under fk_R
                   stage 4: IATS || RATS || SecState'

_STEPS below is this flow as a table: the sender of each message and the
one step that builds it and the one that checks it, for either role.
A receiver decodes each message once (`_expect`) and checks its type,
field count and every field size against wire.FIELDS; `receive` then
hands the fields to the step, whose own check (QKD id, certificate
trust, decapsulation or finish tag) runs. Both finish steps compute
their padded tag in one helper (`_padded_tag`).

Which keys each stage hashes, in what order, which of them is secure and
what it emits is schedule.STAGES; a party reads its stage inputs from
there and keeps only each stage's label index (_STAGE_LABELS) and, per
PRF key, its label index and the secret it expands (_PRF_KEYS). Every
key, the pre-shared block "qkd" included, lives under its name in the
party's `intermediate` dict.

Each stage i hashes (keys || label || transcript-core-so-far) with the
public seed s_i carried on the wire. The transcript fed to a stage is
the "core" form (seed fields emptied) so seed lengths are computable
before drawing; MAC tags and the PRF contexts bind the full wire bytes.
Each party builds a message's core from what it already holds: the
sender from the fields it encodes, the receiver from the decoded fields.
Stage seeds are one bit shorter than their input, sized at runtime from
the actual transcript and the key lengths STAGES implies; for stage 4
the seed is drawn at m7 using the fixed size of m8, whose bytes enter
the stage only after the exchange.

What a party computes once per run and what per message. The schedule
geometry (ScheduleParams from `budget`, with each stage's output
lengths, stage eps and hash penalty) is public and kept by the schedule
module across runs; a party adds, when it starts, the fixed part of
each stage's seed length (keys, label and, for stage 4, m8) and its
field sizes. Per message it frames the message once, keeps its core as
a running int of the core transcript and that transcript's byte count,
packs a seed from one draw, and xors pads and KEM masks as ints. Per
stage it builds the traffic bits from the running int, without joining
the transcript again. Nothing secret outlives the run: the kept values
are public parameters only, and a RunResult holds the finals, the public
parameters and the wire bytes, but neither party.

Pads are carved as disjoint segments of the named handshake-traffic
secrets in a fixed order on both sides; running out is a hard error,
never silent reuse. The PRF-derived keys (from the KEM secrets and the
previous session state) are computationally secure only; each stage's
information-theoretic floor comes from the one chained/pre-shared key
in its input, and the epsilon ledger of the finals folds the QKD
imperfection plus each stage's seed and extraction failures in order.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from ..bits import BitString, is_bit_count
from ..ledger import SecurityLevel, eps_sum
from .mac import transcript_mac
from .providers import (KemKeyPair, MockKem, MockQkdStore, UnknownQkdIdError,
                        prf_expand)
from .schedule import STAGES, ScheduleParams, budget, schedule_stage
from .wire import FIELDS, SEED_FIELD_INDEX, WireError, core_form, \
    encode_message, decode_message, field_to_bits, with_seed
# no longer called here; perfbench's tracing still resolves it by this path
from .wire import core_of_wire  # noqa: F401

# domain-separation constants: 1..8, each 8 ASCII bytes = 64 bits
LABELS = {i: f"QLHL/L{i}".encode() + b"\0" for i in range(1, 9)}
# the same labels as the bit strings a stage hashes
LABEL_BITS = {i: BitString.from_bytes(label) for i, label in LABELS.items()}

NONCE_BYTES = 4
QKD_ID_BYTES = 8

# message index -> stage whose seed it carries (seeds go out in stage order)
_SEED_STAGE = {index: stage
               for stage, index in enumerate(sorted(SEED_FIELD_INDEX), 1)}

# stage -> the label index its extraction hashes; schedule.STAGES names
# its keys
_STAGE_LABELS = {1: 3, 2: 5, 3: 7, 4: 8}
# PRF key -> (its label index, the party attribute holding the secret it
# expands: the last KEM secret or the previous session state)
_PRF_KEYS = {"k_SecState": (1, "sec_state"), "k_pq": (2, "shared"),
             "k_pq_I": (4, "shared"), "k_pq_R": (6, "shared")}


class AbortReason(enum.Enum):
    BAD_MESSAGE = "BadMessage"
    CERT_UNTRUSTED = "CertUntrusted"
    UNKNOWN_QKD_ID = "UnknownQkdId"
    MAC_FAIL_IF = "MacFailIF"
    MAC_FAIL_RF = "MacFailRF"
    CHANNEL_LOSS = "ChannelLoss"


class HandshakeAbort(Exception):
    """A party stopped the run; carries who and why."""

    def __init__(self, reason: AbortReason, party: str, detail: str = ""):
        super().__init__(f"{party} aborted: {reason.value}"
                         + (f" ({detail})" if detail else ""))
        self.reason = reason
        self.party = party
        self.detail = detail


class PadExhaustedError(RuntimeError):
    """A one-time pad was asked for more bits than it holds."""


class ChannelClosed(Exception):
    """The transport dropped before the protocol finished."""


class OneTimePad:
    """Sequentially carved pad segments from one secret; never reuses."""

    def __init__(self, bits: BitString, name: str):
        self._bits = bits
        self._name = name
        self._pos = 0

    def take(self, nbits: int) -> BitString:
        """The next nbits of the pad; a refused size leaves the cursor."""
        if not is_bit_count(nbits) or nbits < 0:
            raise ValueError(f"pad {self._name}: segment size must be a "
                             f"non-negative integer, got {nbits!r}")
        end = self._pos + nbits
        if end > len(self._bits):
            raise PadExhaustedError(
                f"pad {self._name} exhausted: need {nbits} bits at offset "
                f"{self._pos} of {len(self._bits)}")
        segment = self._bits[self._pos:end]
        self._pos = end
        return segment


@dataclass(frozen=True)
class TamperSpec:
    """Flip one bit of one in-flight message.

    bit_index counts from the first (most significant) bit of the framed
    wire bytes, header included.
    """

    message_index: int
    bit_index: int

    def __post_init__(self):
        if not 1 <= self.message_index <= 8:
            raise ValueError("message index must be 1..8")
        if self.bit_index < 0:
            raise ValueError("bit index must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "TamperSpec":
        m = re.fullmatch(r"m([1-8]):bit(\d+)", text.strip())
        if not m:
            raise ValueError(f"tamper spec must look like 'm7:bit3', "
                             f"got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def apply(self, data: bytes) -> bytes:
        if self.bit_index >= 8 * len(data):
            raise ValueError(f"bit {self.bit_index} out of range for a "
                             f"{8 * len(data)}-bit message")
        out = bytearray(data)
        out[self.bit_index // 8] ^= 0x80 >> (self.bit_index % 8)
        return bytes(out)


class InMemoryChannel:
    """In-order exactly-once delivery with optional fault injection.

    transforms is a list of (message_index, fn) applied in order to
    matching messages in flight; run_handshake puts a TamperSpec's flip
    first. drop_after=k loses every message after the k-th.
    """

    def __init__(self, transforms=(), drop_after: Optional[int] = None):
        self.transforms = list(transforms)
        self.drop_after = drop_after
        self.log: list = []

    def deliver(self, data: bytes) -> bytes:
        index = len(self.log) + 1
        if self.drop_after is not None and index > self.drop_after:
            raise ChannelClosed(f"transport closed before m{index}")
        for msg_index, fn in self.transforms:
            if msg_index == index:
                data = fn(data)
        self.log.append(data)
        return data


def default_tag_len(n: int) -> int:
    """Finish-tag width derived from the per-key length."""
    return min(64, max(4, n // 4))


@dataclass(frozen=True)
class HandshakeConfig:
    """Per-party configuration; the two parties share the starred parts.

    Attributes:
        n: per-key length in bits for all nine derived keys.
        eps_prime: per-stage extraction failure probability.
        rng_seed: master seed; every random draw derives from it.
        qkd_store: *shared* pre-shared key store.
        long_term: this party's static KEM keypair.
        trusted_certs: *shared* anchor set of certificate blobs.
        sec_state: *shared* secret state from the previous session.
        eps_qkd: imperfection of the pre-shared block.
        eps_seed: per-stage closeness of the public seeds to uniform.
        tag_len: finish-tag width; derived from n when omitted.
    """

    n: int
    eps_prime: SecurityLevel
    rng_seed: int
    qkd_store: MockQkdStore
    long_term: KemKeyPair
    trusted_certs: frozenset
    sec_state: BitString
    eps_qkd: SecurityLevel = field(default_factory=SecurityLevel.zero)
    eps_seed: SecurityLevel = field(default_factory=SecurityLevel.zero)
    tag_len: Optional[int] = None

    def __post_init__(self):
        if not 32 <= self.n <= 512 or self.n % 16:
            raise ValueError("per-key length must be 32..512 and divisible "
                             "by 16 (certificates and ciphertexts are n/2 "
                             "bits and must be whole bytes)")
        t = self.tag_bits
        if not 4 <= t <= 64:
            raise ValueError("tag length must be 4..64 bits")
        # also bounds t below n / 2, so the n/2-bit ciphertext pad and a
        # tag fit in one n-bit key
        if self.n < 3 * t - 1:
            raise ValueError("chained tags need n >= 3*tag_len - 1")
        if len(self.sec_state) != self.n:
            raise ValueError(f"session state must be {self.n} bits")

    @property
    def tag_bits(self) -> int:
        return self.tag_len if self.tag_len is not None \
            else default_tag_len(self.n)

    @property
    def kem_bytes(self) -> int:
        return self.n // 16


class Finals(NamedTuple):
    """What a party walks away with after a clean run."""

    iats: BitString
    rats: BitString
    sec_state_next: BitString
    out_eps: SecurityLevel
    consumed_qkd: int


class RunResult(NamedTuple):
    initiator_finals: Optional[Finals]
    responder_finals: Optional[Finals]
    outcome: str                      # "Success" or "Abort"
    abort_reason: Optional[AbortReason]
    abort_party: Optional[str]
    params: ScheduleParams
    messages: tuple                   # wire bytes as delivered


OUTCOME_SUCCESS = "Success"
OUTCOME_ABORT = "Abort"


class _Party:
    """Either role's transcript, schedule, pads, ledger and steps."""

    role = "party"
    peer = "party"
    rng_offset = 0

    def __init__(self, cfg: HandshakeConfig, params: ScheduleParams):
        self.cfg = cfg
        self.params = params
        # byte size of each fixed-size field kind in wire.FIELDS
        self.field_bytes = {"kem": cfg.kem_bytes, "nonce": NONCE_BYTES,
                            "id": QKD_ID_BYTES,
                            "tag": (cfg.tag_bits + 7) // 8}
        # stage -> the bits of its input besides the core transcript so
        # far: its keys (a PRF key is n bits) and 64 label bits, less the
        # one bit a seed is shorter than its input, and for stage 4 the
        # framed m8 (header and length-prefixed fixed fields)
        self.seed_base = {stage: 63 + sum(params.key_lens.get(key, cfg.n)
                                          for key in wiring.inputs)
                          for stage, wiring in STAGES.items()}
        self.seed_base[4] += 8 * (5 + sum(4 + self.field_bytes[kind]
                                          for kind in FIELDS[8]))
        self.sec_state = cfg.sec_state.to_bytes()
        self.rng = np.random.default_rng([cfg.rng_seed, self.rng_offset])
        self.kem = MockKem(cfg.n // 2, self.rng)
        self.transcript: list = []       # full wire bytes, own view
        # the seed-stripped twins, as one big-endian int and its bytes
        self.core_value = 0
        self.core_bytes = 0
        self.intermediate: dict = {}     # key name -> bits, "qkd" too
        self.pads: dict = {}             # pad name -> OneTimePad
        self.seeds: dict = {}            # stage -> public seed
        self.finals: Optional[Finals] = None

    def send(self, index: int) -> bytes:
        """Build message `index`, record it and return its wire bytes."""
        _, step, _, args, stage = _STEPS[index]
        fields = step(self, index, *args)
        seed_stage = _SEED_STAGE.get(index)
        if seed_stage is None:
            msg = core = encode_message(index, fields)
        else:       # framed with the seed field empty, which sizes the seed
            fields.insert(SEED_FIELD_INDEX[index], b"")
            core = encode_message(index, fields)
            nbits = self._seed_len(seed_stage, len(core))
            packed = np.packbits(self.rng.integers(
                0, 2, size=nbits, dtype=np.uint8)).tobytes()
            self.seeds[seed_stage] = BitString.from_bytes(packed, nbits)
            msg = with_seed(core, packed)
        self._append(msg, core)
        if stage:
            self._stage(stage)
        return msg

    def receive(self, index: int, data: bytes) -> None:
        """Check and record message `index`, then hand its fields to its
        step; aborts on any mismatch."""
        _, _, step, args, stage = _STEPS[index]
        step(self, index, *args, *self._expect(data, index))
        if stage:
            self._stage(stage)

    # -- plumbing ---------------------------------------------------------

    def _abort(self, reason: AbortReason, detail: str = ""):
        raise HandshakeAbort(reason, self.role, detail)

    def _append(self, msg: bytes, core: bytes) -> None:
        self.transcript.append(msg)
        self.core_value = (self.core_value << 8 * len(core)) \
            | int.from_bytes(core, "big")
        self.core_bytes += len(core)

    def _full(self, upto: Optional[int] = None) -> bytes:
        return b"".join(self.transcript[:upto])

    def _expect(self, data: bytes, index: int) -> list:
        """Decode message `index` once and check it against FIELDS; record
        it with its core and keep the seed it carries.

        Returns the payload fields, seed and tag as BitStrings; any
        mismatch aborts with BadMessage.
        """
        kinds = FIELDS[index]
        try:
            msg_type, fields = decode_message(data)
            if msg_type != index:
                raise WireError(f"expected m{index}, got m{msg_type}")
            if len(fields) != len(kinds):
                raise WireError(f"m{index} must carry {len(kinds)} fields, "
                                f"got {len(fields)}")
            values = []
            for kind, value in zip(kinds, fields):
                if kind == "seed":      # sized from the message's core
                    stage = _SEED_STAGE[index]
                    value = self.seeds[stage] = field_to_bits(
                        value, self._seed_len(stage, len(data) - len(value)))
                elif kind == "tag":
                    value = field_to_bits(value, self.cfg.tag_bits)
                elif len(value) != self.field_bytes[kind]:
                    raise WireError(f"m{index} {kind} field must be "
                                    f"{self.field_bytes[kind]} bytes, got "
                                    f"{len(value)}")
                values.append(value)
        except WireError as exc:
            self._abort(AbortReason.BAD_MESSAGE, str(exc))
        self._append(data, core_form(index, fields)
                     if index in SEED_FIELD_INDEX else data)
        return values

    def _rand_bytes(self, size: int) -> bytes:
        return self.rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    def _take(self, pad: str, nbits: int) -> BitString:
        """Carve the next nbits of the named handshake-traffic secret."""
        if pad not in self.pads:
            self.pads[pad] = OneTimePad(self.intermediate[pad], pad)
        return self.pads[pad].take(nbits)

    def _xor_pad(self, pad: str, data: bytes) -> bytes:
        """Encrypt or decrypt data under the next segment of a pad."""
        mask = self._take(pad, 8 * len(data)).to_int()
        return (int.from_bytes(data, "big") ^ mask).to_bytes(len(data), "big")

    # -- schedule ---------------------------------------------------------

    def _stage(self, stage: int) -> None:
        """Run a stage: derive each input besides the secure one, a PRF key
        bound to the full transcript so far, then extract the outputs."""
        inputs, secure, outputs = STAGES[stage]
        keys = self.intermediate
        for name in inputs:
            if name != secure:
                label, secret = _PRF_KEYS[name]
                keys[name] = prf_expand(getattr(self, secret),
                                        LABELS[label] + self._full(),
                                        self.cfg.n)
        traffic = BitString.from_int(self.core_value, 8 * self.core_bytes)
        outs = schedule_stage(
            stage, [keys[name] for name in inputs],
            LABEL_BITS[_STAGE_LABELS[stage]], traffic, self.seeds[stage],
            self.params.stage_out_lens(stage), self.cfg.eps_prime)
        keys.update(zip(outputs, outs))
        if stage == 4:
            # the QKD imperfection, then each stage's seed and extraction
            # failures in stage order
            cfg, stage_eps = self.cfg, self.params.stage_eps
            eps = eps_sum((cfg.eps_qkd, *(cfg.eps_seed, stage_eps) * 4))
            self.finals = Finals(*outs, eps, len(keys["qkd"]))

    def _seed_len(self, stage: int, pending: int) -> int:
        """One bit less than the stage's keys, label and core transcript,
        with `pending` core bytes not yet appended (and m8's for stage 4)."""
        return self.seed_base[stage] + 8 * (self.core_bytes + pending)

    # -- steps --------------------------------------------------------------

    def _send_hello(self, index: int) -> list:
        self.eph = self.kem.keypair()
        return [self.eph.public_key, self._rand_bytes(NONCE_BYTES)]

    def _recv_hello(self, index: int, eph_pk: bytes, *_) -> None:
        self.peer_eph_pk = eph_pk

    def _send_qkd(self, index: int) -> list:
        ident, self.intermediate["qkd"] = self.cfg.qkd_store.next_block()
        c_pq, self.shared = self.kem.encapsulate(self.peer_eph_pk)
        return [c_pq, ident, self._rand_bytes(NONCE_BYTES)]

    def _recv_qkd(self, index: int, c_pq: bytes, ident: bytes, *_) -> None:
        try:
            self.intermediate["qkd"] = self.cfg.qkd_store.fetch(ident)
        except UnknownQkdIdError as exc:
            self._abort(AbortReason.UNKNOWN_QKD_ID, str(exc))
        self.shared = self.kem.decapsulate(self.eph.secret_key, c_pq)

    def _send_cert(self, index: int, pad: str) -> list:
        return [self._xor_pad(pad, self.cfg.long_term.public_key)]

    def _recv_cert(self, index: int, pad: str, sealed: bytes) -> None:
        self.peer_cert = self._xor_pad(pad, sealed)
        if self.peer_cert not in self.cfg.trusted_certs:
            self._abort(AbortReason.CERT_UNTRUSTED,
                        f"{self.peer} certificate not in the anchor set")

    def _send_kem(self, index: int, pad: str) -> list:
        c, self.shared = self.kem.encapsulate(self.peer_cert)
        return [self._xor_pad(pad, c)]

    def _recv_kem(self, index: int, pad: str, sealed: bytes, *_) -> None:
        c = self._xor_pad(pad, sealed)
        self.shared = self.kem.decapsulate(self.cfg.long_term.secret_key, c)

    def _padded_tag(self, index: int, fk: str, pad: str) -> BitString:
        """The finish tag of message `index` under fk, over every message
        before it, xored with the next segment of the pad."""
        t = self.cfg.tag_bits
        return transcript_mac(self.intermediate[fk], self._full(index - 1),
                              t) ^ self._take(pad, t)

    def _send_finish(self, index: int, fk: str, pad: str, *_) -> list:
        return [self._padded_tag(index, fk, pad).to_bytes()]

    def _recv_finish(self, index: int, fk: str, pad: str,
                     reason: AbortReason, tag: BitString, *_) -> None:
        if tag != self._padded_tag(index, fk, pad):
            self._abort(reason, f"{self.peer} finish tag does not verify")


class Initiator(_Party):
    role = "initiator"
    peer = "responder"
    rng_offset = 1


class Responder(_Party):
    role = "responder"
    peer = "initiator"
    rng_offset = 2


# the message flow of the module docstring: message index -> (sender,
# send step, receive step, step arguments, stage the message completes)
_STEPS = {
    1: (Initiator, _Party._send_hello, _Party._recv_hello, (), None),
    2: (Responder, _Party._send_qkd, _Party._recv_qkd, (), 1),
    3: (Responder, _Party._send_cert, _Party._recv_cert, ("RHTS",), None),
    4: (Initiator, _Party._send_kem, _Party._recv_kem, ("IHTS",), 2),
    5: (Initiator, _Party._send_cert, _Party._recv_cert, ("IAHTS",), None),
    6: (Responder, _Party._send_kem, _Party._recv_kem, ("RAHTS",), 3),
    7: (Initiator, _Party._send_finish, _Party._recv_finish,
        ("fk_I", "IAHTS", AbortReason.MAC_FAIL_IF), None),
    8: (Responder, _Party._send_finish, _Party._recv_finish,
        ("fk_R", "RAHTS", AbortReason.MAC_FAIL_RF), 4),
}

# who consumes each message
RECEIVER = {index: sender.peer for index, (sender, *_) in _STEPS.items()}


def make_configs(n: int = 256,
                 eps_prime: SecurityLevel = SecurityLevel(64.0),
                 rng_seed: int = 0,
                 eps_qkd: Optional[SecurityLevel] = None,
                 eps_seed: Optional[SecurityLevel] = None,
                 tag_len: Optional[int] = None):
    """Build a matched (initiator_cfg, responder_cfg) pair.

    Shares one QKD store sized to the run's budget, one trust-anchor set
    holding both parties' static certificates, and one previous-session
    state; everything derives deterministically from rng_seed.
    """
    eps_qkd = eps_qkd if eps_qkd is not None else SecurityLevel.zero()
    eps_seed = eps_seed if eps_seed is not None else SecurityLevel.zero()
    params = budget(n, eps_prime)
    fixture_rng = np.random.default_rng([rng_seed, 4])
    store = MockQkdStore(block_bits=params.qkd_budget, eps=eps_qkd,
                         rng=np.random.default_rng([rng_seed, 3]))
    kem = MockKem(n // 2, fixture_rng)
    init_lt = kem.keypair()
    resp_lt = kem.keypair()
    trust = frozenset({init_lt.public_key, resp_lt.public_key})
    sec_state = BitString.from_u8(
        fixture_rng.integers(0, 2, size=n, dtype=np.uint8))
    common = dict(n=n, eps_prime=eps_prime, rng_seed=rng_seed,
                  qkd_store=store, trusted_certs=trust, sec_state=sec_state,
                  eps_qkd=eps_qkd, eps_seed=eps_seed, tag_len=tag_len)
    init_cfg = HandshakeConfig(long_term=init_lt, **common)
    resp_cfg = HandshakeConfig(long_term=resp_lt, **common)
    return init_cfg, resp_cfg


def run_handshake(init_cfg: HandshakeConfig, resp_cfg: HandshakeConfig,
                  channel: Optional[InMemoryChannel] = None,
                  tamper=None) -> RunResult:
    """Drive both state machines to completion or first abort.

    Args:
        init_cfg, resp_cfg: matched configurations (same n, eps, store).
        channel: transport, unused until now (ValueError otherwise); a
            fresh lossless one when omitted.
        tamper: TamperSpec or "m7:bit3"-style string applied in flight,
            before the channel's own transforms.

    Returns:
        RunResult; on Success both finals are present and equal, on
        Abort neither is.
    """
    if (init_cfg.n, init_cfg.eps_prime) != (resp_cfg.n, resp_cfg.eps_prime):
        raise ValueError("parties disagree on key length or eps")
    if isinstance(tamper, str):
        tamper = TamperSpec.parse(tamper)
    if channel is None:
        channel = InMemoryChannel()
    if channel.log:
        # transforms are keyed by absolute message index, so a second run
        # over one channel would skip them and misname a lost message
        raise ValueError(f"run_handshake needs a fresh channel, not one "
                         f"that carried {len(channel.log)} messages")
    if tamper is not None:
        channel.transforms.insert(0, (tamper.message_index, tamper.apply))
    params = budget(init_cfg.n, init_cfg.eps_prime)
    init = Initiator(init_cfg, params)
    resp = Responder(resp_cfg, params)
    try:
        for index, (role, *_) in _STEPS.items():
            sender, receiver = (init, resp) if role is Initiator \
                else (resp, init)
            receiver.receive(index, channel.deliver(sender.send(index)))
    except HandshakeAbort as exc:
        return RunResult(None, None, OUTCOME_ABORT, exc.reason, exc.party,
                         params, tuple(channel.log))
    except ChannelClosed:
        lost_to = RECEIVER[len(channel.log) + 1]
        return RunResult(None, None, OUTCOME_ABORT, AbortReason.CHANNEL_LOSS,
                         lost_to, params, tuple(channel.log))
    # seeds go out in stage order, so a party keeps them in stage order
    filled = replace(params, seed_lens=tuple(map(len, init.seeds.values())))
    return RunResult(init.finals, resp.finals, OUTCOME_SUCCESS, None, None,
                     filled, tuple(channel.log))


def dump_transcript(messages) -> str:
    """Ordered hex records of delivered messages, one per line."""
    return "".join(f"m{i} {m.hex()}\n" for i, m in enumerate(messages, 1))
