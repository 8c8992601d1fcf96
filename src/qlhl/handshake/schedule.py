"""QKD key budgeting and the four-stage extraction schedule.

The handshake derives nine keys through a chain of four seeded
extractions. Each stage consumes one information-theoretically secure
input key and emits its outputs plus the next chain key. Each stage
meets eps = 2^-floor(log2(1/eps')) (`_stage_eps`) and pays the hash
penalty P = `bounds.required_hmin(0, eps)` = 2*floor(log2(1/eps')) - 2
bits: its secure input must carry `required_hmin(outputs, eps)` bits.
Back-substituting the four stage budgets gives the chain lengths and the
total QKD bits required up front:

    k3     = |IATS| + |RATS| + |SecState'| + P
    k2     = k3 + |fk_I| + |fk_R| + P
    k1     = k2 + |IAHTS| + |RAHTS| + P
    k_qkd  = k1 + |IHTS| + |RHTS| + P

With all nine outputs n bits long this collapses to
k_qkd = 9n - 8 + 8*floor(log2(1/eps')).

Seed lengths are per-run quantities: every stage hashes keys, label,
and transcript-so-far with a seed one bit shorter than that input, and
the transcript length is only known once messages are on the wire.
ScheduleParams therefore carries seed_lens=None until a run fills it.

What is computed once. The chain lengths, each stage's output lengths,
the stage eps and the hash penalty depend only on public parameters
(the nine per-key lengths and eps'), so they are computed once and
kept: `budget` keeps the ScheduleParams of its last _BUDGET_MEMO
argument pairs, a ScheduleParams computes its per-stage output lengths
on first use, and the stage eps and penalty are kept per eps'. Nothing
secret is kept: no key, seed, transcript or output. Each `schedule_stage`
call then does only the per-message work: it joins its inputs, checks
the seed and the budget, runs the one extraction and splits its int.

Refusals. Every length (n, the nine per-key lengths, a stage's output
lengths) must be a finite whole number, or the call raises ValueError;
an integral float such as 256.0 is taken as the int 256. Lengths are
checked before the memo is looked up, so a fraction never reaches it.
The chain arithmetic runs in float64 through `required_hmin`, which is
exact below 2**53, so a budget that reaches 2**53 bits is refused too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..bits import BitString, concat_all
from ..bounds import required_hmin
from ..ledger import SecurityLevel
from ..toeplitz import ExtractorParams, SeededHash, extract_fast

# per-key length order used everywhere a 9-tuple appears
KEY_NAMES = ("IATS", "RATS", "SecStateNext", "fk_I", "fk_R",
             "IAHTS", "RAHTS", "IHTS", "RHTS")

# stage -> its output names in emission order; the first output of stages
# 1-3 is the chain key, the secure input of the next stage
STAGE_OUTPUTS = {1: ("k1", "IHTS", "RHTS"),
                 2: ("k2", "IAHTS", "RAHTS"),
                 3: ("k3", "fk_I", "fk_R"),
                 4: ("IATS", "RATS", "SecStateNext")}


# (per-key lengths, eps') pairs whose ScheduleParams `budget` keeps, and
# eps' values whose stage eps and hash penalty are kept
_BUDGET_MEMO = 64
# bit counts from here on are not exact in the float64 chain arithmetic
_EXACT_BITS = 1 << 53


class BudgetExceeded(ValueError):
    """Stage outputs ask for more bits than its secure input key covers."""


def _whole(value, what: str) -> int:
    """value as an int; ValueError unless it is a finite whole number."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return whole


def _input_bits(out_bits: int, eps: SecurityLevel) -> int:
    """`required_hmin(out_bits, eps)` as an int, refused from 2**53 bits."""
    need = required_hmin(out_bits, eps)
    if not need < _EXACT_BITS:
        raise ValueError(f"{out_bits} output bits at eps {eps} need {need} "
                         f"input bits, beyond the 2**53 the budget "
                         f"arithmetic holds exactly")
    return int(need)


@functools.lru_cache(maxsize=_BUDGET_MEMO)
def _stage_eps(eps_prime: SecurityLevel) -> SecurityLevel:
    """The eps one stage meets, 2^-floor(log2(1/eps')): the level its
    hash penalty pays for, which a fractional eps' would overstate."""
    if not math.isfinite(eps_prime.neg_log2):
        raise ValueError("budgeting needs a nonzero extraction failure "
                         "probability")
    return SecurityLevel(float(math.floor(eps_prime.neg_log2)))


@functools.lru_cache(maxsize=_BUDGET_MEMO)
def _hash_penalty(eps_prime: SecurityLevel) -> int:
    """Bits one extraction stage loses at eps'."""
    return _input_bits(0, _stage_eps(eps_prime))


@dataclass(frozen=True)
class ScheduleParams:
    """Resolved key-schedule geometry for one handshake run.

    Attributes:
        n: common per-key length, or 0 when per_key_lengths is mixed.
        eps_prime: extraction failure probability shared by all stages.
        per_key_lengths: the nine output lengths in KEY_NAMES order.
        k1, k2, k3: chain key lengths from back-substitution.
        qkd_budget: pre-shared bits consumed by one run.
        seed_lens: the four per-stage seed lengths, filled in by a run
            (each is the stage's input length minus one).
    """

    n: int
    eps_prime: SecurityLevel
    per_key_lengths: tuple
    k1: int
    k2: int
    k3: int
    qkd_budget: int
    seed_lens: Optional[tuple] = None

    @property
    def hash_penalty(self) -> int:
        """Bits lost to one extraction stage."""
        return _hash_penalty(self.eps_prime)

    @property
    def stage_eps(self) -> SecurityLevel:
        """The eps one stage meets (see `_stage_eps`)."""
        return _stage_eps(self.eps_prime)

    def stage_out_lens(self, stage: int) -> tuple:
        """Output lengths for one stage, in emission order."""
        if stage not in STAGE_OUTPUTS:
            raise ValueError("stage must be 1..4")
        return self._out_lens[stage]

    @functools.cached_property
    def _out_lens(self) -> dict:
        # stage -> its output lengths, computed on first use (a dataclass
        # field would enter eq, repr and `replace`)
        lens = dict(zip(KEY_NAMES, self.per_key_lengths),
                    k1=self.k1, k2=self.k2, k3=self.k3)
        return {stage: tuple(lens[name] for name in names)
                for stage, names in STAGE_OUTPUTS.items()}


def budget(n: int, eps_prime: SecurityLevel,
           per_key_lengths: Optional[Sequence[int]] = None) -> ScheduleParams:
    """Compute chain lengths and the QKD bits one run consumes.

    The result depends only on public parameters and is kept for the
    last _BUDGET_MEMO (lengths, eps') pairs; a ScheduleParams is frozen,
    so callers share it.

    Args:
        n: common length for all nine derived keys; ignored when an
            explicit 9-tuple is given.
        eps_prime: per-stage extraction failure probability.
        per_key_lengths: optional explicit lengths in KEY_NAMES order.

    Returns:
        ScheduleParams with the chain and total budget resolved.

    Raises:
        ValueError: a length is not a whole number from 1 to 2**53 - 1,
            eps' is zero, or the budget reaches 2**53 bits.
    """
    n = _whole(n, "per-key length")
    if per_key_lengths is None:
        if n < 1:
            raise ValueError("per-key length must be >= 1")
        lengths = (n,) * 9
    else:
        lengths = tuple(_whole(v, "every per-key length")
                        for v in per_key_lengths)
        if len(lengths) != 9:
            raise ValueError("expected exactly 9 per-key lengths")
        if any(v < 1 for v in lengths):
            raise ValueError("every per-key length must be >= 1")
    if max(lengths) >= _EXACT_BITS:
        raise ValueError("every per-key length must be below 2**53")
    return _budget(lengths, eps_prime)


@functools.lru_cache(maxsize=_BUDGET_MEMO)
def _budget(lengths: tuple, eps_prime: SecurityLevel) -> ScheduleParams:
    """`budget` of validated per-key lengths."""
    eps = _stage_eps(eps_prime)
    lens = dict(zip(KEY_NAMES, lengths))
    # a stage's secure input carries the entropy its outputs require:
    # the previous stage's chain key, or for stage 1 the QKD block
    for stage in (4, 3, 2, 1):
        secure = STAGE_OUTPUTS[stage - 1][0] if stage > 1 else "qkd"
        lens[secure] = _input_bits(
            sum(lens[name] for name in STAGE_OUTPUTS[stage]), eps)
    common = lengths[0] if len(set(lengths)) == 1 else 0
    return ScheduleParams(n=common, eps_prime=eps_prime,
                          per_key_lengths=lengths, k1=lens["k1"],
                          k2=lens["k2"], k3=lens["k3"],
                          qkd_budget=lens["qkd"])


def schedule_stage(stage: int, key_material: Sequence[BitString],
                   label: BitString, traffic: BitString, seed: BitString,
                   out_lens: Sequence[int],
                   eps_prime: SecurityLevel) -> list:
    """Run one extraction stage and split the result.

    The stage input is concat(key_material) || label || traffic; the
    seed must be exactly one bit shorter. The total output must fit the
    stage's information-theoretic budget: the length of the one key in
    key_material that carries full conditional min-entropy, minus the
    hash penalty. That secure key is the second key in stage 1 (the
    pre-shared block) and the first (the chain key) in later stages.

    Args:
        stage: 1..4; picks the secure key and names the stage in errors.
        key_material: secret inputs in their fixed public order.
        label: domain-separation constant.
        traffic: transcript bits bound into the extraction.
        seed: public extraction seed, |input| - 1 bits.
        out_lens: lengths to split the output into, in order.
        eps_prime: extraction failure probability for this stage.

    Returns:
        One BitString per entry of out_lens.
    """
    if stage not in STAGE_OUTPUTS:
        raise ValueError("stage must be 1..4")
    keys = list(key_material)
    secure = 1 if stage == 1 else 0
    if len(keys) <= secure:
        raise ValueError(f"stage {stage} needs its secure key at input "
                         f"position {secure}")
    out_lens = [_whole(v, "every output length") for v in out_lens]
    if not out_lens or any(v < 1 for v in out_lens):
        raise ValueError("output lengths must all be >= 1")
    input_bits = concat_all(keys + [label, traffic])
    if len(seed) != len(input_bits) - 1:
        raise ValueError(f"stage {stage} seed must be "
                         f"{len(input_bits) - 1} bits, got {len(seed)}")
    total = sum(out_lens)
    allowed = len(keys[secure]) - _hash_penalty(eps_prime)
    if total > allowed:
        raise BudgetExceeded(f"stage {stage} outputs need {total} bits but "
                             f"the secure input covers {allowed}")
    h = SeededHash(ExtractorParams.modified(len(input_bits), total), seed)
    # split the output's int from the front: `rest` bits follow each piece
    value, rest = extract_fast(h, input_bits).to_int(), total
    outs = []
    for width in out_lens:
        rest -= width
        outs.append(BitString.from_int(value >> rest, width))
        value &= (1 << rest) - 1
    return outs
