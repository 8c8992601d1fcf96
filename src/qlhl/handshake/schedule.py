"""QKD key budgeting and the four-stage extraction schedule.

The handshake derives nine keys through a chain of four seeded
extractions. Each stage consumes one information-theoretically secure
input key and emits its outputs plus the next chain key, paying the
hash penalty 2*floor(log2(1/eps')) - 2 bits per stage. Back-substituting
the four stage budgets gives the chain lengths and the total QKD bits
required up front:

    k3     = |IATS| + |RATS| + |SecState'| + P
    k2     = k3 + |fk_I| + |fk_R| + P
    k1     = k2 + |IAHTS| + |RAHTS| + P
    k_qkd  = k1 + |IHTS| + |RHTS| + P        with P = 2*floor(L) - 2

With all nine outputs n bits long this collapses to
k_qkd = 9n - 8 + 8*floor(log2(1/eps')).

Seed lengths are per-run quantities: every stage hashes keys, label,
and transcript-so-far with a seed one bit shorter than that input, and
the transcript length is only known once messages are on the wire.
ScheduleParams therefore carries seed_lens=None until a run fills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from ..bits import BitString, concat_all
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


class BudgetExceeded(ValueError):
    """Stage outputs ask for more bits than its secure input key covers."""


def _floor_neg_log2(eps_prime: SecurityLevel) -> int:
    if not math.isfinite(eps_prime.neg_log2):
        raise ValueError("budgeting needs a nonzero extraction failure "
                         "probability")
    return math.floor(eps_prime.neg_log2)


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
        return 2 * _floor_neg_log2(self.eps_prime) - 2

    @property
    def stage_eps(self) -> SecurityLevel:
        """The eps one stage meets, 2^-floor(log2(1/eps')): the level its
        hash penalty pays for, which a fractional eps' would overstate."""
        return SecurityLevel(float(_floor_neg_log2(self.eps_prime)))

    def stage_out_lens(self, stage: int) -> tuple:
        """Output lengths for one stage, in emission order."""
        if stage not in STAGE_OUTPUTS:
            raise ValueError("stage must be 1..4")
        lens = dict(zip(KEY_NAMES, self.per_key_lengths),
                    k1=self.k1, k2=self.k2, k3=self.k3)
        return tuple(lens[name] for name in STAGE_OUTPUTS[stage])


def budget(n: int, eps_prime: SecurityLevel,
           per_key_lengths: Optional[Sequence[int]] = None) -> ScheduleParams:
    """Compute chain lengths and the QKD bits one run consumes.

    Args:
        n: common length for all nine derived keys; ignored when an
            explicit 9-tuple is given.
        eps_prime: per-stage extraction failure probability.
        per_key_lengths: optional explicit lengths in KEY_NAMES order.

    Returns:
        ScheduleParams with the chain and total budget resolved.
    """
    if per_key_lengths is None:
        if n < 1:
            raise ValueError("per-key length must be >= 1")
        lengths = (n,) * 9
    else:
        lengths = tuple(int(v) for v in per_key_lengths)
        if len(lengths) != 9:
            raise ValueError("expected exactly 9 per-key lengths")
        if any(v < 1 for v in lengths):
            raise ValueError("every per-key length must be >= 1")
    penalty = 2 * _floor_neg_log2(eps_prime) - 2
    lens = dict(zip(KEY_NAMES, lengths))
    # a stage's secure input covers its outputs plus the penalty: the
    # previous stage's chain key, or for stage 1 the QKD block
    for stage in (4, 3, 2, 1):
        secure = STAGE_OUTPUTS[stage - 1][0] if stage > 1 else "qkd"
        lens[secure] = sum(lens[name] for name in STAGE_OUTPUTS[stage]) \
            + penalty
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
    if not out_lens or any(v < 1 for v in out_lens):
        raise ValueError("output lengths must all be >= 1")
    input_bits = concat_all(list(keys) + [label, traffic])
    if len(seed) != len(input_bits) - 1:
        raise ValueError(f"stage {stage} seed must be "
                         f"{len(input_bits) - 1} bits, got {len(seed)}")
    total = sum(out_lens)
    allowed = len(keys[secure]) - 2 * _floor_neg_log2(eps_prime) + 2
    if total > allowed:
        raise BudgetExceeded(f"stage {stage} outputs need {total} bits but "
                             f"the secure input covers {allowed}")
    h = SeededHash(ExtractorParams.modified(len(input_bits), total), seed)
    out = extract_fast(h, input_bits)
    ends = [0, *accumulate(out_lens)]
    return [out[start:end] for start, end in zip(ends, ends[1:])]
