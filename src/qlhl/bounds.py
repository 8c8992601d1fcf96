"""Output-length bounds for seeded extraction against quantum side info.

Every bound here is the one leftover-hash bound

    raw = hmin_input + seed_penalty - hash_penalty_bits + constant_2
    max_output_len = floor(raw)

with hash_penalty_bits = 2*log2(1/eps_hash) and constant_2 = 2. It is
stated once, in `_bound`: each public bound gives only its entropy term
(hmin_input), its seed term (seed_penalty, 0 for a uniform seed), its
out_eps and any extra labelled terms, so the four named terms of every
report add up to its raw_value. The one exception is the output-reveal
cases, whose residual caps may cut raw below the bound; their entropy
term is then solved back from the capped raw, so the sum still holds.
The floor is applied exactly once, to the final value. An output of
max_output_len bits produced by a 2-universal hash is then out_eps-close
to uniform conditioned on the adversary's side information, with out_eps
the sum of the contributing epsilons.

`required_hmin` is the same bound solved for the entropy: what the
sources must bring for a target length. `bootstrap.plan_bootstrap` and
the handshake schedule (`handshake.schedule.budget`, `schedule_stage`)
size their extractions through it rather than restating the bound.

`combine_case_bound` evaluates the threat-case analyses for mixing two
secret keys through one extraction, where the keys are split so that a
fraction alpha of each feeds the seed and the rest feeds the input (see
`alpha_partition` for the exact split).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .ledger import EntropyKind, SecurityLevel, eps_sum

Number = Union[int, float]

# ControlledKey threshold: summing both symmetric constraints gives
# 0 <= 5 - 4*log2(1/eps), so any eps below 2**-1.25 is unachievable
CONTROLLED_KEY_NEG_LOG2_LIMIT = 1.25


class ThreatCase(enum.Enum):
    """What the adversary gets to see or steer when two keys are mixed."""

    NO_REVEAL = "NoReveal"
    CONTROLLED_KEY = "ControlledKey"
    REVEALED_KEY = "RevealedKey"
    REVEAL_OUTPUT = "RevealOutput"
    REVEAL_OUTPUT_AND_KEY = "RevealOutputAndKey"

    @classmethod
    def from_name(cls, name: str) -> "ThreatCase":
        for case in cls:
            if case.value.lower() == name.lower():
                return case
        raise ValueError(f"unknown threat case {name!r}")


@dataclass(frozen=True)
class BoundReport:
    """Result of one bound evaluation.

    Attributes:
        max_output_len: floored admissible output length; -1 when the
            real-valued bound is negative.
        feasible: whether at least 0 bits are extractable (cases may
            force this to False on their own impossibility conditions).
        out_eps: distance of the output from uniform at that length.
        kind: weakest entropy notion the guarantee rests on.
        terms: labeled additive breakdown: hmin_input + seed_penalty -
            hash_penalty_bits + constant_2 equals the unfloored
            `raw_value`; other labels are diagnostics. It is a read-only
            mapping: the combiners hand one report to every call with
            the same public parameters.
    """

    max_output_len: int
    feasible: bool
    out_eps: SecurityLevel
    kind: EntropyKind
    terms: Mapping[str, float]


def _bound(entropy: float, seed_term: float, eps_hash: SecurityLevel,
           out_eps: SecurityLevel, kind: EntropyKind, extra: dict, *,
           sides: Optional[dict] = None, cap: Optional[float] = None,
           force_infeasible: bool = False) -> BoundReport:
    """Evaluate the leftover-hash bound and floor it once.

    `extra` holds labelled terms outside the sum. `sides` maps labels to
    alternative entropy terms and reports the bound at each (the caller
    passes the smallest as `entropy`). `cap` is a limit that is not a
    term of the bound: raw becomes the lesser of the bound (reported as
    extraction_bound) and the cap, and the entropy term is solved back
    from it.
    """
    penalty = 2.0 * eps_hash.neg_log2
    raw = entropy + seed_term - penalty + 2.0
    terms = {"hmin_input": entropy, "seed_penalty": seed_term,
             "hash_penalty_bits": penalty, "constant_2": 2.0, **extra}
    if sides:
        for label, side in sides.items():
            terms[label] = side + seed_term - penalty + 2.0
    if cap is not None:
        terms["extraction_bound"] = raw
        raw = min(raw, cap)
        terms["hmin_input"] = raw - seed_term + penalty - 2.0
    if math.isinf(raw):
        floored = -1
        terms["floor_applied"] = 0.0
    else:
        floored = math.floor(raw)
        terms["floor_applied"] = raw - floored
    terms["raw_value"] = raw
    feasible = floored >= 0 and not force_infeasible
    return BoundReport(max_output_len=max(floored, -1), feasible=feasible,
                       out_eps=out_eps, kind=kind,
                       terms=MappingProxyType(terms))


def qlhl_basic(hmin_input: Number, eps_smooth: SecurityLevel,
               eps_hash: SecurityLevel,
               kind: EntropyKind = EntropyKind.SMOOTH) -> BoundReport:
    """Plain leftover-hash bound with a uniform seed.

    Args:
        hmin_input: smooth min-entropy of the input given the adversary.
        eps_smooth: smoothing parameter of that entropy.
        eps_hash: closeness parameter spent on the hashing step.

    Returns:
        Report with max_output_len = floor(hmin_input - 2*log2(1/eps_hash)
        + 2) and out_eps = eps_smooth + eps_hash.
    """
    if not 0 <= hmin_input < math.inf:
        raise ValueError("hmin_input must be finite and >= 0")
    return _bound(float(hmin_input), 0.0, eps_hash,
                  eps_sum((eps_smooth, eps_hash)), kind, {})


def qlhl_weak_seed_penalized(hmin_input: Number, eps_smooth: SecurityLevel,
                             seed_len: int, hmin_seed: Number,
                             eps_target: SecurityLevel,
                             kind: EntropyKind = EntropyKind.SMOOTH
                             ) -> BoundReport:
    """Bound with a deficient seed, paying the deficit twice.

    A seed with entropy gap lambda = seed_len - hmin_seed inflates the
    hashing distance by 2**lambda, so hitting eps_target costs working
    at eps_target / 2**lambda internally:

        max_output_len = floor(hmin_input + 2*(hmin_seed - seed_len)
                               - 2*log2(1/eps_target) + 2)

    out_eps = eps_smooth + eps_target.
    """
    if hmin_seed > seed_len:
        raise ValueError("hmin_seed must not exceed seed_len")
    if not (0 <= hmin_input < math.inf and 0 <= hmin_seed < math.inf):
        raise ValueError("entropies must be finite and >= 0")
    return _bound(float(hmin_input), 2.0 * (hmin_seed - seed_len),
                  eps_target, eps_sum((eps_smooth, eps_target)), kind,
                  {"seed_gap_lambda": float(seed_len - hmin_seed)})


def qlhl_general(hmin_input: Number, eps_input: SecurityLevel,
                 hmin_seed: Number, eps_seed: SecurityLevel, seed_len: int,
                 eps_hash: SecurityLevel,
                 kind: EntropyKind = EntropyKind.SMOOTH) -> BoundReport:
    """Generalized bound for a nonuniform seed, paying the deficit once.

        max_output_len = floor(hmin_input + hmin_seed - seed_len
                               - 2*log2(1/eps_hash) + 2)

    out_eps = eps_input + eps_seed + eps_hash. Never worse than
    `qlhl_weak_seed_penalized` at equal parameters.
    """
    if hmin_seed > seed_len:
        raise ValueError("hmin_seed must not exceed seed_len")
    if not (0 <= hmin_input < math.inf and 0 <= hmin_seed < math.inf):
        raise ValueError("entropies must be finite and >= 0")
    return _bound(float(hmin_input), float(hmin_seed - seed_len), eps_hash,
                  eps_sum((eps_input, eps_seed, eps_hash)), kind,
                  {"seed_gap_lambda": float(seed_len - hmin_seed)})


def combine_case_bound(case: ThreatCase, len1: int, len2: int,
                       eps1: SecurityLevel, eps2: SecurityLevel,
                       eps_hash: SecurityLevel, lambda1: Number = 0,
                       lambda2: Number = 0,
                       kind: EntropyKind = EntropyKind.SMOOTH
                       ) -> BoundReport:
    """Secret-key mixing bound under one of five disclosure scenarios.

    Both keys are split by the balanced alpha fraction into seed and
    input halves; the scenarios differ in what the adversary learns,
    which sets the entropy term. The seed term is 0 in every case.

    Args:
        case: disclosure scenario.
        len1, len2: bit lengths of the two keys (assumed full-entropy,
            eps1/eps2-close to uniform).
        eps_hash: closeness spent on the extraction itself.
        lambda1, lambda2: for the output-reveal cases, how many bits of
            security each key must retain after the output is published.

    Returns:
        Report for the worst allowed disclosure within the scenario.
        out_eps is the worst-case budget 2*eps1 + 2*eps2 + eps_hash for
        every case (both the seed and the input inherit eps1 + eps2).
    """
    if len1 < 1 or len2 < 1:
        raise ValueError("key lengths must be >= 1")
    if not (0 <= lambda1 < math.inf and 0 <= lambda2 < math.inf):
        raise ValueError("lambdas must be finite and >= 0")
    out_eps = eps_sum((eps1, eps1, eps2, eps2, eps_hash))
    extra = {"case": case.value}
    # with nothing revealed the input half carries its full entropy
    input_half = (len1 + len2 + 1) / 2.0
    if case is ThreatCase.NO_REVEAL:
        return _bound(input_half, 0.0, eps_hash, out_eps, kind, extra)
    if case is ThreatCase.CONTROLLED_KEY:
        # adversary steers one key during generation; either key might
        # be the steered one, so both one-sided bounds must hold
        x1 = (len2 - len1 + 1) / 2.0
        x2 = (len1 - len2 + 1) / 2.0
        return _bound(min(x1, x2), 0.0, eps_hash, out_eps, kind, extra,
                      sides={"controlled_x1_bound": x1,
                             "controlled_x2_bound": x2},
                      force_infeasible=(eps_hash.neg_log2
                                        > CONTROLLED_KEY_NEG_LOG2_LIMIT))
    if case is ThreatCase.REVEALED_KEY:
        # one key published after extraction; the seed may be revealed
        # freely, only the surviving key's input half carries entropy
        total = len1 + len2
        return _bound(0.5 * min(len2 + len2 / total, len1 + len1 / total),
                      0.0, eps_hash, out_eps, kind, extra)
    # output revealed (possibly with one key): each key must keep
    # lambda_i bits of conditional entropy, and the output cannot exceed
    # what the extraction produced in the first place
    residual1 = len1 - float(lambda1)
    residual2 = len2 - float(lambda2)
    extra["x1_residual"] = residual1
    extra["x2_residual"] = residual2
    return _bound(input_half, 0.0, eps_hash, out_eps, kind, extra,
                  cap=min(residual1, residual2))


def public_seed_bound_many(lengths: "list[float] | tuple[float, ...]",
                           epsilons: "list[SecurityLevel]",
                           eps_seed: SecurityLevel,
                           eps_hash: SecurityLevel, reveal_allowed: bool,
                           kind: EntropyKind = EntropyKind.SMOOTH
                           ) -> BoundReport:
    """Public-seed mixing bound for any number of concatenated keys.

    `lengths` are the keys' min-entropies in bits, which for full-entropy
    keys are their lengths, and `epsilons` their closeness parameters,
    one per key. With no reveals they add. If reveals are allowed the
    bound must survive every subset of reveals that leaves one key
    secret, so only the smallest counts.
    """
    if len(lengths) < 1:
        raise ValueError("need at least one key")
    if len(epsilons) != len(lengths):
        raise ValueError(f"need one epsilon per key: {len(lengths)} keys, "
                         f"{len(epsilons)} epsilons")
    total = sum(lengths)
    # a NaN or infinite entropy makes the sum NaN or infinite
    if not (min(lengths) >= 0 and total < math.inf):
        raise ValueError("key entropies must be finite and >= 0")
    out_eps = eps_sum((eps_seed, eps_hash, *epsilons))
    return _bound(float(min(lengths) if reveal_allowed else total),
                  0.0, eps_hash, out_eps, kind,
                  {"reveal_allowed": 1.0 if reveal_allowed else 0.0,
                   "key_count": float(len(lengths))})


def public_seed_bound(len1: int, len2: int, eps1: SecurityLevel,
                      eps2: SecurityLevel, eps_seed: SecurityLevel,
                      eps_hash: SecurityLevel, reveal_allowed: bool,
                      kind: EntropyKind = EntropyKind.SMOOTH) -> BoundReport:
    """Mixing bound when the seed is fresh public randomness.

    Both keys go entirely into the input. If neither key is ever
    revealed their entropies add; if either may be revealed, the bound
    must hold with each key's entropy zeroed in turn, leaving
    min(len1, len2).

    out_eps = eps1 + eps2 + eps_seed + eps_hash.
    """
    return public_seed_bound_many([len1, len2], [eps1, eps2], eps_seed,
                                  eps_hash, reveal_allowed, kind)


def required_hmin(target_len: int, eps_hash: SecurityLevel) -> float:
    """Entropy each source must bring to extract target_len bits.

    Inverts the bound: hmin >= target_len + 2*log2(1/eps_hash) - 2, the
    entropy plus seed term a source pair must reach.
    """
    return target_len + 2.0 * eps_hash.neg_log2 - 2.0


class AlphaPartition(NamedTuple):
    """Balanced seed/input split of two concatenated keys."""

    alpha: Fraction
    seed_len: int
    input_len: int


def alpha_partition(len1: int, len2: int) -> AlphaPartition:
    """Split total key material so that seed_len = input_len - 1.

    Taking the fraction alpha = (total - 1) / (2 * total) of the
    concatenated keys as the seed satisfies the hash family's seed-size
    constraint exactly, provided the total is odd.

    Raises:
        ValueError: if len1 + len2 is even; the caller must drop one bit
            (and account for it) to make the split integral.
    """
    total = len1 + len2
    if total < 2:
        raise ValueError("need at least 2 bits of key material")
    if total % 2 == 0:
        raise ValueError(
            f"total key length {total} is even; the balanced split needs "
            "seed_len = input_len - 1, so drop one bit from either key "
            "(and debit its ledger) to make the total odd")
    alpha = Fraction(total - 1, 2 * total)
    return AlphaPartition(alpha=alpha, seed_len=(total - 1) // 2,
                          input_len=(total + 1) // 2)


def report_to_kv_dict(report: BoundReport) -> dict:
    """Flatten a report into an ordered key/value mapping."""
    doc: dict = {"max_output_len": report.max_output_len,
                 "feasible": "true" if report.feasible else "false"}
    for key, val in report.terms.items():
        doc[key] = val
    doc["out_eps_neg_log2"] = report.out_eps.neg_log2
    doc["kind"] = report.kind.value
    return doc
