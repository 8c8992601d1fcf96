"""Combining two secret keys into one via seeded extraction.

Two constructions:

- private seed: both keys are split by the balanced alpha fraction;
  the leading portions form the seed, the trailing portions the input.
  No outside randomness needed, at the price of roughly halving the
  output.
- public seed: fresh public randomness (generated only after both keys
  exist) seeds a hash over the concatenated keys, so the full joint
  entropy is available when no key is ever revealed.

A `ThreatCase` picks which disclosure scenario the output length must
survive; `CombineResult.residuals` reports what each key retains if the
output is later published. The XOR baseline is included for contrast:
it leaves zero residual entropy in the surviving key once the output
and the other key are known.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .bits import BitString, concat, truncate, xor
from .bootstrap import Infeasible
from .bounds import (BoundReport, ThreatCase, combine_case_bound,
                     public_seed_bound_many)
# no longer called here; perfbench's tracing still resolves it by this path
from .bounds import alpha_partition  # noqa: F401
from .ledger import (EntropyKind, SecurityLevel, SourceSpec, concat_sources,
                     truncate_source)
from .toeplitz import ExtractorParams, SeededHash, extract_fast


class OrderingViolation(ValueError):
    """Public seed was not asserted to postdate key generation."""


class CombineMode(enum.Enum):
    PRIVATE_SEED = "private"
    PUBLIC_SEED = "public"


@dataclass(frozen=True)
class CombineRequest:
    """Everything needed for one combining operation.

    Attributes:
        key1, key2: the secret key bits.
        spec1, spec2: their source descriptors.
        mode: private (alpha split) or public (external seed).
        eps_hash: closeness parameter of the extraction.
        threat: disclosure scenario the output must survive.
        lambda1, lambda2: residual-security targets for the
            output-reveal scenarios.
        revealed_key: 1 or 2 when the threat reveals a specific key;
            None means worst case over either.
        seed, eps_seed, seed_after_keys: public-seed mode parameters;
            the flag asserts the seed was generated after both keys.
        transcript: optional context bytes bound into the input
            (public mode); carries zero entropy.
        auto_truncate: private mode: drop one trailing bit of key2 when
            the total length is even.
        requested_len: cap the output below the case bound.
    """

    key1: BitString
    spec1: SourceSpec
    key2: BitString
    spec2: SourceSpec
    mode: CombineMode
    eps_hash: SecurityLevel
    threat: ThreatCase = ThreatCase.NO_REVEAL
    lambda1: float = 0.0
    lambda2: float = 0.0
    revealed_key: Optional[int] = None
    seed: Optional[BitString] = None
    eps_seed: SecurityLevel = field(default_factory=SecurityLevel.zero)
    seed_after_keys: bool = False
    transcript: Optional[bytes] = None
    auto_truncate: bool = False
    requested_len: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.key1) != self.spec1.length:
            raise ValueError("key1 length disagrees with spec1")
        if len(self.key2) != self.spec2.length:
            raise ValueError("key2 length disagrees with spec2")
        if self.revealed_key not in (None, 1, 2):
            raise ValueError("revealed_key must be None, 1 or 2")
        if not (0 <= self.lambda1 < math.inf
                and 0 <= self.lambda2 < math.inf):
            raise ValueError("lambdas must be finite and >= 0")


class RevealResidual(NamedTuple):
    """What a key keeps after the combined output is published."""

    remaining_hmin: float
    satisfied: bool


@dataclass(frozen=True)
class CombineResult:
    output: BitString
    out_spec: SourceSpec
    report: BoundReport
    residuals: dict


def residual_after_reveal(spec: SourceSpec, output_len: int,
                          lambda_target: float = 0.0) -> RevealResidual:
    """Entropy a key retains once `output_len` derived bits go public.

    Publishing L bits of any function of the key costs at most L bits
    of conditional min-entropy.
    """
    remaining = max(0.0, spec.hmin - output_len)
    satisfied = output_len <= spec.hmin - lambda_target
    return RevealResidual(remaining_hmin=remaining, satisfied=satisfied)


def model_pqc_key(length: int, eps_pqc: SecurityLevel,
                  hill_floor: Optional[float] = None) -> SourceSpec:
    """Describe a KEM-derived key as a computational-entropy source.

    Defaults to computational entropy equal to the full key length;
    pass hill_floor to claim less.
    """
    s2 = float(length) if hill_floor is None else float(hill_floor)
    if s2 > length:
        raise ValueError("entropy floor cannot exceed key length")
    return SourceSpec(label="pqc", length=length, hmin=s2, eps=eps_pqc,
                      kind=EntropyKind.HILL)


def xor_combine_baseline(key1: BitString, key2: BitString) -> BitString:
    """Bitwise XOR of equal-length keys (the folklore combiner).

    If the result and either key are both revealed, the other key is
    determined exactly; see `xor_vs_extractor_report`.
    """
    if len(key1) != len(key2):
        raise ValueError("xor baseline needs equal-length keys")
    return xor(key1, key2)


def _output_kind(spec1: SourceSpec, spec2: SourceSpec, threat: ThreatCase,
                 revealed_key: Optional[int]) -> EntropyKind:
    # once a key is revealed it contributes nothing, so the output's
    # entropy notion is the surviving key's: revealing the
    # computational key leaves an information-theoretic guarantee,
    # revealing the ITS key leaves a computational one
    if threat in (ThreatCase.REVEALED_KEY, ThreatCase.REVEAL_OUTPUT_AND_KEY) \
            and revealed_key is not None:
        survivor = spec2 if revealed_key == 1 else spec1
        return survivor.kind
    return spec1.kind.combine(spec2.kind)


def _bound_name(report: BoundReport) -> str:
    # private-seed reports carry their threat case; public-seed ones none
    case = report.terms.get("case")
    return f"case {case}" if case else "the public-seed bound"


def _binding_limit(report: BoundReport, input_len: int,
                   extra_caps: Sequence[float]) -> tuple[str, float]:
    """Name and unfloored value of the smallest of `_settle_length`'s
    limits, the first one on a tie; only refusals ask."""
    limits = [(report.max_output_len, _bound_name(report),
               report.terms["raw_value"]),
              (input_len, "the input length", input_len)]
    limits += [(cap, f"key{i}'s reveal cap", cap)
               for i, cap in enumerate(extra_caps, 1)]
    _, name, value = min(limits, key=lambda entry: entry[0])
    return name, value


def _settle_length(report: BoundReport, requested: Optional[int],
                   input_len: int, extra_caps: Sequence[float] = ()
                   ) -> int:
    """The output length: the bound's, the input's and every cap's
    limit, floored, or `requested` below that.

    `extra_caps` are the keys' reveal caps, key1's first. A refusal's
    shortfall is measured against the tightest limit before the floor,
    so a cap of 0.5 bits falls 0.5 short of one bit; its message names
    that limit and gives its unfloored value (the bound's raw value).
    """
    if not report.feasible:
        raise Infeasible(max(0.0, -report.terms["raw_value"]),
                         f"combination infeasible: {_bound_name(report)} "
                         f"allows {report.max_output_len} bits")
    limit = min(report.max_output_len, input_len, *extra_caps)
    length = math.floor(limit)
    if requested is not None:
        if requested > length:
            name, value = _binding_limit(report, input_len, extra_caps)
            raise Infeasible(requested - limit,
                             f"requested {requested} bits but {name} "
                             f"allows only {value:g}")
        length = limit = requested
    if length < 1:
        name, value = ("the requested length", requested) \
            if requested is not None \
            else _binding_limit(report, input_len, extra_caps)
        raise Infeasible(1.0 - limit, f"no extractable bits under {name} "
                                      f"({value:g} bits)")
    return length


def _extract_combined(seed: BitString, input_bits: BitString, length: int,
                      report: BoundReport, label: str, kind: EntropyKind,
                      keys: Sequence[tuple[SourceSpec, float]]
                      ) -> CombineResult:
    """Extract `length` bits, describe them as a fully secure source and
    give what each key (spec, residual target), named key1, key2, ...,
    retains once they are published."""
    params = ExtractorParams.modified(len(input_bits), length)
    output = extract_fast(SeededHash(params, seed), input_bits)
    # a loop, not a comprehension, which on CPython 3.11 is one more call:
    # about 1 us of a 25-45 us combine of 300-bit keys
    residuals = {}
    for i, (spec, target) in enumerate(keys, 1):
        residuals[f"key{i}"] = residual_after_reveal(spec, length, target)
    return CombineResult(
        output=output, report=report, residuals=residuals,
        out_spec=SourceSpec(label, length, length, report.out_eps, kind))


def combine_private(req: CombineRequest) -> CombineResult:
    """Mix two keys using their own leading portions as the seed.

    The seed is key1[0:a1) || key2[0:a2) with a1 = floor(alpha*|key1|)
    and a2 chosen so the seed totals alpha*(|key1|+|key2|); the input is
    the two trailing portions in the same key order.

    The case bounds take each key's length as its entropy, and half of
    each key becomes the seed, so both keys must have full entropy.

    Raises:
        ValueError: even total without auto_truncate.
        Infeasible: a key with hmin < length (the shortfall is the sum
            of length - hmin), a threat case that admits no output at
            eps_hash, or an oversize requested_len.
    """
    if req.mode is not CombineMode.PRIVATE_SEED:
        raise ValueError("combine_private needs mode=PRIVATE_SEED")
    key1, spec1 = req.key1, req.spec1
    key2, spec2 = req.key2, req.spec2
    deficit = (spec1.length - spec1.hmin) + (spec2.length - spec2.hmin)
    if deficit > 0:
        raise Infeasible(deficit, f"private-seed combining needs "
                         f"full-entropy keys; {deficit:g} bits of min-entropy "
                         f"are missing")
    if (spec1.length + spec2.length) % 2 == 0:
        if not req.auto_truncate:
            raise ValueError(
                "total key length is even; the balanced split needs an odd "
                "total - pass auto_truncate=True to drop one bit of key2")
        key2 = truncate(key2, 1)
        spec2 = truncate_source(spec2, 1)
    # the odd total splits as in alpha_partition, seed_len = input_len - 1,
    # with a1 = floor(alpha * |key1|) for alpha = (total - 1) / (2 * total)
    total = spec1.length + spec2.length
    if total < 2:
        raise ValueError("need at least 2 bits of key material")
    input_len = (total + 1) // 2
    a1 = (total - 1) * spec1.length // (2 * total)
    a2 = input_len - 1 - a1
    seed = concat(key1[:a1], key2[:a2])
    input_bits = concat(key1[a1:], key2[a2:])
    kind = _output_kind(spec1, spec2, req.threat, req.revealed_key)
    report = combine_case_bound(req.threat, spec1.length, spec2.length,
                                spec1.eps, spec2.eps, req.eps_hash,
                                req.lambda1, req.lambda2, kind=kind)
    length = _settle_length(report, req.requested_len, input_len)
    return _extract_combined(seed, input_bits, length, report,
                             f"mix({spec1.label},{spec2.label})", kind,
                             [(spec1, req.lambda1), (spec2, req.lambda2)])


_REVEAL_ALLOWING_CASES = (ThreatCase.CONTROLLED_KEY, ThreatCase.REVEALED_KEY,
                          ThreatCase.REVEAL_OUTPUT_AND_KEY)


def combine_public(req: CombineRequest) -> CombineResult:
    """Mix two keys under fresh public randomness.

    The input is key1 || key2 (|| transcript if given) and the seed must
    have exactly input length minus one bits. The output is sized from
    the keys' min-entropies: their sum, or the smaller one when the
    threat case allows a reveal.

    Raises:
        OrderingViolation: seed_after_keys not asserted.
        ValueError: missing or mis-sized seed.
        Infeasible: no output admissible under the threat case.
    """
    if req.mode is not CombineMode.PUBLIC_SEED:
        raise ValueError("combine_public needs mode=PUBLIC_SEED")
    if not req.seed_after_keys:
        raise OrderingViolation(
            "the public seed must be generated after both keys exist; "
            "assert seed_after_keys=True")
    if req.seed is None:
        raise ValueError("public mode needs a seed")
    input_bits = concat(req.key1, req.key2)
    if req.transcript is not None:
        input_bits = input_bits + BitString.from_bytes(req.transcript)
    if len(req.seed) != len(input_bits) - 1:
        raise ValueError(f"seed must be {len(input_bits) - 1} bits for a "
                         f"{len(input_bits)}-bit input, got {len(req.seed)}")
    kind = _output_kind(req.spec1, req.spec2, req.threat, req.revealed_key)
    reveal_allowed = req.threat in _REVEAL_ALLOWING_CASES
    report = public_seed_bound_many(
        [req.spec1.hmin, req.spec2.hmin],
        [req.spec1.eps, req.spec2.eps], req.eps_seed, req.eps_hash,
        reveal_allowed, kind=kind)
    caps: list[float] = []
    if req.threat in (ThreatCase.REVEAL_OUTPUT,
                      ThreatCase.REVEAL_OUTPUT_AND_KEY):
        caps = [req.spec1.hmin - req.lambda1,
                req.spec2.hmin - req.lambda2]
    length = _settle_length(report, req.requested_len, len(input_bits), caps)
    return _extract_combined(req.seed, input_bits, length, report,
                             f"mix({req.spec1.label},{req.spec2.label})",
                             kind, [(req.spec1, req.lambda1),
                                    (req.spec2, req.lambda2)])


def combine_public_many(keys: Sequence[tuple[BitString, SourceSpec]],
                        seed: BitString, eps_seed: SecurityLevel,
                        eps_hash: SecurityLevel, *,
                        reveal_allowed: bool = False,
                        seed_after_keys: bool = False,
                        requested_len: Optional[int] = None
                        ) -> CombineResult:
    """Mix any number of independent keys under one public seed.

    Reduces to concatenating the sources and running one extraction;
    the epsilons sum, and the output is sized from the sum of the keys'
    min-entropies, or from the smallest one when reveals are allowed.
    """
    if len(keys) < 2:
        raise ValueError("need at least two keys")
    if not seed_after_keys:
        raise OrderingViolation(
            "the public seed must be generated after all keys exist; "
            "assert seed_after_keys=True")
    combined_spec = keys[0][1]
    input_bits = keys[0][0]
    for bits, spec in keys[1:]:
        if len(bits) != spec.length:
            raise ValueError("key length disagrees with its spec")
        combined_spec = concat_sources(combined_spec, spec, independent=True)
        input_bits = input_bits + bits
    if len(seed) != len(input_bits) - 1:
        raise ValueError(f"seed must be {len(input_bits) - 1} bits")
    kind = combined_spec.kind
    report = public_seed_bound_many(
        [spec.hmin for _, spec in keys], [spec.eps for _, spec in keys],
        eps_seed, eps_hash, reveal_allowed, kind=kind)
    length = _settle_length(report, requested_len, len(input_bits))
    return _extract_combined(seed, input_bits, length, report, "mix", kind,
                             [(spec, 0.0) for _, spec in keys])


def xor_vs_extractor_report(spec1: SourceSpec, spec2: SourceSpec,
                            eps_hash: SecurityLevel, lambda1: float) -> dict:
    """Contrast key1's fate under XOR vs extraction when things leak.

    Scenario: the combined output and key2 are both revealed. The XOR
    combiner emits |key| bits, so key1 = output xor key2 is determined.
    The extraction combiner sized for a lambda1 residual keeps key1's
    conditional entropy at or above lambda1. Its case bound takes each
    key's length as its entropy, so, as `combine_private` does, it emits
    nothing unless both keys have full entropy.
    """
    ext_len = 0
    if spec1.is_secure and spec2.is_secure:
        report = combine_case_bound(ThreatCase.REVEAL_OUTPUT_AND_KEY,
                                    spec1.length, spec2.length, spec1.eps,
                                    spec2.eps, eps_hash, lambda1, 0.0)
        ext_len = max(0, report.max_output_len)
    xor_len = min(spec1.length, spec2.length)
    xor_res = residual_after_reveal(spec1, xor_len, lambda1)
    ext_res = residual_after_reveal(spec1, ext_len, lambda1)
    return {
        "xor_output_len": xor_len,
        "xor_key1_remaining_hmin": xor_res.remaining_hmin,
        "xor_lambda_satisfied": "true" if xor_res.satisfied else "false",
        "extractor_output_len": ext_len,
        "extractor_key1_remaining_hmin": ext_res.remaining_hmin,
        "extractor_lambda_satisfied":
            "true" if ext_res.satisfied else "false",
        "lambda1": lambda1,
        "eps_hash_neg_log2": eps_hash.neg_log2,
    }
