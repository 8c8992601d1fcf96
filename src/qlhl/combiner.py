"""Combining secret keys into one via seeded extraction.

Two constructions:

- private seed: both keys are split by the balanced alpha fraction;
  the leading portions form the seed, the trailing portions the input.
  No outside randomness needed, at the price of roughly halving the
  output.
- public seed: fresh public randomness (generated only after the keys
  exist) seeds a hash over the concatenated keys, so the full joint
  entropy is available when no key is ever revealed.

Three front ends share one tail. `combine_private` splits its two keys
into seed and input. `combine_public` (two keys, a threat case, an
optional transcript) and `combine_public_many` (any number of keys)
only map their arguments onto one public-seed core, which asserts the
seed ordering, checks the keys and the seed, and runs the public-seed
bound. Every mode ends in the same tail: `_settle` checks
`requested_len` and settles the output length, and `_run` extracts.

Plan and run. Each mode is split into a plan, everything that depends
on public parameters alone, and a run, the per-call work on secret bits.
The plan holds the refusals that parameters decide, the bound report,
the settled length, the hash shape, the output's descriptor and the
residuals, and, in private mode, whether key2 drops a bit and where
the keys split. Each mode keeps the plans of its last _PLAN_MEMO (64)
parameter sets in a `functools.lru_cache`, every argument keyed by
value and by type, so a requested_len of 2.0 never finds the plan made
for 2:

- private: the two specs, the threat case, revealed_key, eps_hash, the
  two lambdas, auto_truncate and requested_len;
- public seed: the specs, the residual targets, the reveal caps,
  eps_seed, eps_hash, whether reveals are allowed, the output kind, the
  label, requested_len and the input length, which covers a transcript's
  length but not its bytes.

A plan holds nothing secret: no key, seed, transcript or output bits. A
refusal is not kept: each refused call plans again and raises a fresh
exception. An argument that cannot be hashed, such as a 0-d numpy
array, is planned afresh on every call. The run checks what the bits
decide, every key against its spec and the seed against the joined
input, then slices and joins the keys, extracts and builds a result
around the plan's shared report and descriptor, with its own residuals
dict.

Only `combine_public` binds a transcript: its bytes follow the keys in
the input and carry no entropy. The refusals:

- every mode: a `requested_len` that is not an integer (`ValueError`);
  no admissible output, or a request past the bound, the input length
  or a reveal cap (`Infeasible`, with its shortfall);
- private: a key below full entropy (`Infeasible`), an even total
  without `auto_truncate`, and a seed, transcript or non-zero
  `eps_seed`, which the mode would otherwise ignore (`ValueError`);
- public: a seed not asserted to postdate the keys
  (`OrderingViolation`), a missing or mis-sized seed and a key whose
  length disagrees with its spec (`ValueError`).

A `ThreatCase` picks which disclosure scenario the output length must
survive; `CombineResult.residuals` reports what each key retains if the
output is later published. The XOR baseline is included for contrast:
it leaves zero residual entropy in the surviving key once the output
and the other key are known.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .bits import BitString, concat, concat_all, is_bit_count, truncate, xor
from .bootstrap import Infeasible
from .bounds import (BoundReport, ThreatCase, combine_case_bound,
                     public_seed_bound_many)
# no longer called here; perfbench's tracing still resolves them by this path
from .bounds import alpha_partition  # noqa: F401
from .ledger import concat_sources  # noqa: F401
from .ledger import EntropyKind, SecurityLevel, SourceSpec, truncate_source
from .toeplitz import ExtractorParams, SeededHash, extract_fast

# parameter sets whose plan each mode keeps
_PLAN_MEMO = 64


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
                   caps: Sequence[float]) -> tuple[str, float]:
    """Name and unfloored value of the smallest of `_settle`'s limits,
    the first one on a tie; only refusals ask."""
    limits = [(report.max_output_len, _bound_name(report),
               report.terms["raw_value"]),
              (input_len, "the input length", input_len)]
    limits += [(cap, f"key{i}'s reveal cap", cap)
               for i, cap in enumerate(caps, 1)]
    _, name, value = min(limits, key=lambda entry: entry[0])
    return name, value


class _Plan(NamedTuple):
    """The public part of one combine: what its parameters alone decide."""

    report: BoundReport
    params: ExtractorParams
    out_spec: SourceSpec
    residuals: dict     # never handed out: each result gets a copy


def _settle(report: BoundReport, requested: Optional[int], input_len: int,
            caps: Sequence[float], label: str, kind: EntropyKind,
            specs: Sequence[SourceSpec], targets: Sequence[float]) -> _Plan:
    """Settle the output length and describe the output.

    The length is the bound's, the input's and every cap's limit,
    floored, or `requested` below that. `caps` are the keys' reveal
    caps, key1's first. A refusal's shortfall is measured against the
    tightest limit before the floor, so a cap of 0.5 bits falls 0.5
    short of one bit; its message names that limit and gives its
    unfloored value (the bound's raw value). The output is described as
    a fully secure source, with what each key of `specs`, named key1,
    key2, ..., retains once it is published against its residual target
    in `targets`.
    """
    if requested is not None and not is_bit_count(requested):
        raise ValueError(f"requested_len must be an integer number of "
                         f"bits, got {requested!r}")
    if not report.feasible:
        raise Infeasible(max(0.0, -report.terms["raw_value"]),
                         f"combination infeasible: {_bound_name(report)} "
                         f"allows {report.max_output_len} bits")
    limit = min(report.max_output_len, input_len, *caps)
    length = math.floor(limit)
    if requested is not None:
        if requested > length:
            name, value = _binding_limit(report, input_len, caps)
            raise Infeasible(requested - limit,
                             f"requested {requested} bits but {name} "
                             f"allows only {value:g}")
        length = limit = int(requested)
    if length < 1:
        name, value = ("the requested length", requested) \
            if requested is not None \
            else _binding_limit(report, input_len, caps)
        raise Infeasible(1.0 - limit, f"no extractable bits under {name} "
                                      f"({value:g} bits)")
    residuals = {}
    for i, (spec, target) in enumerate(zip(specs, targets), 1):
        residuals[f"key{i}"] = residual_after_reveal(spec, length, target)
    return _Plan(report, ExtractorParams.modified(input_len, length),
                 SourceSpec(label, length, length, report.out_eps, kind),
                 residuals)


def _run(plan: _Plan, seed: BitString, input_bits: BitString
         ) -> CombineResult:
    """Extract the planned output; the result gets its own residuals."""
    output = extract_fast(SeededHash(plan.params, seed), input_bits)
    return CombineResult(output=output, out_spec=plan.out_spec,
                         report=plan.report, residuals=plan.residuals.copy())


@functools.lru_cache(maxsize=_PLAN_MEMO, typed=True)
def _private_plan(spec1: SourceSpec, spec2: SourceSpec, threat: ThreatCase,
                  revealed_key: Optional[int], eps_hash: SecurityLevel,
                  lambda1: float, lambda2: float, auto_truncate: bool,
                  requested_len: Optional[int]
                  ) -> tuple[bool, int, int, _Plan]:
    """`combine_private`'s plan: whether key2 drops its last bit, the
    lengths a1 and a2 that key1 and key2 give the seed, and the output.

    The odd total splits as in alpha_partition, seed_len = input_len - 1,
    with a1 = floor(alpha * |key1|) for alpha = (total - 1) / (2 * total).
    """
    deficit = (spec1.length - spec1.hmin) + (spec2.length - spec2.hmin)
    if deficit > 0:
        raise Infeasible(deficit, f"private-seed combining needs "
                         f"full-entropy keys; {deficit:g} bits of min-entropy "
                         f"are missing")
    drop = (spec1.length + spec2.length) % 2 == 0
    if drop:
        if not auto_truncate:
            raise ValueError(
                "total key length is even; the balanced split needs an odd "
                "total - pass auto_truncate=True to drop one bit of key2")
        spec2 = truncate_source(spec2, 1)
    total = spec1.length + spec2.length
    if total < 2:
        raise ValueError("need at least 2 bits of key material")
    input_len = (total + 1) // 2
    a1 = (total - 1) * spec1.length // (2 * total)
    kind = _output_kind(spec1, spec2, threat, revealed_key)
    report = combine_case_bound(threat, spec1.length, spec2.length,
                                spec1.eps, spec2.eps, eps_hash,
                                lambda1, lambda2, kind=kind)
    return drop, a1, input_len - 1 - a1, _settle(
        report, requested_len, input_len, (),
        f"mix({spec1.label},{spec2.label})", kind, (spec1, spec2),
        (lambda1, lambda2))


def combine_private(req: CombineRequest) -> CombineResult:
    """Mix two keys using their own leading portions as the seed.

    The seed is key1[0:a1) || key2[0:a2) with a1 = floor(alpha*|key1|)
    and a2 chosen so the seed totals alpha*(|key1|+|key2|); the input is
    the two trailing portions in the same key order.

    The case bounds take each key's length as its entropy, and half of
    each key becomes the seed, so both keys must have full entropy.

    Raises:
        ValueError: a seed, transcript or non-zero eps_seed, which this
            mode has no use for; an even total without auto_truncate; a
            requested_len that is not an integer.
        Infeasible: a key with hmin < length (the shortfall is the sum
            of length - hmin), a threat case that admits no output at
            eps_hash, or an oversize requested_len.
    """
    if req.mode is not CombineMode.PRIVATE_SEED:
        raise ValueError("combine_private needs mode=PRIVATE_SEED")
    for name, given in (("seed", req.seed is not None),
                        ("transcript", req.transcript is not None),
                        ("eps_seed", not req.eps_seed.is_zero())):
        if given:
            raise ValueError(f"private mode takes no {name}: its seed comes "
                             f"from the keys and it binds no transcript; "
                             f"use public mode")
    public = (req.spec1, req.spec2, req.threat, req.revealed_key,
              req.eps_hash, req.lambda1, req.lambda2, req.auto_truncate,
              req.requested_len)
    try:
        drop, a1, a2, plan = _private_plan(*public)
    except TypeError:   # an argument the memo cannot hash is planned afresh
        drop, a1, a2, plan = _private_plan.__wrapped__(*public)
    key1, key2 = req.key1, req.key2
    if drop:
        key2 = truncate(key2, 1)
    return _run(plan, concat(key1[:a1], key2[:a2]),
                concat(key1[a1:], key2[a2:]))


@functools.lru_cache(maxsize=_PLAN_MEMO, typed=True)
def _seeded_plan(specs: tuple, targets: tuple, caps: tuple,
                 eps_seed: SecurityLevel, eps_hash: SecurityLevel,
                 reveal_allowed: bool, kind: EntropyKind, label: str,
                 requested_len: Optional[int], input_len: int) -> _Plan:
    """`_combine_seeded`'s plan: the public-seed bound and the output."""
    report = public_seed_bound_many(
        [spec.hmin for spec in specs], [spec.eps for spec in specs],
        eps_seed, eps_hash, reveal_allowed, kind=kind)
    return _settle(report, requested_len, input_len, caps, label, kind,
                   specs, targets)


def _combine_seeded(keys: Sequence[BitString], specs: tuple, targets: tuple,
                    seed: Optional[BitString], eps_seed: SecurityLevel,
                    eps_hash: SecurityLevel, reveal_allowed: bool,
                    seed_after_keys: bool, caps: tuple, kind: EntropyKind,
                    label: str, requested_len: Optional[int],
                    transcript: Optional[bytes] = None) -> CombineResult:
    """The public-seed construction behind both public front ends.

    `keys` are the key bits, `specs` their descriptors and `targets`
    their residual targets, in key order. The input is the keys in
    order, then the transcript if given, and the seed must have exactly
    input length minus one bits. The output is sized from the keys'
    min-entropies: their sum, or the smallest one when reveals are
    allowed.
    """
    if len(keys) < 2:
        raise ValueError("need at least two keys")
    if not seed_after_keys:
        raise OrderingViolation(
            "the public seed must be generated after all keys exist; "
            "assert seed_after_keys=True")
    if seed is None:
        raise ValueError("public mode needs a seed")
    for i, (bits, spec) in enumerate(zip(keys, specs), 1):
        if len(bits) != spec.length:
            raise ValueError(f"key{i} length disagrees with its spec")
    if transcript is not None:
        keys = (*keys, BitString.from_bytes(transcript))
    input_bits = concat_all(keys)
    if len(seed) != len(input_bits) - 1:
        raise ValueError(f"seed must be {len(input_bits) - 1} bits for a "
                         f"{len(input_bits)}-bit input, got {len(seed)}")
    public = (specs, targets, caps, eps_seed, eps_hash, reveal_allowed, kind,
              label, requested_len, len(input_bits))
    try:
        plan = _seeded_plan(*public)
    except TypeError:   # an argument the memo cannot hash is planned afresh
        plan = _seeded_plan.__wrapped__(*public)
    return _run(plan, seed, input_bits)


_REVEAL_ALLOWING_CASES = (ThreatCase.CONTROLLED_KEY, ThreatCase.REVEALED_KEY,
                          ThreatCase.REVEAL_OUTPUT_AND_KEY)


def combine_public(req: CombineRequest) -> CombineResult:
    """Mix two keys under fresh public randomness.

    The input is key1 || key2 (|| transcript if given) and the seed must
    have exactly input length minus one bits. The output is sized from
    the keys' min-entropies: their sum, or the smaller one when the
    threat case allows a reveal; an output-reveal case also caps it at
    each key's hmin - lambda.

    Raises:
        OrderingViolation: seed_after_keys not asserted.
        ValueError: missing or mis-sized seed; a requested_len that is
            not an integer.
        Infeasible: no output admissible under the threat case.
    """
    if req.mode is not CombineMode.PUBLIC_SEED:
        raise ValueError("combine_public needs mode=PUBLIC_SEED")
    spec1, spec2 = req.spec1, req.spec2
    caps: tuple[float, ...] = ()
    if req.threat in (ThreatCase.REVEAL_OUTPUT,
                      ThreatCase.REVEAL_OUTPUT_AND_KEY):
        caps = (spec1.hmin - req.lambda1, spec2.hmin - req.lambda2)
    return _combine_seeded(
        (req.key1, req.key2), (spec1, spec2), (req.lambda1, req.lambda2),
        req.seed, req.eps_seed, req.eps_hash,
        req.threat in _REVEAL_ALLOWING_CASES, req.seed_after_keys, caps,
        _output_kind(spec1, spec2, req.threat, req.revealed_key),
        f"mix({spec1.label},{spec2.label})", req.requested_len,
        req.transcript)


def combine_public_many(keys: Sequence[tuple[BitString, SourceSpec]],
                        seed: BitString, eps_seed: SecurityLevel,
                        eps_hash: SecurityLevel, *,
                        reveal_allowed: bool = False,
                        seed_after_keys: bool = False,
                        requested_len: Optional[int] = None
                        ) -> CombineResult:
    """Mix any number of independent keys under one public seed.

    Reduces to concatenating the sources and running one extraction;
    the epsilons sum, the output's entropy kind is the join of the
    keys', and the output is sized from the sum of the keys'
    min-entropies, or from the smallest one when reveals are allowed.
    """
    specs = tuple(spec for _, spec in keys)
    kind = functools.reduce(EntropyKind.combine,
                            (spec.kind for spec in specs), EntropyKind.MIN)
    return _combine_seeded([bits for bits, _ in keys], specs,
                           (0.0,) * len(specs), seed, eps_seed, eps_hash,
                           reveal_allowed, seed_after_keys, (), kind, "mix",
                           requested_len)


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
