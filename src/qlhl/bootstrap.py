"""Seeding one extraction from two independent seedless entropy sources.

The pipeline turns two raw bitstrings X1, X2 from conditionally
independent sources into one near-uniform output: X2 (truncated to
|X1| - 1 bits) seeds the hash, X1 is the input. Feasibility for a
requested output of A bits at hashing parameter eps is
`bounds.qlhl_general`'s inequality, the input entropy plus the seed term
hmin(X2) - |X2| reaching `bounds.required_hmin(A, eps)`:

    hmin(X1) + hmin(X2) - |X2| >= A + 2*log2(1/eps) - 2

evaluated with the pre-truncation length and entropy of X2 (truncating
q bits lowers hmin(X2) and |X2| by q alike, so q cancels). It is checked
as hmin(X1) + hmin(X2) >= required_hmin(A + |X2|, eps), and a refusal
carries the difference as its shortfall.

Plan and run. `plan_bootstrap` does everything that depends on public
parameters alone: the checks, the entropy budget, the hash shape and,
on first use, the output's descriptor (`BootstrapPlan.out_spec`). It
keeps the plans of its last _PLAN_MEMO (64) argument sets, keyed on the
source descriptors, out_len, eps_hash and the independence flag, each
by value and by type, so 10.0 never finds the plan made for 10. A plan
holds no sample bits. A refusal is not kept: each refused call plans
again and raises a fresh exception. An argument that cannot be hashed,
such as a 0-d numpy array, is planned afresh on every call.
`run_bootstrap` does the per-call work: it checks the two samples'
lengths, trims X2 and extracts.

`WeakSourceSim` provides deterministic toy sources for tests: flat
sources uniform over a 2**k subset, biased iid bits, or an explicit
injected distribution.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import BitString, is_bit_count, truncate
from .bounds import required_hmin
from .ledger import (EntropyKind, SecurityLevel, SourceSpec, eps_sum,
                     truncate_source)
from .toeplitz import ExtractorParams, SeededHash, extract_fast

# argument sets whose BootstrapPlan `plan_bootstrap` keeps
_PLAN_MEMO = 64


class Infeasible(ValueError):
    """Requested output cannot be certified; carries the entropy gap."""

    def __init__(self, shortfall_bits: float, message: Optional[str] = None):
        self.shortfall_bits = shortfall_bits
        super().__init__(message or
                         f"entropy shortfall of {shortfall_bits:g} bits; "
                         "gather fresh source material and plan again")


class InsufficientSeedMaterial(ValueError):
    """Seed-side source is too short for the hash family's seed size."""


class SourceModel(enum.Enum):
    FLAT_K = "FlatK"
    BIASED_IID = "BiasedIID"
    INJECTED = "Injected"


@dataclass(frozen=True)
class WeakSourceSim:
    """Deterministic simulated entropy source.

    Attributes:
        length: sample length in bits.
        hmin_declared: min-entropy the source claims; must not exceed
            the model's true min-entropy.
        model: FLAT_K (uniform over the 2**hmin lowest-valued strings),
            BIASED_IID (independent bits with P[1] = bias), or INJECTED
            (explicit probability table over all 2**length values).
        rng_seed: seed for the sampling generator.
        bias: P[1] for BIASED_IID.
        table: probability table for INJECTED.
    """

    length: int
    hmin_declared: float
    model: SourceModel
    rng_seed: int = 0
    bias: Optional[float] = None
    table: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 0 <= self.hmin_declared <= self.length:
            raise ValueError("hmin_declared must be in [0, length]")
        if self.model is SourceModel.FLAT_K:
            if self.hmin_declared != int(self.hmin_declared):
                raise ValueError("flat sources need integer hmin")
        elif self.model is SourceModel.BIASED_IID:
            if self.bias is None or not 0.0 < self.bias < 1.0:
                raise ValueError("bias must lie strictly in (0, 1)")
        else:
            if self.table is None:
                raise ValueError("injected model needs a table")
            if self.length > 24:
                raise ValueError("injected tables limited to length <= 24")
            object.__setattr__(self, "table",
                               np.asarray(self.table, dtype=np.float64))
            if self.table.shape != (1 << self.length,):
                raise ValueError("table must have 2**length entries")
            if abs(float(self.table.sum()) - 1.0) > 1e-9 or \
                    float(self.table.min()) < 0:
                raise ValueError("table must be a probability distribution")
        true = self.true_hmin
        if self.hmin_declared > true + 1e-9:
            raise ValueError(
                f"declared hmin {self.hmin_declared:g} exceeds the model's "
                f"true min-entropy {true:g}")

    @property
    def true_hmin(self) -> float:
        if self.model is SourceModel.FLAT_K:
            return float(self.hmin_declared)
        if self.model is SourceModel.BIASED_IID:
            return -self.length * math.log2(max(self.bias, 1.0 - self.bias))
        return -math.log2(float(self.table.max()))

    def exact_distribution(self) -> np.ndarray:
        """Probability table over all 2**length values (guarded size)."""
        if self.length > 24:
            raise ValueError("exact distribution limited to length <= 24")
        size = 1 << self.length
        if self.model is SourceModel.FLAT_K:
            k = int(self.hmin_declared)
            dist = np.zeros(size)
            dist[: 1 << k] = 1.0 / (1 << k)
            return dist
        if self.model is SourceModel.BIASED_IID:
            ones = np.bitwise_count(np.arange(size, dtype=np.uint64))
            ones = ones.astype(np.float64)
            return (self.bias ** ones) * \
                ((1.0 - self.bias) ** (self.length - ones))
        return np.array(self.table, dtype=np.float64, copy=True)

    def to_spec(self, label: str,
                eps: Optional[SecurityLevel] = None) -> SourceSpec:
        return SourceSpec(label=label, length=self.length,
                          hmin=self.hmin_declared,
                          eps=eps if eps is not None else SecurityLevel.zero(),
                          kind=EntropyKind.MIN)


def sample_weak_source(sim: WeakSourceSim) -> BitString:
    """Draw one sample from a simulated source (deterministic per seed)."""
    rng = np.random.default_rng(sim.rng_seed)
    if sim.model is SourceModel.FLAT_K:
        k = int(sim.hmin_declared)
        if k == 0:
            return BitString.zeros(sim.length)
        suffix = BitString.from_u8(rng.integers(0, 2, size=k, dtype=np.uint8))
        if k == sim.length:
            return suffix
        return BitString.zeros(sim.length - k) + suffix
    if sim.model is SourceModel.BIASED_IID:
        bits = (rng.random(sim.length) < sim.bias).astype(np.uint8)
        return BitString.from_u8(bits)
    value = int(rng.choice(1 << sim.length, p=sim.table))
    return BitString.from_int(value, sim.length)


@dataclass(frozen=True)
class BootstrapPlan:
    """Checked recipe for one seeded extraction from two raw sources.

    Attributes:
        x1_spec: input-side source (feeds the hash input).
        x2_spec: seed-side source (truncated by q bits, then seeds).
        out_len: requested output length A.
        eps_hash: closeness parameter of the extraction.
        q: bits trimmed off the tail of X2 so |X2| - q = |X1| - 1.
        params: the resulting hash shape.

    `out_spec`, the output's descriptor, is built once per plan, on first
    use (a dataclass field would enter eq, repr and `replace`).
    """

    x1_spec: SourceSpec
    x2_spec: SourceSpec
    out_len: int
    eps_hash: SecurityLevel
    q: int
    params: ExtractorParams

    @property
    def seed_spec(self) -> SourceSpec:
        """Worst-case descriptor of the truncated seed actually used."""
        return truncate_source(self.x2_spec, self.q)

    @property
    def seed_to_input_ratio(self) -> float:
        """Realized |X2| / |X1| before truncation (advisory)."""
        return self.x2_spec.length / self.x1_spec.length

    @functools.cached_property
    def out_spec(self) -> SourceSpec:
        """A secure-source descriptor of the output, carrying the summed
        epsilons and the joined kind."""
        return SourceSpec(
            label=f"boot({self.x1_spec.label},{self.x2_spec.label})",
            length=self.out_len, hmin=self.out_len,
            eps=eps_sum((self.x1_spec.eps, self.x2_spec.eps, self.eps_hash)),
            kind=self.x1_spec.kind.combine(self.x2_spec.kind))


def plan_bootstrap(x1: SourceSpec, x2: SourceSpec, out_len: int,
                   eps_hash: SecurityLevel, *,
                   independent: bool = True) -> BootstrapPlan:
    """Validate geometry and entropy budget for one bootstrap extraction.

    Args:
        x1: input-side source descriptor.
        x2: seed-side source descriptor (the longer one, conventionally).
        out_len: requested output bits A.
        eps_hash: extraction closeness parameter.
        independent: caller's assertion that the sources are
            conditionally independent given the adversary.

    Returns:
        A feasible BootstrapPlan, shared by every call with equal
        arguments of equal types among the last _PLAN_MEMO.

    Raises:
        ValueError: out_len is not an integer (checked first), or is
            below 1 or above |x1|; independence is not asserted.
        InsufficientSeedMaterial: if |x2| < |x1| - 1.
        Infeasible: if the entropy budget falls short (carries the gap).
    """
    public = (x1, x2, out_len, eps_hash, independent)
    try:
        return _plan_bootstrap(*public)
    except TypeError:   # an argument the memo cannot hash is planned afresh
        return _plan_bootstrap.__wrapped__(*public)


@functools.lru_cache(maxsize=_PLAN_MEMO, typed=True)
def _plan_bootstrap(x1: SourceSpec, x2: SourceSpec, out_len: int,
                    eps_hash: SecurityLevel,
                    independent: bool) -> BootstrapPlan:
    """`plan_bootstrap`'s plan of its arguments."""
    if not is_bit_count(out_len):
        raise ValueError(f"out_len must be an integer number of bits, got "
                         f"{out_len!r}")
    if not independent:
        raise ValueError("bootstrap requires conditionally independent "
                         "sources; pass independent=True to assert")
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    if x2.length < x1.length - 1:
        raise InsufficientSeedMaterial(
            f"seed source has {x2.length} bits but needs at least "
            f"{x1.length - 1}")
    if out_len > x1.length:
        raise ValueError(f"cannot extract {out_len} bits from a "
                         f"{x1.length}-bit input")
    q = x2.length - x1.length + 1
    # qlhl_general's bound with pre-truncation |X2| and hmin2 (q cancels),
    # its seed term's -|X2| moved to the required side
    need = required_hmin(out_len + x2.length, eps_hash)
    have = x1.hmin + x2.hmin
    if have < need:
        raise Infeasible(need - have)
    params = ExtractorParams.modified(input_len=x1.length,
                                      output_len=out_len)
    return BootstrapPlan(x1_spec=x1, x2_spec=x2, out_len=out_len,
                         eps_hash=eps_hash, q=q, params=params)


def run_bootstrap(plan: BootstrapPlan, x1_bits: BitString,
                  x2_bits: BitString) -> tuple[BitString, SourceSpec]:
    """Execute a plan on concrete samples.

    Returns:
        (output, out_spec): the extracted bits and the plan's `out_spec`.
    """
    if len(x1_bits) != plan.x1_spec.length:
        raise ValueError(f"x1 must be {plan.x1_spec.length} bits, "
                         f"got {len(x1_bits)}")
    if len(x2_bits) != plan.x2_spec.length:
        raise ValueError(f"x2 must be {plan.x2_spec.length} bits, "
                         f"got {len(x2_bits)}")
    seed = truncate(x2_bits, plan.q)
    output = extract_fast(SeededHash(plan.params, seed), x1_bits)
    return output, plan.out_spec


def plan_to_kv_dict(plan: BootstrapPlan) -> dict:
    """Flatten a plan for the key/value report format."""
    doc: dict = {}
    for prefix, spec in (("x1", plan.x1_spec), ("x2", plan.x2_spec)):
        doc[f"{prefix}_label"] = spec.label
        doc[f"{prefix}_length_bits"] = spec.length
        doc[f"{prefix}_hmin_bits"] = spec.hmin
        doc[f"{prefix}_neg_log2_eps"] = spec.eps.neg_log2
        doc[f"{prefix}_kind"] = spec.kind.value
    doc["out_len"] = plan.out_len
    doc["eps_hash_neg_log2"] = plan.eps_hash.neg_log2
    doc["q"] = plan.q
    doc["input_len"] = plan.params.input_len
    doc["seed_len"] = plan.params.seed_len
    return doc


def plan_from_kv_dict(doc: dict) -> BootstrapPlan:
    """Rebuild a plan from its key/value form (revalidates)."""
    def spec(prefix: str) -> SourceSpec:
        return SourceSpec(
            label=str(doc[f"{prefix}_label"]),
            length=int(doc[f"{prefix}_length_bits"]),
            hmin=float(doc[f"{prefix}_hmin_bits"]),
            eps=SecurityLevel(float(doc[f"{prefix}_neg_log2_eps"])),
            kind=EntropyKind.from_name(str(doc[f"{prefix}_kind"])))
    return plan_bootstrap(
        spec("x1"), spec("x2"), int(doc["out_len"]),
        SecurityLevel(float(doc["eps_hash_neg_log2"])))
