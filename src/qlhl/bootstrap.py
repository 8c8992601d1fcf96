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

`WeakSourceSim` provides deterministic toy sources for tests: flat
sources uniform over a 2**k subset, biased iid bits, or an explicit
injected distribution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import BitString, truncate
from .bounds import required_hmin
from .ledger import (EntropyKind, SecurityLevel, SourceSpec, eps_sum,
                     truncate_source)
from .toeplitz import ExtractorParams, SeededHash, extract_fast


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
        A feasible BootstrapPlan.

    Raises:
        InsufficientSeedMaterial: if |x2| < |x1| - 1.
        Infeasible: if the entropy budget falls short (carries the gap).
    """
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
        (output, out_spec): the extracted bits and a secure-source
        descriptor carrying the summed epsilons and joined kind.
    """
    if len(x1_bits) != plan.x1_spec.length:
        raise ValueError(f"x1 must be {plan.x1_spec.length} bits, "
                         f"got {len(x1_bits)}")
    if len(x2_bits) != plan.x2_spec.length:
        raise ValueError(f"x2 must be {plan.x2_spec.length} bits, "
                         f"got {len(x2_bits)}")
    seed = truncate(x2_bits, plan.q)
    output = extract_fast(SeededHash(plan.params, seed), x1_bits)
    out_spec = SourceSpec(
        label=f"boot({plan.x1_spec.label},{plan.x2_spec.label})",
        length=plan.out_len, hmin=plan.out_len,
        eps=eps_sum((plan.x1_spec.eps, plan.x2_spec.eps, plan.eps_hash)),
        kind=plan.x1_spec.kind.combine(plan.x2_spec.kind))
    return output, out_spec


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
