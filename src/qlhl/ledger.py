"""Entropy ledger: source descriptors and their composition algebra.

A source is summarized by four numbers: bit length, conditional min-entropy
hmin (in bits, against the adversary's side information), a security level
(closeness to uniform), and an entropy kind. The algebra implemented here:

- concatenating two conditionally independent sources adds lengths and
  min-entropies and adds the epsilons;
- splitting a fully secure source yields two fully secure parts, each
  carrying the parent's epsilon, mutually independent at that smoothing;
- truncating by q bits costs at worst q bits of min-entropy;
- revealing r bits costs at worst r bits of min-entropy (chain rule).

Epsilons are tracked as -log2(eps) in double precision with exact +inf
(eps = 0), because values like 2^-128 underflow linear doubles. Every
sum of epsilons is one `eps_sum` fold: it adds the terms left to right,
each step the two-term log-sum-exp -log2(2^-x + 2^-y) = x - log2(1 +
2^(x - y)) for x <= y, rounded to the nearest double and clamped at 0
(eps = 1), and builds one `SecurityLevel` from the result. A zero term
leaves the running sum as it is. Because each step rounds to nearest,
the result can depend on the order of the terms and can fall a few ulps
below the exact sum; exact, order-free arithmetic that rounds against
the adversary is planned to replace this fold (ROADMAP item 8).

Conditional independence is caller-asserted metadata, never inferred: the
library cannot verify independence from descriptors, so combining without
the assertion is a hard error.

Kinds form a small lattice: MIN < SMOOTH < HILL, and
HILL (computational pseudoentropy, the model for PQC keys) absorbs: any
value derived from a HILL source is itself only computationally secure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bits import is_bit_count


class IndependenceError(ValueError):
    """Raised when sources are combined without an independence assertion."""


class EntropyKind(enum.Enum):
    MIN = "min"
    SMOOTH = "smooth"
    HILL = "hill"

    @property
    def rank(self) -> int:
        return _KIND_RANK[self._value_]

    def combine(self, other: "EntropyKind") -> "EntropyKind":
        """Join on the kind lattice; the weaker guarantee wins, HILL absorbs."""
        # keyed by value: a member's own hash is a Python-level call
        if _KIND_RANK[self._value_] >= _KIND_RANK[other._value_]:
            return self
        return other

    @staticmethod
    def from_name(name: str) -> "EntropyKind":
        for kind in EntropyKind:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown entropy kind {name!r}")


_KIND_RANK = {"min": 0, "smooth": 1, "hill": 2}


@dataclass(frozen=True, order=False)
class SecurityLevel:
    """A closeness-to-uniform parameter eps, stored as -log2(eps).

    neg_log2 is an extended real in [0, +inf]; +inf means eps = 0 exactly.
    Larger neg_log2 means more secure. -0.0 is stored as 0.0.
    """

    neg_log2: float

    def __post_init__(self):
        # "not >= 0" also refuses NaN
        if not self.neg_log2 >= 0:
            raise ValueError(f"neg_log2 must be in [0, +inf], got {self.neg_log2}")
        if self.neg_log2 == 0:
            object.__setattr__(self, "neg_log2", abs(self.neg_log2))

    @classmethod
    def exp2(cls, n: float) -> "SecurityLevel":
        """eps = 2^-n."""
        return cls(float(n))

    @classmethod
    def from_eps(cls, eps: float) -> "SecurityLevel":
        if not 0 <= eps <= 1:
            raise ValueError(f"eps must be in [0, 1], got {eps}")
        if eps == 0:
            return cls(math.inf)
        return cls(max(0.0, -math.log2(eps)))

    @classmethod
    def zero(cls) -> "SecurityLevel":
        """eps = 0 (perfect)."""
        return cls(math.inf)

    @property
    def eps(self) -> float:
        return 0.0 if math.isinf(self.neg_log2) else 2.0 ** (-self.neg_log2)

    def is_zero(self) -> bool:
        return math.isinf(self.neg_log2)

    def __add__(self, other: "SecurityLevel") -> "SecurityLevel":
        return eps_sum((self, other))

    def __le__(self, other: "SecurityLevel") -> bool:
        # "<=" compares the eps values: smaller eps is smaller.
        return self.neg_log2 >= other.neg_log2

    def __lt__(self, other: "SecurityLevel") -> bool:
        return self.neg_log2 > other.neg_log2

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"2^-{self.neg_log2:g}"


def eps_add(a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
    """eps_a + eps_b; `eps_sum` of the two."""
    return eps_sum((a, b))


def eps_sum(levels) -> SecurityLevel:
    """The sum of the levels' epsilons, folded left to right.

    Each step adds one term to the running sum in the log domain: with
    x = -log2(eps_a) <= y = -log2(eps_b) (a is the larger eps),
    -log2(2^-x + 2^-y) = x - log2(1 + 2^(x - y)), which is stable for any
    spread of magnitudes. A sum of sub-unit epsilons may exceed 1; each
    step clamps at neg_log2 = 0, since closeness beyond 1 carries no
    meaning. Adding a zero term (y = +inf) returns the other operand, as
    the formula does. Only the result is built as a `SecurityLevel`; an
    empty sum is zero.
    """
    inf, log2 = math.inf, math.log2
    total = inf
    for level in levels:
        x, y = total, level.neg_log2
        if x > y:
            x, y = y, x
        if y == inf:
            # x - log2(1 + 0) is x, which is >= 0
            total = float(x)
        else:
            total = x - log2(1.0 + 2.0 ** (x - y))
            if not total > 0.0:     # max(0.0, total)
                total = 0.0
    return SecurityLevel(total)


@dataclass(frozen=True)
class SourceSpec:
    """Descriptor of a (length, hmin)-source with smoothing eps and kind.

    A fully secure source is exactly the case hmin == length, with eps its
    closeness to uniform-and-independent of the adversary. The length is
    an integer (a Python or numpy int, not a bool).
    """

    label: str
    length: int
    hmin: float
    eps: SecurityLevel
    kind: EntropyKind = EntropyKind.MIN

    def __post_init__(self):
        if not is_bit_count(self.length):
            raise ValueError(f"length must be an integer number of bits, "
                             f"got {self.length!r}")
        if self.length < 0:
            raise ValueError("length must be >= 0")
        if not 0 <= self.hmin <= self.length:
            raise ValueError(
                f"hmin must satisfy 0 <= hmin <= length, got hmin={self.hmin} "
                f"length={self.length}"
            )

    @property
    def is_secure(self) -> bool:
        return self.hmin == self.length

    @classmethod
    def secure(cls, label: str, length: int, eps: SecurityLevel,
               kind: EntropyKind = EntropyKind.MIN) -> "SourceSpec":
        return cls(label, length, float(length), eps, kind)


def concat_sources(a: SourceSpec, b: SourceSpec, *,
                   independent: bool = False) -> SourceSpec:
    """Ledger entry for the concatenation of two independent sources.

    Lengths and min-entropies add; epsilons add; the kind is the join.
    `independent` is the caller's assertion of conditional independence
    given the adversary; omitting it is a hard error, not a default.
    """
    if not independent:
        raise IndependenceError(
            "concat_sources requires the caller to assert conditional "
            "independence of the two sources (pass independent=True)"
        )
    return SourceSpec(
        label=f"{a.label}||{b.label}",
        length=a.length + b.length,
        hmin=a.hmin + b.hmin,
        eps=eps_sum((a.eps, b.eps)),
        kind=a.kind.combine(b.kind),
    )


def split_secure(x: SourceSpec, at: int) -> tuple[SourceSpec, SourceSpec]:
    """Split a fully secure source into two fully secure parts.

    Each part keeps the parent's eps, and the pair may be treated as
    mutually conditionally independent at that smoothing. Splitting a
    non-secure source is not supported: the decomposition guarantee only
    holds when hmin equals length.
    """
    if not x.is_secure:
        raise ValueError(
            f"split_secure requires a fully secure source (hmin == length); "
            f"got hmin={x.hmin}, length={x.length}"
        )
    if not 0 <= at <= x.length:
        raise ValueError(f"split point {at} out of range for length {x.length}")
    left = SourceSpec(f"{x.label}[:{at}]", at, float(at), x.eps, x.kind)
    right = SourceSpec(f"{x.label}[{at}:]", x.length - at,
                       float(x.length - at), x.eps, x.kind)
    return left, right


def truncate_source(x: SourceSpec, q: int) -> SourceSpec:
    """Worst-case ledger for dropping q trailing bits: hmin falls by q."""
    if not 0 <= q <= x.length:
        raise ValueError(f"cannot truncate {q} bits from length {x.length}")
    return SourceSpec(x.label, x.length - q, max(0.0, x.hmin - q), x.eps,
                      x.kind)


def leak(x: SourceSpec, bits_revealed: float) -> SourceSpec:
    """Chain rule: revealing r bits costs at most r bits of min-entropy."""
    if not bits_revealed >= 0:
        raise ValueError("bits_revealed must be >= 0")
    return SourceSpec(x.label, x.length, max(0.0, x.hmin - bits_revealed),
                      x.eps, x.kind)


# -- flat key-value text format ---------------------------------------------


def kv_format(record: dict) -> str:
    """Serialize a flat mapping as 'key: value' lines."""
    lines = []
    for key, value in record.items():
        if isinstance(value, float) and math.isinf(value):
            value = "inf"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def kv_parse(text: str) -> dict:
    """Parse 'key: value' lines into a string-to-string mapping."""
    record = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        record[key.strip()] = value.strip()
    return record


def source_to_kv(spec: SourceSpec) -> str:
    return kv_format({
        "label": spec.label,
        "length_bits": spec.length,
        "hmin_bits": spec.hmin,
        "neg_log2_eps": spec.eps.neg_log2,
        "kind": spec.kind.value,
    })


def source_from_kv(text: str) -> SourceSpec:
    record = kv_parse(text)
    for key in ("length_bits", "hmin_bits"):
        if key not in record:
            raise ValueError(f"source record lacks {key!r}")
    neg = record.get("neg_log2_eps", "inf")
    return SourceSpec(
        label=record.get("label", "source"),
        length=int(record["length_bits"]),
        hmin=float(record["hmin_bits"]),
        eps=SecurityLevel(float(neg)),
        kind=EntropyKind.from_name(record.get("kind", "min")),
    )
