"""Span and counter tracing around the library's public entry points.

Tracing is applied from outside the library: `traced()` replaces each
entry point named in SITES with a wrapper, at the module attribute its
callers look it up through, and puts the originals back on exit. A
wrapper records a span (layer, start, end, parent span, op id) only while
an operation is open, so input generation and output checks outside the
timed region leave no spans. Counters are updated by per-site hooks at
the same boundaries.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans. A layer's call count is the number of its
spans whose parent belongs to another layer, so a layer entry point
calling another entry point of the same layer counts once.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

from qlhl.bootstrap import Infeasible

ROOT_SPAN = "op"

# layer name -> prefix of its per-layer metrics
LAYERS = (
    "kernels.matvec", "kernels.chained_mac", "toeplitz.extract_fast",
    "toeplitz.hash_matrix", "bits", "ledger", "bounds", "bootstrap",
    "combiner", "handshake.schedule", "handshake.mac.transcript",
    "handshake.mac.its", "handshake.providers.prf",
    "handshake.providers.kem", "handshake.wire", "handshake.protocol",
)

ABORT_REASONS = ("BadMessage", "CertUntrusted", "UnknownQkdId", "MacFailIF",
                 "MacFailRF", "ChannelLoss")

# counters that depend only on the seed and the number of operations run;
# two passes over the same operations must produce them identically
EXACT_COUNTERS = (
    "kernels.matvec.toeplitz_bitops", "kernels.chained_mac.blocks",
    "handshake.qkd_bits", "handshake.success",
    *(f"handshake.abort.{r}" for r in ABORT_REASONS),
    "bootstrap.plan_attempts", "bootstrap.plan_refused",
)


def _count_matvec(counters, args, result, exc):
    modified, _seed, n, m, _x = args
    counters["kernels.matvec.toeplitz_bitops"] += m * (n - m) if modified \
        else m * n


def _count_chained(counters, args, result, exc):
    counters["kernels.chained_mac.blocks"] += int(args[1].shape[0])


def _count_qkd(counters, args, result, exc):
    if exc is None:
        counters["handshake.qkd_bits"] += len(result[1])


def _count_session(counters, args, result, exc):
    if exc is not None:
        return
    if result.abort_reason is None:
        counters["handshake.success"] += 1
    else:
        counters[f"handshake.abort.{result.abort_reason.value}"] += 1


def _count_plan(counters, args, result, exc):
    counters["bootstrap.plan_attempts"] += 1
    if isinstance(exc, Infeasible):
        counters["bootstrap.plan_refused"] += 1


# (module, attribute path, layer or None for a counter-only site, hook).
# Functions imported by name are wrapped in every importing module, since
# each import site holds its own reference.
SITES = (
    ("qlhl._kernels", "matvec_bits", "kernels.matvec", _count_matvec),
    ("qlhl._kernels", "chained_mac", "kernels.chained_mac", _count_chained),
    ("qlhl.toeplitz", "extract_fast", "toeplitz.extract_fast", None),
    ("qlhl.bootstrap", "extract_fast", "toeplitz.extract_fast", None),
    ("qlhl.combiner", "extract_fast", "toeplitz.extract_fast", None),
    ("qlhl.handshake.mac", "extract_fast", "toeplitz.extract_fast", None),
    ("qlhl.handshake.schedule", "extract_fast", "toeplitz.extract_fast",
     None),
    ("qlhl.handshake.mac", "hash_matrix", "toeplitz.hash_matrix", None),
    ("qlhl.combiner", "concat", "bits", None),
    ("qlhl.combiner", "truncate", "bits", None),
    ("qlhl.bootstrap", "truncate", "bits", None),
    ("qlhl.handshake.schedule", "concat_all", "bits", None),
    ("qlhl.ledger", "leak", "ledger", None),
    ("qlhl.combiner", "concat_sources", "ledger", None),
    ("qlhl.combiner", "truncate_source", "ledger", None),
    ("qlhl.bootstrap", "truncate_source", "ledger", None),
    ("qlhl.bounds", "qlhl_basic", "bounds", None),
    ("qlhl.combiner", "alpha_partition", "bounds", None),
    ("qlhl.combiner", "combine_case_bound", "bounds", None),
    ("qlhl.combiner", "public_seed_bound_many", "bounds", None),
    ("qlhl.bootstrap", "plan_bootstrap", "bootstrap", _count_plan),
    ("qlhl.bootstrap", "run_bootstrap", "bootstrap", None),
    ("qlhl.combiner", "combine_private", "combiner", None),
    ("qlhl.combiner", "combine_public", "combiner", None),
    ("qlhl.combiner", "combine_public_many", "combiner", None),
    ("qlhl.handshake.protocol", "schedule_stage", "handshake.schedule",
     None),
    ("qlhl.handshake.protocol", "budget", "handshake.schedule", None),
    ("qlhl.handshake.protocol", "transcript_mac",
     "handshake.mac.transcript", None),
    ("qlhl.handshake.mac", "transcript_mac", "handshake.mac.transcript",
     None),
    ("qlhl.handshake.mac", "transcript_mac_verify",
     "handshake.mac.transcript", None),
    ("qlhl.handshake.mac", "its_mac_auth", "handshake.mac.its", None),
    ("qlhl.handshake.mac", "its_mac_verify", "handshake.mac.its", None),
    ("qlhl.handshake.protocol", "prf_expand", "handshake.providers.prf",
     None),
    ("qlhl.handshake.providers", "MockKem.keypair",
     "handshake.providers.kem", None),
    ("qlhl.handshake.providers", "MockKem.encapsulate",
     "handshake.providers.kem", None),
    ("qlhl.handshake.providers", "MockKem.decapsulate",
     "handshake.providers.kem", None),
    ("qlhl.handshake.providers", "MockQkdStore.next_block", None,
     _count_qkd),
    ("qlhl.handshake.protocol", "encode_message", "handshake.wire", None),
    ("qlhl.handshake.protocol", "decode_message", "handshake.wire", None),
    ("qlhl.handshake.protocol", "core_of_wire", "handshake.wire", None),
    ("qlhl.handshake.protocol", "field_to_bits", "handshake.wire", None),
    ("qlhl.handshake.protocol", "run_handshake", "handshake.protocol",
     _count_session),
)


class Tracer:
    """In-memory spans and counters for one pass over a workload."""

    def __init__(self):
        # each span is [layer, start, end, parent index or -1, op id]
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._op = None

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one operation."""
        self._op = op_id
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent,
                           self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer, hook):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(layer) if layer is not None else None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if index is not None:
                    self._close(index)
                if hook is not None:
                    hook(self.counters, args, None, exc)
                raise
            if index is not None:
                self._close(index)
            if hook is not None:
                hook(self.counters, args, result, None)
            return result
        return traced_call

    def layer_totals(self) -> dict:
        """Per layer: self time in seconds and call count."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            if layer not in totals:
                continue
            totals[layer][0] += (end - start) - child[i]
            if parent < 0 or self.spans[parent][0] != layer:
                totals[layer][1] += 1
        return totals

    def exact_counts(self) -> dict:
        calls = {f"{layer}.calls": n
                 for layer, (_, n) in self.layer_totals().items()}
        return {**{k: self.counters[k] for k in EXACT_COUNTERS}, **calls}

    def write(self, path, header: dict) -> None:
        """Write the header, every span and the counters as JSON lines."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            f.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def traced(tracer: Tracer):
    """Wrap every entry point in SITES for the duration of the block."""
    saved = []
    try:
        for module_name, path, layer, hook in SITES:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, layer, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Per-layer metric values, keyed by name, as (value, unit) pairs."""
    out = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        self_s, calls = totals[layer]
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    c = tracer.counters
    bitops = c["kernels.matvec.toeplitz_bitops"]
    out["kernels.matvec.toeplitz_bitops"] = (bitops, "count")
    matvec_s = totals["kernels.matvec"][0]
    out["kernels.matvec.gbitops_per_s"] = (
        bitops / matvec_s / 1e9 if matvec_s > 0 else 0.0, "Gbitop/s")
    out["kernels.chained_mac.blocks"] = (c["kernels.chained_mac.blocks"],
                                         "count")
    out["handshake.qkd_bits"] = (c["handshake.qkd_bits"], "count")
    out["handshake.success"] = (c["handshake.success"], "count")
    for reason in ABORT_REASONS:
        key = f"handshake.abort.{reason}"
        out[key] = (c[key], "count")
    attempts = c["bootstrap.plan_attempts"]
    out["bootstrap.refused_ratio"] = (
        c["bootstrap.plan_refused"] / attempts if attempts else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
