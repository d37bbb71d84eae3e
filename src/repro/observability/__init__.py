"""Decision-path observability: causal spans, latency decomposition, audits.

The metrics registry (:mod:`repro.simnet.metrics`) answers *how much* —
message counts, byte totals, latency distributions.  This package answers
*why* and *where*: every sampled decision carries a trace context from
``Pep.authorize``/``submit`` through the coalescing queue, the domain
gateway's super-batches, federated forwards, the PDP service model and
back out through demux, producing a causal :class:`~repro.observability.
tracing.Span` tree in simulated time.

Design constraint (enforced by E24): tracing is *metadata only*.  The
trace context rides :attr:`repro.simnet.message.Message.headers`, which
the size model deliberately excludes — like a ``traceparent`` HTTP header
riding an existing request — so enabling 100% sampling changes neither
message counts nor bytes nor any timing.  With sampling off (the
default) no instrumentation path allocates anything.

Modules:

- :mod:`.tracing` — ``TraceContext``, ``Span``, ``Tracer``, the
  per-decision stamp-then-emit recorder.
- :mod:`.latency` — the per-tier latency-decomposition report and
  critical-path extraction for batched fan-in.
- :mod:`.audits` — trace-query audits that re-derive staleness,
  misroute accounting and forwarding-loop checks from spans.
- :mod:`.export` — the JSONL span exporter.
- :mod:`.catalog` — the central registry of counter / series names the
  lint test holds ``src/`` against.
"""

from .audits import (
    StalenessFromSpans,
    forwarding_report,
    misroute_accounting,
    rederive_staleness,
)
from .catalog import COUNTERS, SERIES, SERIES_PREFIXES
from .export import (
    spans_to_jsonl,
    write_jsonl,
)
from .latency import (
    DecompositionRow,
    critical_path,
    decompose,
    decomposition_table,
)
from .tracing import DecisionTrace, Span, TraceContext, Tracer

__all__ = [
    "COUNTERS",
    "SERIES",
    "SERIES_PREFIXES",
    "DecisionTrace",
    "DecompositionRow",
    "Span",
    "StalenessFromSpans",
    "TraceContext",
    "Tracer",
    "critical_path",
    "decompose",
    "decomposition_table",
    "forwarding_report",
    "misroute_accounting",
    "rederive_staleness",
    "spans_to_jsonl",
    "write_jsonl",
]
