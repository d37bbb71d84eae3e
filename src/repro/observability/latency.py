"""Latency decomposition: where each decision's time went.

Consumes the span store of :class:`~repro.observability.tracing.Tracer`
and answers "where does the millisecond go" per decision and per tier:

- :func:`decompose` — one :class:`DecompositionRow` per traced decision,
  splitting submit→completion into queue wait, batch wait, wire,
  PDP queueing, signature/envelope work, PDP evaluation and demux.  The
  four phase spans partition the root exactly; the wire phase is
  further split by joining the PDP service span through the envelope
  trace, with clamping so the row still sums to the end-to-end latency.
- :func:`critical_path` — the time-dominant causal chain for one trace,
  descending through the shared envelope of a batched fan-in (and any
  federated serving hops) to the PDP service leaf.
- :func:`decomposition_table` — per-tier aggregate means, ready for a
  benchmark table row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .tracing import Span


@dataclass(frozen=True)
class DecompositionRow:
    """One decision's latency split (all figures simulated seconds).

    ``queue + batch + wire + pdp_wait + signature + pdp_eval + demux``
    equals ``e2e`` by construction (the wire phase is reduced by the
    joined PDP time).  ``cache`` names the tier that short-circuited
    the wire, if any.
    """

    trace_id: str
    component: str
    domain: str
    source: str
    cache: str
    granted: bool
    waiters: int
    e2e: float
    queue: float
    batch: float
    wire: float
    pdp_wait: float
    signature: float
    pdp_eval: float
    demux: float

    @property
    def phase_sum(self) -> float:
        return (
            self.queue
            + self.batch
            + self.wire
            + self.pdp_wait
            + self.signature
            + self.pdp_eval
            + self.demux
        )


def _index(spans: Iterable[Span]):
    roots: list[Span] = []
    children: dict[tuple[str, str], list[Span]] = {}
    pdp_by_trace: dict[str, list[Span]] = {}
    for span in spans:
        if span.name == "decision":
            roots.append(span)
        if span.parent_id is not None:
            children.setdefault((span.trace_id, span.parent_id), []).append(
                span
            )
        if span.name == "pdp.service":
            pdp_by_trace.setdefault(span.trace_id, []).append(span)
    return roots, children, pdp_by_trace


def decompose(spans: Sequence[Span]) -> list[DecompositionRow]:
    """Per-decision latency rows; synchronous completions (cache /
    revocation-guard hits, zero latency by definition) are skipped."""
    roots, children, pdp_by_trace = _index(spans)
    rows: list[DecompositionRow] = []
    for root in roots:
        sync = bool(root.attrs.get("sync"))
        if sync:
            continue
        phases = {
            span.name: span
            for span in children.get((root.trace_id, root.span_id), [])
        }
        queue = phases["queue"].duration if "queue" in phases else 0.0
        batch = phases["batch"].duration if "batch" in phases else 0.0
        wire_span = phases.get("wire")
        wire = wire_span.duration if wire_span is not None else 0.0
        demux = phases["demux"].duration if "demux" in phases else 0.0
        pdp_wait = signature = pdp_eval = 0.0
        if wire_span is not None:
            envelope_trace = wire_span.attrs.get("envelope_trace")
            candidates = pdp_by_trace.get(envelope_trace, ())
            if candidates:
                # Critical-path PDP leg: the longest service span the
                # envelope (or its federated serving hops) touched.
                pdp = max(candidates, key=lambda s: s.duration)
                pdp_wait = float(pdp.attrs.get("queued", 0.0))
                signature = float(pdp.attrs.get("overhead", 0.0))
                pdp_eval = float(pdp.attrs.get("eval", 0.0))
                total = pdp_wait + signature + pdp_eval
                if total > wire > 0.0:
                    # A late joiner's wire window can be shorter than
                    # the envelope's full service time: scale the PDP
                    # legs down so the row still sums to e2e.
                    scale = wire / total
                    pdp_wait *= scale
                    signature *= scale
                    pdp_eval *= scale
                    total = wire
                wire -= min(total, wire)
        rows.append(
            DecompositionRow(
                trace_id=root.trace_id,
                component=root.component,
                domain=root.domain,
                source=str(root.attrs.get("source", "")),
                cache=str(root.attrs.get("cache", "")),
                granted=bool(root.attrs.get("granted", False)),
                waiters=int(root.attrs.get("waiters", 1)),
                e2e=root.duration,
                queue=queue,
                batch=batch,
                wire=wire,
                pdp_wait=pdp_wait,
                signature=signature,
                pdp_eval=pdp_eval,
                demux=demux,
            )
        )
    return rows


def critical_path(spans: Sequence[Span], trace_id: str) -> list[Span]:
    """The time-dominant causal chain of one decision trace.

    Walks the root's phase children in time order; at the wire phase it
    jumps into the envelope trace (the shared object of a batched
    fan-in) and descends through the longest child at each level —
    across federated serving hops — down to the PDP service leaf.
    """
    own = [span for span in spans if span.trace_id == trace_id]
    root = next((s for s in own if s.name == "decision"), None)
    if root is None:
        raise KeyError(f"no decision root for trace {trace_id!r}")
    path = [root]
    phases = sorted(
        (s for s in own if s.parent_id == root.span_id),
        key=lambda s: (s.start, s.end),
    )
    for phase in phases:
        path.append(phase)
        envelope_trace = phase.attrs.get("envelope_trace")
        if phase.name != "wire" or not envelope_trace:
            continue
        env = [s for s in spans if s.trace_id == envelope_trace]
        node: Optional[Span] = max(
            (s for s in env if s.parent_id is None),
            key=lambda s: s.duration,
            default=None,
        )
        while node is not None:
            path.append(node)
            node = max(
                (s for s in env if s.parent_id == node.span_id),
                key=lambda s: s.duration,
                default=None,
            )
    return path


def decomposition_table(
    spans: Sequence[Span], tier: str = ""
) -> dict[str, object]:
    """Aggregate the per-decision rows into one benchmark-table row
    (means in milliseconds)."""
    rows = decompose(spans)
    count = len(rows)

    def mean_ms(getter) -> float:
        if not count:
            return 0.0
        return round(sum(getter(r) for r in rows) / count * 1000, 4)

    return {
        "tier": tier,
        "decisions": count,
        "e2e_ms": mean_ms(lambda r: r.e2e),
        "queue_ms": mean_ms(lambda r: r.queue),
        "batch_ms": mean_ms(lambda r: r.batch),
        "wire_ms": mean_ms(lambda r: r.wire),
        "pdp_wait_ms": mean_ms(lambda r: r.pdp_wait),
        "signature_ms": mean_ms(lambda r: r.signature),
        "pdp_eval_ms": mean_ms(lambda r: r.pdp_eval),
        "demux_ms": mean_ms(lambda r: r.demux),
    }
