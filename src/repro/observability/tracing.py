"""Causal span trees over the decision path, in simulated time.

The tracer is *stamp-then-emit*: while a decision is in flight the only
work done is writing floats into a small per-decision recorder
(:class:`DecisionTrace`) hung off the coalescing queue's pending entry;
the :class:`Span` tree is materialised once, at completion.  Envelope
(wire) spans, PDP service spans and federated serving spans are emitted
by their owning component and joined to decision spans through
``batch_id`` / trace-context attributes rather than shared objects, so
no component needs to know any other component's internals.

Propagation is header-borne: :meth:`TraceContext.header` renders the
context as a compact string carried in ``Message.headers`` — which the
simnet size model excludes from byte accounting, exactly like a W3C
``traceparent`` header riding an already-priced request.  Tracing
therefore never adds wire traffic; E24 pins msgs/decision bit-identical
at 100% sampling.

Everything is guarded by :attr:`Tracer.enabled` (sampling rate > 0,
default 0): with tracing off the instrumentation seams cost one
attribute check and allocate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

#: Message-header key the trace context travels under.  Headers are
#: metadata outside the size model (see ``repro.simnet.message``), so
#: this never changes message sizes, counts or timing.
TRACE_HEADER = "trace"


@dataclass(frozen=True)
class TraceContext:
    """Propagated identity of one causal tree: ids plus hop count.

    ``hops`` counts gateway-to-gateway serving hops so forwarding chains
    (and would-be loops) are visible without reconstructing topology.
    """

    trace_id: str
    span_id: str
    hops: int = 0

    def header(self) -> str:
        """Render for ``Message.headers`` carriage."""
        return f"{self.trace_id};{self.span_id};{self.hops}"

    @classmethod
    def parse(cls, header: object) -> Optional["TraceContext"]:
        """Inverse of :meth:`header`; ``None`` on anything malformed."""
        if not isinstance(header, str):
            return None
        parts = header.split(";")
        if len(parts) != 3:
            return None
        try:
            hops = int(parts[2])
        except ValueError:
            return None
        return cls(trace_id=parts[0], span_id=parts[1], hops=hops)


@dataclass(frozen=True)
class Span:
    """One completed operation on the decision path.

    ``start``/``end`` are simulated seconds; ``component`` and
    ``domain`` attribute the work to a network node and its owning
    domain (per-domain attribution is first-class in a multi-tenant
    VO).  ``attrs`` carries joins (``batch_id``, ``envelope_trace``)
    and outcome detail.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    component: str
    domain: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class DecisionTrace:
    """Mutable in-flight recorder for one coalescing-queue entry.

    Holds the minted context, the submit timestamp, named timestamps
    (``flush``, ``sent``, ``reply``) stamped by the layers the entry
    passes through, and join attributes.  Turned into a span tree by
    :meth:`Tracer.finish_decision`.
    """

    __slots__ = ("context", "started_at", "marks", "attrs", "waiters")

    def __init__(self, context: TraceContext, started_at: float) -> None:
        self.context = context
        self.started_at = started_at
        self.marks: dict[str, float] = {}
        self.attrs: dict[str, Any] = {}
        self.waiters = 1

    def mark(self, name: str, at: float) -> None:
        self.marks[name] = at

    def mark_first(self, name: str, at: float) -> None:
        """Stamp only if not already stamped (failover retransmits keep
        the first send time; the wire phase covers every attempt)."""
        self.marks.setdefault(name, at)

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class _EnvelopeTrace:
    """In-flight recorder for one wire envelope (one transmit attempt)."""

    __slots__ = ("context", "sent_at", "attrs", "parent_id")

    def __init__(
        self,
        context: TraceContext,
        sent_at: float,
        attrs: dict[str, Any],
        parent_id: Optional[str],
    ) -> None:
        self.context = context
        self.sent_at = sent_at
        self.attrs = attrs
        self.parent_id = parent_id


def _decision_traces(slots: Iterable[Any]) -> Iterable[DecisionTrace]:
    """The sampled decisions riding these fabric slots
    (:meth:`repro.components.fabric.Slot.traces`)."""
    for slot in slots:
        yield from slot.traces()


class Tracer:
    """Span recorder shared by every component on one network.

    Args:
        now: zero-argument callable returning simulated time (the
            network's clock) — the tracer never touches the scheduler.
        sample_rate: fraction of decisions that get a trace; ``0.0``
            (the default) disables every instrumentation path.

    Sampling is a deterministic accumulator (no RNG), so enabling it
    cannot perturb the seeded random streams the simulation draws from.
    """

    def __init__(
        self, now: Callable[[], float], sample_rate: float = 0.0
    ) -> None:
        self._now = now
        self.sample_rate = sample_rate
        self.spans: list[Span] = []
        self._ids = 0
        self._accum = 0.0

    # -- lifecycle -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def reset(self) -> None:
        self.spans.clear()
        self._accum = 0.0

    def _next_id(self, prefix: str) -> str:
        self._ids += 1
        return f"{prefix}{self._ids}"

    def _sample(self) -> bool:
        self._accum += self.sample_rate
        if self._accum >= 1.0 - 1e-12:
            self._accum -= 1.0
            return True
        return False

    def child_context(self, parent: TraceContext) -> TraceContext:
        """A context one hop deeper in ``parent``'s trace, with a fresh
        span id (serving-side hops of a federated forward)."""
        return TraceContext(
            trace_id=parent.trace_id,
            span_id=self._next_id("s"),
            hops=parent.hops + 1,
        )

    def emit(
        self,
        name: str,
        component: str,
        domain: str,
        start: float,
        end: float,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record one finished span; mint ids when the caller has none."""
        if span_id is None:
            span_id = self._next_id("s")
        if trace_id is None:
            trace_id = self._next_id("t")
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            component=component,
            domain=domain,
            start=start,
            end=end,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    # -- decision path -------------------------------------------------

    def begin_decision(self, component: Any, request: Any) -> Optional[
        DecisionTrace
    ]:
        """Mint a trace for a newly queued decision, or ``None`` if this
        decision falls outside the sampling rate."""
        if not self._sample():
            return None
        context = TraceContext(
            trace_id=self._next_id("t"), span_id=self._next_id("s"), hops=0
        )
        trace = DecisionTrace(context=context, started_at=self._now())
        trace.set("pep", getattr(component, "name", ""))
        trace.set("subject", getattr(request, "subject_id", ""))
        trace.set("resource", getattr(request, "resource_id", ""))
        trace.set("action", getattr(request, "action_id", ""))
        return trace

    def join_decision(self, trace: Optional[DecisionTrace]) -> None:
        """A deduplicated waiter attached to an already-pending entry."""
        if trace is not None:
            trace.waiters += 1

    def sync_decision(
        self, component: Any, request: Any, result: Any, path: str = "submit"
    ) -> None:
        """A decision that completed without queueing (decision-cache
        hit or revocation-guard denial): a single leaf span."""
        trace = self.begin_decision(component, request)
        if trace is None:
            return
        trace.set("sync", True)
        trace.set("path", path)
        self.finish_decision(
            trace,
            component,
            granted=getattr(result, "granted", False),
            decision=str(getattr(result, "decision", "")),
            source=getattr(result, "source", ""),
        )

    def finish_decision(
        self,
        trace: Optional[DecisionTrace],
        component: Any,
        granted: bool = False,
        decision: str = "",
        source: str = "",
        error: str = "",
    ) -> None:
        """Emit the decision's span tree: a root covering submit →
        completion plus four child phases that partition it exactly
        (queue → batch → wire → demux), so per-decision sums reconcile
        with end-to-end latency by construction."""
        if trace is None:
            return
        now = self._now()
        ctx = trace.context
        name = getattr(component, "name", "")
        domain = getattr(component, "domain", "")
        attrs = dict(trace.attrs)
        attrs.update(
            granted=granted,
            decision=decision,
            source=source,
            waiters=trace.waiters,
        )
        if error:
            attrs["error"] = error
        self.spans.append(
            Span(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=None,
                name="decision",
                component=name,
                domain=domain,
                start=trace.started_at,
                end=now,
                attrs=attrs,
            )
        )
        if attrs.get("sync"):
            return
        # Phase boundaries, clamped monotonic so missing marks (e.g. a
        # failure before any reply) collapse the later phases to zero
        # rather than breaking the partition.
        t0 = trace.started_at
        t1 = min(max(trace.marks.get("flush", now), t0), now)
        t2 = min(max(trace.marks.get("sent", t1), t1), now)
        t3 = min(max(trace.marks.get("reply", now), t2), now)
        wire_attrs: dict[str, Any] = {}
        for key in ("batch_id", "envelope_trace", "kind", "replica",
                    "attempts", "joined_in_flight", "cache"):
            if key in trace.attrs:
                wire_attrs[key] = trace.attrs[key]
        for phase, start, end, extra in (
            ("queue", t0, t1, None),
            ("batch", t1, t2, None),
            ("wire", t2, t3, wire_attrs),
            ("demux", t3, now, None),
        ):
            self.spans.append(
                Span(
                    trace_id=ctx.trace_id,
                    span_id=self._next_id("s"),
                    parent_id=ctx.span_id,
                    name=phase,
                    component=name,
                    domain=domain,
                    start=start,
                    end=end,
                    attrs=extra or {},
                )
            )

    # -- wire envelopes ------------------------------------------------

    def envelope_sent(
        self,
        component: Any,
        items: Iterable[Any],
        batch_id: str,
        kind: str,
        replica: str,
        attempt: int,
        parent: Optional[TraceContext] = None,
    ) -> _EnvelopeTrace:
        """One transmit attempt left a wire core: stamp every sampled
        decision riding it and open an envelope span.

        The envelope joins ``parent``'s trace when given one (a serving
        hop of a federated forward sending locally or onward), else
        roots a fresh envelope trace; either way the returned context's
        header rides the message so the receiving side parents under it.
        """
        now = self._now()
        span_id = self._next_id("s")
        if parent is not None:
            context = TraceContext(
                trace_id=parent.trace_id,
                span_id=span_id,
                hops=parent.hops,
            )
            parent_id: Optional[str] = parent.span_id
        else:
            context = TraceContext(
                trace_id=self._next_id("t"), span_id=span_id, hops=0
            )
            parent_id = None
        count = 0
        for trace in _decision_traces(items):
            count += 1
            trace.mark_first("sent", now)
            trace.set("batch_id", batch_id)
            trace.set("envelope_trace", context.trace_id)
            trace.set("kind", kind)
            trace.set("replica", replica)
            trace.set("attempts", attempt)
        attrs = {
            "batch_id": batch_id,
            "kind": kind,
            "replica": replica,
            "attempt": attempt,
            "decisions": count,
            "_component": getattr(component, "name", ""),
            "_domain": getattr(component, "domain", ""),
        }
        return _EnvelopeTrace(
            context=context,
            sent_at=now,
            attrs=attrs,
            parent_id=parent_id,
        )

    def envelope_done(
        self,
        envelope: Optional[_EnvelopeTrace],
        items: Iterable[Any],
        outcome: str,
    ) -> None:
        """Close an envelope span (reply, fault, timeout or exhaustion)
        and stamp the riding decisions' reply time."""
        if envelope is None:
            return
        now = self._now()
        if outcome == "ok":
            for trace in _decision_traces(items):
                trace.mark_first("reply", now)
        ctx = envelope.context
        self.spans.append(
            Span(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=envelope.parent_id,
                name="wire.envelope",
                component=envelope.attrs.get("_component", ""),
                domain=envelope.attrs.get("_domain", ""),
                start=envelope.sent_at,
                end=now,
                attrs={
                    k: v
                    for k, v in envelope.attrs.items()
                    if not k.startswith("_")
                }
                | {"outcome": outcome},
            )
        )

    # -- cache hits ----------------------------------------------------

    def cache_hit(
        self, component: Any, items: Iterable[Any], cache: str
    ) -> None:
        """A tier served these decisions from cache instead of the wire:
        collapse their wire phase to zero-at-now with a cache label."""
        now = self._now()
        for trace in _decision_traces(items):
            trace.mark_first("sent", now)
            trace.mark_first("reply", now)
            trace.set("cache", cache)
