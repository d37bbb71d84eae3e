"""Span exporter: the JSONL event log.

:func:`write_jsonl` writes one JSON object per span, stable key order,
times in *virtual* seconds: greppable, diffable, and the durable form
for offline trace queries.
"""

from __future__ import annotations

import json
from typing import Iterable

from .tracing import Span


def _span_dict(span: Span) -> dict[str, object]:
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "component": span.component,
        "domain": span.domain,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attrs": dict(span.attrs),
    }


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Render spans as newline-delimited JSON (one event per line)."""
    return "".join(
        json.dumps(_span_dict(span), sort_keys=True, default=str) + "\n"
        for span in spans
    )


def write_jsonl(spans: Iterable[Span], path) -> None:
    """Write the JSONL event log to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_to_jsonl(spans))
