"""Per-layer attribution of one traced drive.

Three views, all taken from outside the program:

* **profiled self time** — ``cProfile`` around the traced drive, every
  function's self time and call count bucketed by source path into this
  repository's module names (:data:`LAYERS`).  ``cProfile`` taxes Python
  calls but not work inside C, so the shares are for *finding*
  candidates; gains are claimed on ``decision_cost_cu_*`` only.
* **simulated-time waiting** — the repository's own ``Tracer`` at
  sampling rate 1, folded by ``decomposition_table`` into where a
  decision's *virtual* latency went.
* **harness phase spans** — wall-clock spans of the harness's own
  phases, kept in memory and written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from repro.observability import decomposition_table, write_jsonl

#: Layer -> path fragments (relative to ``src/repro/``) that belong to it.
_REPRO_LAYERS = (
    ("xacml.context", ("xacml/context.py", "xacml/attributes.py")),
    ("xacml.codec", ("xacml/serializer.py", "xacml/parser.py")),
    ("xacml.engine", ("xacml/engine.py",)),
    ("xacml.eval", ("xacml/",)),
    ("saml", ("saml/",)),
    ("wsvc", ("wsvc/",)),
    ("wss", ("wss/",)),
    ("components.pep", ("components/pep.py",)),
    ("components.fabric", ("components/fabric.py",)),
    ("components.pdp", ("components/pdp.py",)),
    ("components.federation", ("components/federation.py",)),
    ("components.cache", ("components/cache.py",)),
    ("components.base", ("components/",)),
    ("simnet", ("simnet/",)),
    ("revocation", ("revocation/",)),
    ("domain", ("domain/",)),
    ("workloads", ("workloads/",)),
    ("observability", ("observability/",)),
)
LAYERS = tuple(name for name, _ in _REPRO_LAYERS) + (
    "stdlib.xml",
    "stdlib.other",
    "harness",
)
_XML_MARKERS = ("xml/etree", "xml.etree", "_elementtree", "pyexpat", "xml/sax")

VIRTUAL_PHASES = (
    "queue",
    "batch",
    "wire",
    "pdp_wait",
    "signature",
    "pdp_eval",
    "demux",
)


def _path_layer(filename: str, harness_dir: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        relative = path.split("/repro/", 1)[1]
        for name, fragments in _REPRO_LAYERS:
            if any(relative.startswith(fragment) for fragment in fragments):
                return name
        return "stdlib.other"  # repro/xmlutil.py: shared helpers
    if path.startswith(harness_dir):
        return "harness"
    if any(marker in path for marker in _XML_MARKERS):
        return "stdlib.xml"
    return "stdlib.other"


def bucket_profile(profile, decisions: int, harness_dir: str) -> dict[str, float]:
    """``L.self_share`` and ``L.calls_per_decision`` for every layer.

    Python functions are bucketed by source path.  C functions have no
    path: the XML ones (``_elementtree``, ``pyexpat``) are ``stdlib.xml``
    whoever calls them, and every other builtin's self time and calls go
    to the layer of the *calling* function, so ``dict.get`` inside the
    engine counts as engine work, not as ``stdlib.other``.
    """
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, function), (_, total_calls, own, _, callers) in pstats.Stats(
        profile
    ).stats.items():
        if filename != "~":
            layer = _path_layer(filename, harness_dir)
            self_time[layer] += own
            calls[layer] += total_calls
        elif any(marker in function for marker in _XML_MARKERS):
            self_time["stdlib.xml"] += own
            calls["stdlib.xml"] += total_calls
        else:
            for (caller_file, _, _), (caller_calls, _, caller_own, _) in callers.items():
                layer = (
                    "stdlib.other"
                    if caller_file == "~"
                    else _path_layer(caller_file, harness_dir)
                )
                self_time[layer] += caller_own
                calls[layer] += caller_calls
    total = sum(self_time.values()) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / total
        out[f"{layer}.calls_per_decision"] = calls[layer] / decisions
    return out


def virtual_shares(spans) -> dict[str, float]:
    """Where simulated latency went, as shares of the mean end-to-end.

    Blocking ``authorize`` calls record a single span with no phases, so
    on ``secure_sync`` every share is 0 by definition.
    """
    table = decomposition_table(spans)
    total = float(table["e2e_ms"])
    return {
        f"virtual.{phase}_share": (
            float(table[f"{phase}_ms"]) / total if total > 0 else 0.0
        )
        for phase in VIRTUAL_PHASES
    }


class PhaseSpans:
    """Wall-clock spans of the harness's own phases, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = len(self.spans)
        record = {
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def write_out(out_dir: Path, stem: str, phases: PhaseSpans, tracer_spans) -> None:
    """Write the run's spans as JSONL under the git-ignored ``out/``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stem}.phases.jsonl", "w", encoding="utf-8") as handle:
        for span in phases.spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    if tracer_spans:
        write_jsonl(tracer_spans, out_dir / f"{stem}.spans.jsonl")
