"""Network and component metrics.

Every experiment in EXPERIMENTS.md reports numbers collected here: message
counts, bytes on the wire, per-kind breakdowns and latency distributions.
Collection is cheap (dict increments) so it is always on.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable


def _percentile(data: list[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted ``data``.

    The inclusive method (numpy's default): ``q`` of 0.5 over an even
    count averages the two middle elements instead of grabbing the
    upper one, and tail percentiles interpolate instead of truncating
    down — benchmark tables were under-reporting tails before.
    """
    if len(data) == 1:
        return data[0]
    position = q * (len(data) - 1)
    lower = int(position)
    if lower + 1 >= len(data):
        return data[-1]
    fraction = position - lower
    return data[lower] + (data[lower + 1] - data[lower]) * fraction


@dataclass
class LatencyStats:
    """Summary statistics over a set of latency samples (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencyStats":
        data = sorted(samples)
        if not data:
            return cls(
                count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0
            )
        return cls(
            count=len(data),
            mean=statistics.fmean(data),
            p50=_percentile(data, 0.50),
            p95=_percentile(data, 0.95),
            p99=_percentile(data, 0.99),
            maximum=data[-1],
        )


@dataclass
class MetricsRegistry:
    """Accumulates counters for a simulation run.

    The registry distinguishes *delivered* from *dropped* traffic so that
    failure-injection experiments (E10, E11) can report loss separately.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    sent_by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    latency_samples: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Arbitrary named sample series (queueing delays, batch sizes, ...);
    #: summarised on demand via :meth:`series`.
    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def record_send(self, kind: str, size_bytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.sent_by_kind[kind] += 1
        self.bytes_by_kind[kind] += size_bytes

    def record_delivery(self, size_bytes: int, latency: float) -> None:
        self.messages_delivered += 1
        self.bytes_delivered += size_bytes
        self.latency_samples.append(latency)

    def record_drop(self) -> None:
        self.messages_dropped += 1

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment an arbitrary named counter (cache hits, denials, ...)."""
        self.counters[counter] += amount

    def record_sample(self, series: str, value: float) -> None:
        """Append one observation to a named sample series."""
        self.samples[series].append(value)

    def series(self, name: str) -> LatencyStats:
        """Summary statistics over a named sample series."""
        return self.series_window(name)

    def sample_count(self, name: str) -> int:
        """How many observations a named series holds right now.

        Measurement windows remember this before a run and pass it to
        :meth:`series_window` afterwards, so several measured runs can
        share one registry without resetting it.
        """
        return len(self.samples.get(name, ()))

    def series_window(self, name: str, start: int = 0) -> LatencyStats:
        """Summary statistics over a series, skipping the first ``start``."""
        return LatencyStats.from_samples(self.samples.get(name, [])[start:])

    def latency(self) -> LatencyStats:
        return LatencyStats.from_samples(self.latency_samples)

    def snapshot(self) -> dict[str, object]:
        """A plain-dict view suitable for printing in benchmark tables.

        Includes per-kind byte totals (``bytes[<kind>]``) and a summary
        of every named sample series (``series[<name>]``) so benchmark
        collectors can emit them without bespoke plumbing.
        """
        lat = self.latency()
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "latency_mean_ms": round(lat.mean * 1000, 3),
            "latency_p95_ms": round(lat.p95 * 1000, 3),
            "latency_p99_ms": round(lat.p99 * 1000, 3),
            **{f"sent[{k}]": v for k, v in sorted(self.sent_by_kind.items())},
            **{f"bytes[{k}]": v for k, v in sorted(self.bytes_by_kind.items())},
            **{f"count[{k}]": v for k, v in sorted(self.counters.items())},
            **{
                f"series[{name}]": self._series_summary(name)
                for name in sorted(self.samples)
            },
        }

    def _series_summary(self, name: str) -> dict[str, float]:
        """One series' summary in raw units (series are not all
        latencies — batch sizes share the mechanism)."""
        stats = self.series(name)
        return {
            "count": stats.count,
            "mean": round(stats.mean, 6),
            "p50": round(stats.p50, 6),
            "p95": round(stats.p95, 6),
            "p99": round(stats.p99, 6),
            "max": round(stats.maximum, 6),
        }
