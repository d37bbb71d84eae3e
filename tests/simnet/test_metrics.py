"""Tests for the metrics registry and latency statistics."""

import pytest

from repro.simnet import LatencyStats, MetricsRegistry


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.5])
        assert stats.count == 1
        assert stats.mean == 0.5
        assert stats.p50 == 0.5
        assert stats.maximum == 0.5

    def test_percentiles_ordered(self):
        samples = [float(i) for i in range(100)]
        stats = LatencyStats.from_samples(samples)
        assert stats.p50 <= stats.p95 <= stats.maximum
        assert stats.maximum == 99.0

    def test_mean(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)


class TestMetricsRegistry:
    def test_send_and_delivery_accounting(self):
        metrics = MetricsRegistry()
        metrics.record_send("query", 100)
        metrics.record_send("query", 200)
        metrics.record_delivery(100, latency=0.01)
        assert metrics.messages_sent == 2
        assert metrics.bytes_sent == 300
        assert metrics.messages_delivered == 1
        assert metrics.sent_by_kind["query"] == 2
        assert metrics.bytes_by_kind["query"] == 300

    def test_drop_accounting(self):
        metrics = MetricsRegistry()
        metrics.record_drop()
        assert metrics.messages_dropped == 1

    def test_named_counters(self):
        metrics = MetricsRegistry()
        metrics.bump("cache-hit")
        metrics.bump("cache-hit", 2)
        assert metrics.counters["cache-hit"] == 3

    def test_snapshot_shape(self):
        metrics = MetricsRegistry()
        metrics.record_send("q", 10)
        metrics.record_delivery(10, latency=0.5)
        metrics.bump("denials")
        snapshot = metrics.snapshot()
        assert snapshot["messages_sent"] == 1
        assert snapshot["latency_mean_ms"] == 500.0
        assert snapshot["sent[q]"] == 1
        assert snapshot["count[denials]"] == 1
