"""Tracer unit coverage: sampling, span trees, decomposition, exporters."""

import json

import pytest

from repro.components import (
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.observability import (
    DecisionTrace,
    Span,
    TraceContext,
    Tracer,
    critical_path,
    decompose,
    decomposition_table,
    spans_to_jsonl,
    write_jsonl,
)
from repro.simnet import Network
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)


def alice_policy():
    return Policy(
        policy_id="p",
        rules=(
            permit_rule(
                "alice", subject_resource_action_target(subject_id="alice")
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def build_env(replicas=1, pep_config=None, pdp_config=None, seed=24):
    network = Network(seed=seed)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(alice_policy())
    pdps = [
        PolicyDecisionPoint(
            f"pdp-{i}", network, pap_address="pap", config=pdp_config
        )
        for i in range(replicas)
    ]
    pep = PolicyEnforcementPoint(
        "pep",
        network,
        pdp_address="pdp-0",
        config=pep_config or PepConfig(decision_cache_ttl=0.0),
    )
    return network, pdps, pep


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext(trace_id="t9", span_id="s4", hops=2)
        assert TraceContext.parse(context.header()) == context

    @pytest.mark.parametrize(
        "header", [None, 7, "", "t1;s1", "a;b;c;d", "t1;s1;notanint"]
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert TraceContext.parse(header) is None


class TestSampling:
    def test_disabled_by_default(self):
        tracer = Tracer(now=lambda: 0.0)
        assert not tracer.enabled
        assert tracer.sample_rate == 0.0

    def test_rate_zero_never_samples(self):
        tracer = Tracer(now=lambda: 0.0, sample_rate=0.0)
        request = RequestContext.simple("alice", "doc", "read")
        assert all(
            tracer.begin_decision(None, request) is None for _ in range(50)
        )

    def test_rate_one_always_samples(self):
        tracer = Tracer(now=lambda: 0.0, sample_rate=1.0)
        request = RequestContext.simple("alice", "doc", "read")
        assert all(
            tracer.begin_decision(None, request) is not None
            for _ in range(50)
        )

    def test_fractional_rate_is_deterministic_accumulator(self):
        tracer = Tracer(now=lambda: 0.0, sample_rate=0.25)
        request = RequestContext.simple("alice", "doc", "read")
        sampled = [
            tracer.begin_decision(None, request) is not None
            for _ in range(12)
        ]
        # Exactly one in four, at fixed positions — no RNG involved.
        assert sampled.count(True) == 3
        assert sampled == ([False, False, False, True] * 3)

    def test_finish_none_trace_is_a_noop(self):
        tracer = Tracer(now=lambda: 0.0, sample_rate=0.0)
        tracer.finish_decision(None, None)
        tracer.join_decision(None)
        tracer.envelope_done(None, [], "ok")
        assert tracer.spans == []


class TestDecisionSpanTree:
    def drive(self, sample_rate, submissions=6):
        network, pdps, pep = build_env()
        network.tracer.sample_rate = sample_rate
        pep.enable_batching(max_batch=3, max_delay=0.001)
        done = []
        for index in range(submissions):
            pep.submit(
                RequestContext.simple("alice", f"doc-{index}", "read"),
                done.append,
            )
        network.run(until=network.now + 2.0)
        assert len(done) == submissions
        return network, done

    def test_sampling_off_emits_nothing(self):
        network, done = self.drive(0.0)
        assert network.tracer.spans == []

    def test_full_sampling_emits_one_tree_per_decision(self):
        network, done = self.drive(1.0, submissions=6)
        spans = network.tracer.spans
        roots = [s for s in spans if s.name == "decision"]
        assert len(roots) == 6
        for root in roots:
            phases = [
                s
                for s in spans
                if s.trace_id == root.trace_id
                and s.parent_id == root.span_id
            ]
            assert sorted(s.name for s in phases) == [
                "batch",
                "demux",
                "queue",
                "wire",
            ]
            # The four phases partition submit→completion exactly.
            assert sum(s.duration for s in phases) == pytest.approx(
                root.duration, abs=1e-12
            )
            assert root.attrs["granted"] is True
            assert root.attrs["source"] == "pdp"

    def test_wire_phase_joins_envelope_and_pdp_service(self):
        network, done = self.drive(1.0)
        spans = network.tracer.spans
        wires = [s for s in spans if s.name == "wire"]
        assert wires
        for wire in wires:
            envelope_trace = wire.attrs["envelope_trace"]
            envelope = [
                s
                for s in spans
                if s.trace_id == envelope_trace
                and s.name == "wire.envelope"
            ]
            assert len(envelope) == 1
            assert envelope[0].attrs["outcome"] == "ok"
            services = [
                s
                for s in spans
                if s.trace_id == envelope_trace and s.name == "pdp.service"
            ]
            assert len(services) == 1
            assert services[0].parent_id == envelope[0].span_id
            assert services[0].component == "pdp-0"

    def test_coalesced_waiters_counted_on_shared_root(self):
        network, pdps, pep = build_env()
        network.tracer.sample_rate = 1.0
        pep.enable_batching(max_batch=8, max_delay=0.001)
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        pep.submit(request, done.append)
        pep.submit(request, done.append)
        pep.submit(request, done.append)
        network.run(until=network.now + 1.0)
        assert len(done) == 3
        roots = [s for s in network.tracer.spans if s.name == "decision"]
        assert len(roots) == 1
        assert roots[0].attrs["waiters"] == 3

    def test_decision_cache_hit_is_a_sync_span(self):
        network, pdps, pep = build_env(
            pep_config=PepConfig(decision_cache_ttl=60.0)
        )
        network.tracer.sample_rate = 1.0
        pep.enable_batching(max_batch=1, max_delay=0.001)
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        pep.submit(request, done.append)
        network.run(until=network.now + 1.0)
        pep.submit(request, done.append)  # decision-cache hit: sync
        assert len(done) == 2
        roots = [s for s in network.tracer.spans if s.name == "decision"]
        assert len(roots) == 2
        sync = [r for r in roots if r.attrs.get("sync")]
        assert len(sync) == 1
        assert sync[0].duration == 0.0
        # Sync completions have no phase children.
        assert not any(
            s.parent_id == sync[0].span_id for s in network.tracer.spans
        )

    def test_authorize_paths_emit_sync_spans(self):
        network, pdps, pep = build_env()
        network.tracer.sample_rate = 1.0
        pep.authorize(RequestContext.simple("alice", "doc", "read"))
        pep.authorize(RequestContext.simple("eve", "doc2", "read"))
        roots = [s for s in network.tracer.spans if s.name == "decision"]
        assert [r.attrs["path"] for r in roots] == ["authorize", "authorize"]
        assert [r.attrs["granted"] for r in roots] == [True, False]


class TestDecomposition:
    #: A real PDP service model, so the wire phase has PDP queueing,
    #: signature and evaluation legs to attribute.
    SERVICE_MODEL = PdpConfig(
        envelope_overhead=0.002, decision_service_time=0.0005
    )

    def test_rows_reconcile_and_skip_sync(self):
        network, pdps, pep = build_env(
            pep_config=PepConfig(decision_cache_ttl=60.0),
            pdp_config=self.SERVICE_MODEL,
        )
        network.tracer.sample_rate = 1.0
        pep.enable_batching(max_batch=2, max_delay=0.001)
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        pep.submit(request, done.append)
        network.run(until=network.now + 1.0)
        pep.submit(request, done.append)  # sync cache hit
        rows = decompose(network.tracer.spans)
        assert len(rows) == 1
        assert rows[0].phase_sum == pytest.approx(rows[0].e2e, abs=1e-12)
        assert rows[0].pdp_eval > 0.0
        assert rows[0].signature > 0.0

    def test_table_aggregates_means(self):
        network, pdps, pep = build_env()
        network.tracer.sample_rate = 1.0
        pep.enable_batching(max_batch=2, max_delay=0.001)
        done = []
        for index in range(4):
            pep.submit(
                RequestContext.simple("alice", f"doc-{index}", "read"),
                done.append,
            )
        network.run(until=network.now + 1.0)
        table = decomposition_table(network.tracer.spans, tier="unit")
        assert table["tier"] == "unit"
        assert table["decisions"] == 4
        phase_keys = (
            "queue_ms",
            "batch_ms",
            "wire_ms",
            "pdp_wait_ms",
            "signature_ms",
            "pdp_eval_ms",
            "demux_ms",
        )
        assert sum(table[k] for k in phase_keys) == pytest.approx(
            table["e2e_ms"], abs=1e-3
        )

    def test_critical_path_descends_to_pdp_leaf(self):
        network, pdps, pep = build_env()
        network.tracer.sample_rate = 1.0
        pep.enable_batching(max_batch=2, max_delay=0.001)
        done = []
        pep.submit(
            RequestContext.simple("alice", "doc", "read"), done.append
        )
        network.run(until=network.now + 1.0)
        rows = decompose(network.tracer.spans)
        path = critical_path(network.tracer.spans, rows[0].trace_id)
        names = [span.name for span in path]
        assert names[0] == "decision"
        # The wire phase opens into the shared envelope and descends to
        # the PDP service leaf before the trailing demux phase.
        wire_at = names.index("wire")
        assert names[wire_at + 1] == "wire.envelope"
        assert names[wire_at + 2] == "pdp.service"
        assert names[-1] == "demux"

    def test_critical_path_unknown_trace_raises(self):
        with pytest.raises(KeyError):
            critical_path([], "t404")


class TestExporters:
    def sample_spans(self):
        network, pdps, pep = build_env()
        network.tracer.sample_rate = 1.0
        pep.enable_batching(max_batch=1, max_delay=0.001)
        done = []
        pep.submit(
            RequestContext.simple("alice", "doc", "read"), done.append
        )
        network.run(until=network.now + 1.0)
        return network.tracer.spans

    def test_jsonl_round_trips_every_span(self, tmp_path):
        spans = self.sample_spans()
        text = spans_to_jsonl(spans)
        lines = text.strip().splitlines()
        assert len(lines) == len(spans)
        decoded = [json.loads(line) for line in lines]
        assert decoded[0]["trace_id"] == spans[0].trace_id
        assert decoded[0]["duration"] == pytest.approx(spans[0].duration)
        target = tmp_path / "spans.jsonl"
        write_jsonl(spans, target)
        assert target.read_text(encoding="utf-8") == text


class TestManualRecorder:
    def test_marks_clamp_monotonically(self):
        """A trace missing its reply mark (failure before any reply)
        collapses later phases to zero instead of going negative."""
        tracer = Tracer(now=lambda: 5.0, sample_rate=1.0)
        trace = DecisionTrace(
            context=TraceContext("t1", "s1"), started_at=1.0
        )
        trace.mark("flush", 2.0)
        trace.mark("sent", 3.0)
        # no reply mark
        tracer.finish_decision(trace, None, error="RpcTimeout")
        spans = {s.name: s for s in tracer.spans}
        assert spans["decision"].attrs["error"] == "RpcTimeout"
        assert spans["queue"].duration == pytest.approx(1.0)
        assert spans["batch"].duration == pytest.approx(1.0)
        assert spans["wire"].duration == pytest.approx(2.0)
        assert spans["demux"].duration == 0.0
        total = sum(
            spans[n].duration for n in ("queue", "batch", "wire", "demux")
        )
        assert total == pytest.approx(spans["decision"].duration)

    def test_mark_first_keeps_earliest_send(self):
        trace = DecisionTrace(
            context=TraceContext("t1", "s1"), started_at=0.0
        )
        trace.mark_first("sent", 1.0)
        trace.mark_first("sent", 2.0)  # failover retransmit
        assert trace.marks["sent"] == 1.0

    def test_span_duration(self):
        span = Span(
            trace_id="t",
            span_id="s",
            parent_id=None,
            name="x",
            component="c",
            domain="",
            start=1.5,
            end=4.0,
        )
        assert span.duration == 2.5
