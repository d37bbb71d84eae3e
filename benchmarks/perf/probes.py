"""Replay probes: each layer's public function, timed on captured inputs.

The traced run hands over what really flowed through the workload — the
completed requests, the observed mean batch size, the PDP's live policy
store — and every probe times one layer's *public* entry point on those
inputs, in :data:`CHUNKS` chunks, normalised to cost units by kernel
passes run around the probe.  A probe answers "what does one call of
this layer cost here", which the profile (taxed by ``cProfile``) cannot.

Signing probes use a harness-owned identity, so the WS-Security cost is
reported on every workload, not only where the channel is secure.
"""

from __future__ import annotations

import statistics
from typing import Callable, Iterator, Optional

from calibration import cost_clock, kernel_around, timed_kernel_pass
from repro.components import TtlCache
from repro.domain import AdministrativeDomain
from repro.saml import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from repro.simnet import EventLoop, Message, Network
from repro.wss import KeyStore
from repro.wsvc import SecurityConfig, SoapEnvelope, secure_envelope, verify_envelope
from repro.xacml import (
    PdpEngine,
    RequestContext,
    cache_key_touches,
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
)

CHUNKS = 100
#: CPU seconds one probe chunk aims for.
CHUNK_TARGET_S = 0.0012
#: Distinct captured requests a probe cycles through.
SAMPLE = 64
#: Entries in the cache the ``invalidate_where`` probe scans.
SCAN_ENTRIES = 1_000


def measure(
    op: Callable[[int], object],
    per_call: int = 1,
    after_chunk: Optional[Callable[[], None]] = None,
    chunks: int = CHUNKS,
    max_calls: Optional[int] = None,
) -> float:
    """Median CPU seconds ``op`` takes per unit of work.

    ``op(i)`` is called with a running index so it can cycle its inputs;
    ``per_call`` is how many units one call does (a batch of N requests
    is N); ``after_chunk`` runs off the clock (undoing what ``op`` did).
    """
    index = 0

    def timed_chunk(calls: int) -> float:
        nonlocal index
        started = cost_clock()
        for _ in range(calls):
            op(index)
            index += 1
        elapsed = cost_clock() - started
        if after_chunk is not None:
            after_chunk()
        return elapsed

    # Double the calls per chunk until a chunk is long enough to time.
    # The best of three trials decides, so one scheduling stall cannot
    # end the doubling early; the cold first calls go with the trials.
    calls = 1
    while calls != max_calls:
        if min(timed_chunk(calls) for _ in range(3)) >= CHUNK_TARGET_S / 2:
            break
        calls *= 2
        if max_calls is not None:
            calls = min(calls, max_calls)
    times = [timed_chunk(calls) for _ in range(chunks)]
    return statistics.median(times) / calls / per_call


class Prober:
    """Runs probes with a kernel pass between them; reports cost units.

    A probe is normalised by the kernel passes around it, like a
    drive's chunks: a stall that lands on one kernel pass cannot skew
    the probe beside it.
    """

    def __init__(self, chunks: int) -> None:
        self.chunks = chunks
        self.kernels = [timed_kernel_pass()]
        self._seconds: dict[str, float] = {}
        self._position: dict[str, int] = {}

    def time(self, name: str, op: Callable[[int], object], **how) -> None:
        self._seconds[name] = measure(op, chunks=self.chunks, **how)
        self._position[name] = len(self.kernels)
        self.kernels.append(timed_kernel_pass())

    def costs_cu(self) -> dict[str, float]:
        return {
            name: seconds
            / kernel_around(self.kernels, self._position[name])
            * 1000.0
            for name, seconds in self._seconds.items()
        }


EVENT_BURST = 200
TRANSMIT_BURST = 100


def _event_burst():
    """Schedule and dispatch a burst of no-op events on a bare loop."""
    loop = EventLoop()

    def op(index: int) -> None:
        for _ in range(EVENT_BURST):
            loop.schedule(0.001, _noop)
        loop.run()

    return op


def _transmit_burst():
    """Send a burst of messages between two bare nodes and deliver them."""
    network = Network(seed=0)
    sender = network.node("probe-a")
    network.node("probe-b").on_message(_noop_message)

    def op(index: int) -> None:
        for _ in range(TRANSMIT_BURST):
            sender.send(
                Message(
                    sender="probe-a",
                    recipient="probe-b",
                    kind="probe",
                    payload="<Probe/>",
                )
            )
        network.run()

    return op


def _noop() -> None:
    return None


def _noop_message(message) -> None:
    return None


def run_probes(
    requests: list[RequestContext],
    batch_size: int,
    store,
    finder_for,
    source: Iterator[RequestContext],
    spare_policies: list,
    seed: int,
    chunks: int = CHUNKS,
) -> dict[str, float]:
    """Every replay probe, on this workload's captured inputs.

    Args:
        requests: completed requests captured from the traced drive.
        batch_size: the observed mean requests per PDP envelope.
        store: the PDP's live ``PolicyStore`` (restored after use).
        finder_for: per-request attribute-finder factory, or None.
        source: the workload's seeded request generator.
        spare_policies: policies whose ids the store does not hold (for
            the ``add`` probe), each also valid for ``replace`` after.
        seed: seeds the harness-owned signing identity.
        chunks: timed chunks per probe (smoke tests shrink it).
    """
    sample = requests[:: max(1, len(requests) // SAMPLE)][:SAMPLE]
    count = len(sample)
    engine = PdpEngine(store)

    def evaluate(request: RequestContext):
        if finder_for is not None:
            engine.attribute_finder = finder_for(request)
        return engine.evaluate(request)

    responses = [evaluate(request).response for request in sample]
    request_xml = [serialize_request(request) for request in sample]
    response_xml = [serialize_response(response) for response in responses]
    batch = [sample[index % count] for index in range(batch_size)]
    batch_query = XacmlAuthzDecisionBatchQuery.for_requests(batch, "probe", 0.0)
    batch_query_xml = batch_query.to_xml()

    def batch_statement() -> XacmlAuthzDecisionBatchStatement:
        return XacmlAuthzDecisionBatchStatement(
            statements=tuple(
                XacmlAuthzDecisionStatement(
                    response=responses[index % count],
                    in_response_to=query.query_id,
                    issuer="probe",
                    issue_instant=0.0,
                )
                for index, query in enumerate(batch_query.queries)
            ),
            in_response_to=batch_query.batch_id,
            issuer="probe",
            issue_instant=0.0,
        )

    batch_statement_xml = batch_statement().to_xml()

    def single_roundtrip(index: int) -> None:
        query = XacmlAuthzDecisionQuery(
            request=sample[index % count], issuer="probe", issue_instant=0.0
        )
        parsed = XacmlAuthzDecisionQuery.from_xml(query.to_xml())
        statement = XacmlAuthzDecisionStatement(
            response=responses[index % count],
            in_response_to=parsed.query_id,
            issuer="probe",
            issue_instant=0.0,
        )
        XacmlAuthzDecisionStatement.from_xml(statement.to_xml())

    identity = AdministrativeDomain(
        "probe", Network(seed=seed), KeyStore(seed=seed)
    ).component_identity("probe")
    query_xml = XacmlAuthzDecisionQuery(
        request=sample[0], issuer="probe", issue_instant=0.0
    ).to_xml()

    def secure(index: int) -> SoapEnvelope:
        return secure_envelope(
            SoapEnvelope(action="probe", body_xml=query_xml),
            identity.keypair,
            identity.certificate,
            identity.keystore,
        )

    signed = secure(0)

    def verify(index: int) -> None:
        verify_envelope(
            signed,
            identity.keystore,
            identity.validator,
            decrypt_with=identity.keypair,
            config=SecurityConfig(require_signature=True),
            at=0.0,
        )

    keys = [request.cache_key() for request in sample]
    cache = TtlCache(ttl=1e9, clock=lambda: 0.0)
    for key, response in zip(keys, responses, strict=True):
        cache.put(key, response)
    scanned = TtlCache(ttl=1e9, clock=lambda: 0.0)
    for index in range(SCAN_ENTRIES):
        scanned.put(
            RequestContext.simple(f"scan-{index}", "res", "read").cache_key(),
            index,
        )

    added: list = []

    def store_add(index: int) -> None:
        policy = spare_policies[len(added)]
        store.add(policy)
        added.append(policy)

    def remove_added() -> None:
        for policy in added:
            store.remove(policy.policy_id)
        added.clear()

    held = store.elements()[:SAMPLE]

    def one(index: int) -> int:
        return index % count

    prober = Prober(chunks)
    probe = prober.time
    probe("xacml.serializer.request_cu", lambda i: serialize_request(sample[one(i)]))
    probe("xacml.parser.request_cu", lambda i: parse_request(request_xml[one(i)]))
    probe(
        "xacml.serializer.response_cu",
        lambda i: serialize_response(responses[one(i)]),
    )
    probe("xacml.parser.response_cu", lambda i: parse_response(response_xml[one(i)]))
    probe(
        "saml.batch_query.encode_cu_per_req",
        lambda i: XacmlAuthzDecisionBatchQuery.for_requests(
            batch, "probe", 0.0
        ).to_xml(),
        per_call=batch_size,
    )
    probe(
        "saml.batch_query.decode_cu_per_req",
        lambda i: XacmlAuthzDecisionBatchQuery.from_xml(batch_query_xml),
        per_call=batch_size,
    )
    probe(
        "saml.batch_statement.encode_cu_per_req",
        lambda i: batch_statement().to_xml(),
        per_call=batch_size,
    )
    probe(
        "saml.batch_statement.decode_cu_per_req",
        lambda i: XacmlAuthzDecisionBatchStatement.from_xml(batch_statement_xml),
        per_call=batch_size,
    )
    probe("saml.single.roundtrip_cu", single_roundtrip)
    probe("wsvc.ws_security.secure_cu", secure)
    probe("wsvc.ws_security.verify_cu", verify)
    probe("xacml.context.cache_key_cu", lambda i: sample[one(i)].cache_key())
    probe("xacml.engine.candidates_cu", lambda i: store.candidates(sample[one(i)]))
    probe("xacml.engine.evaluate_cu", lambda i: evaluate(sample[one(i)]))
    probe(
        "xacml.engine.evaluate_batch_cu_per_req",
        lambda i: engine.evaluate_batch(batch, finder_for=finder_for),
        per_call=batch_size,
    )
    probe(
        "xacml.engine.store_add_cu",
        store_add,
        after_chunk=remove_added,
        max_calls=len(spare_policies),
    )
    probe(
        "xacml.engine.store_replace_cu",
        lambda i: store.replace(held[i % len(held)]),
    )
    probe("components.cache.get_cu", lambda i: cache.get(keys[one(i)]))
    probe(
        "components.cache.put_cu",
        lambda i: cache.put(keys[one(i)], responses[one(i)]),
    )
    probe(
        "components.cache.invalidate_where_cu",
        lambda i: scanned.invalidate_where(
            lambda key: cache_key_touches(key, subject_id="nobody")
        ),
    )
    probe("simnet.event_cu", _event_burst(), per_call=EVENT_BURST)
    probe("simnet.transmit_cu", _transmit_burst(), per_call=TRANSMIT_BURST)
    probe("workloads.request_gen_cu", lambda i: next(source))
    return prober.costs_cu()
