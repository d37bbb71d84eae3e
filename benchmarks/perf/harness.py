"""Chunked, calibrated measurement of one closed-loop drive.

The measured phase is exactly one ``drive_closed_loop`` call (one loop
of blocking ``authorize`` calls for ``secure_sync``).  It is never split
into several calls: ``drive_closed_loop`` advances the virtual clock to
``started_at + horizon`` when it returns, which would expire every TTL
cache between the pieces.  Instead the driver's ``observer`` reads the
process's CPU clock every K-th completion, runs one pass of the frozen
calibration kernel there (kernel time excluded from the chunk), and a
chunk's cost is ``chunk_cpu / K / kernel_cpu * 1000`` cost units.

Requests reach the driver through :class:`RequestFeed`, a sequence whose
length is the number of requests the run may still issue.  That is how a
wall-clock deadline (``--seconds``) stops a driver that only knows
"submit until the sequence ends", using nothing but its public
signature.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from calibration import (
    REFERENCE_KERNEL_S,
    cost_clock,
    kernel_around,
    timed_kernel_pass,
)
from repro.components import QUEUE_LATENCY_SERIES
from repro.simnet import LatencyStats
from repro.workloads import drive_closed_loop
from repro.xacml import RequestContext
from worlds import Workload, World

#: Requests per PEP the warm-up drives (policy fetch, cache fill).
WARMUP_REQUESTS = 64
#: Requests generated inside every timed set-up, so ``setup_s`` carries a
#: fixed amount of request generation whatever ``--seconds`` is.
SETUP_REQUESTS = 2_000
#: Simulated-seconds safety stop of the warm-up and the measured drive.
WARMUP_HORIZON = 5.0
DRIVE_HORIZON = 3_600.0
#: ``EventLoop.run`` raises at 1,000,000 events in one call and a drive
#: is one call; the meter closes the feeds well before that.
EVENT_BUDGET = 900_000


class RequestFeed(Sequence):
    """One PEP's request sequence, as ``drive_closed_loop`` indexes it.

    Requests are fresh objects drawn from a seeded endless ``source``;
    the meter tops the buffer up between chunks (off the clock), so the
    driver never waits on request generation inside a chunk.
    """

    def __init__(self, source: Iterator[RequestContext], quota: int) -> None:
        self._source = source
        self._items: list[RequestContext] = []
        #: Requests this feed may hand out in total; ``close`` lowers it
        #: to the number already issued, which ends the driver's refill.
        self.quota = quota
        self.issued = 0

    def __len__(self) -> int:
        return self.quota

    def __getitem__(self, index: int) -> RequestContext:
        while index >= len(self._items):
            self._items.append(next(self._source))
        if index >= self.issued:
            self.issued = index + 1
        return self._items[index]

    def top_up(self, ahead: int) -> None:
        wanted = min(self.issued + ahead, self.quota)
        while len(self._items) < wanted:
            self._items.append(next(self._source))

    def close(self) -> None:
        self.quota = self.issued


@dataclass
class Completion:
    """Columns of the per-completion log (parallel lists, cheap appends)."""

    requests: list = field(default_factory=list)
    results: list = field(default_factory=list)
    #: Simulated completion time (what the staleness audit classifies).
    at: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class Mark:
    """One reading of the simulated side of a drive."""

    completed: int
    now: float
    messages: int
    wire_bytes: int
    latency_samples: int
    #: The process's high-water resident set so far, in MiB.
    peak_rss_mib: float


class ChunkMeter:
    """The drive's observer: logs completions, stamps chunks, stops the run.

    Args:
        world: the world being driven.
        feeds: the request feeds, one per PEP.
        chunk: completions per chunk (K).
        ahead: requests each feed keeps buffered past the issued ones.
        sync: the drive is a loop of blocking calls, whose simulated
            round trips the meter collects itself.
        pinned: completions the simulated metrics are taken over (the
            run's *pinned prefix*); a fixed count, so for one seed they
            are the same numbers however long ``seconds`` lets it run.
        seconds: close the feeds at the first chunk boundary past this
            many wall seconds *and* past the pinned prefix, so a slow
            box runs longer instead of reporting the simulated metrics
            over fewer decisions (None: run the feeds' quotas out).
        profiler: optional ``cProfile.Profile`` that is running; it is
            switched off around the off-the-clock work at a chunk
            boundary so the kernel never shows up as a layer.
    """

    def __init__(
        self,
        world: World,
        feeds: list,
        chunk: int,
        ahead: int,
        pinned: int,
        sync: bool = False,
        seconds: Optional[float] = None,
        profiler=None,
    ) -> None:
        self.world = world
        self.feeds = feeds
        self.chunk = chunk
        self.ahead = ahead
        self.pinned = pinned
        self.sync = sync
        self.seconds = seconds
        self.profiler = profiler
        #: Simulated-side readings at the start / at the pinned completion.
        self.start_mark: Optional[Mark] = None
        self.pinned_mark: Optional[Mark] = None
        #: Simulated round trips of blocking calls (``secure_sync`` only;
        #: the closed loop's are in the fabric's own latency series).
        self.round_trips: list[float] = []
        self.log = Completion()
        #: Per chunk: CPU seconds (what a cost is made of) and wall seconds.
        self.chunk_cpu: list[float] = []
        self.chunk_walls: list[float] = []
        self.kernels: list[float] = []
        self.closed = False
        self._loop = world.network.loop
        self._disturbances = tuple(world.disturbances)
        self.events_at_start = 0
        self._started = 0.0
        self._chunk_started = (0.0, 0.0)

    def start(self) -> None:
        for feed in self.feeds:
            feed.top_up(self.ahead)
        timed_kernel_pass()  # warm the kernel's own caches
        self.kernels.append(timed_kernel_pass())
        self.events_at_start = self._loop.processed
        self.start_mark = self.mark()
        self._started = time.perf_counter()
        self._chunk_started = (cost_clock(), time.perf_counter())

    def __call__(self, pep, request, result) -> None:
        log = self.log
        log.requests.append(request)
        log.results.append(result)
        log.at.append(pep.now)
        completed = len(log.requests)
        if completed == self.pinned:
            self.pinned_mark = self.mark()
        if self.closed:
            return  # draining: no more disturbances, no more chunks
        for every, disturb in self._disturbances:
            if completed % every == 0:
                disturb(self.world, completed)
        if completed % self.chunk == 0:
            self._boundary()

    def mark(self) -> "Mark":
        """The simulated clock and wire counters, read right now."""
        metrics = self.world.network.metrics
        return Mark(
            completed=len(self.log),
            now=self.world.network.now,
            messages=metrics.messages_sent,
            wire_bytes=metrics.bytes_sent,
            latency_samples=(
                len(self.round_trips)
                if self.sync
                else metrics.sample_count(QUEUE_LATENCY_SERIES)
            ),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        )

    def _boundary(self) -> None:
        cpu, wall = cost_clock(), time.perf_counter()
        if self.profiler is not None:
            self.profiler.disable()
        self.chunk_cpu.append(cpu - self._chunk_started[0])
        self.chunk_walls.append(wall - self._chunk_started[1])
        self.kernels.append(timed_kernel_pass())
        out_of_time = (
            self.seconds is not None
            and len(self.log) >= self.pinned
            and time.perf_counter() - self._started >= self.seconds
        )
        out_of_events = (
            self._loop.processed - self.events_at_start >= EVENT_BUDGET
        )
        if out_of_time or out_of_events:
            self.closed = True
            for feed in self.feeds:
                feed.close()
        else:
            for feed in self.feeds:
                feed.top_up(self.ahead)
        if self.profiler is not None:
            self.profiler.enable()
        self._chunk_started = (cost_clock(), time.perf_counter())

    def chunk_costs_cu(self) -> list[float]:
        """Per-chunk cost per decision in cu (thousandths of a kernel pass).

        Chunk ``i`` ran between kernel passes ``i`` and ``i + 1``.
        """
        return [
            cpu / self.chunk / kernel_around(self.kernels, index + 1) * 1000.0
            for index, cpu in enumerate(self.chunk_cpu)
        ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation): a measured value."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass
class Drive:
    """What one measured phase produced."""

    meter: ChunkMeter
    #: Requests handed to the PEPs.
    submitted: int
    #: Completions the simulated figures below cover (the pinned prefix,
    #: or the whole run when it ended before the prefix did).
    pinned: int
    virtual_decisions_per_s: float
    virtual_latency: LatencyStats
    messages_per_decision: float
    bytes_per_decision: float
    #: High-water resident set when the pinned prefix completed: the
    #: memory of a fixed amount of work, however long the run went on.
    peak_rss_mib: float
    #: Whole-run totals.
    messages: int
    events: int

    @property
    def completed(self) -> int:
        return len(self.meter.log)


def _even_quotas(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


def drive(
    workload: Workload,
    world: World,
    feeds: list[RequestFeed],
    seconds: Optional[float] = None,
    profiler=None,
) -> Drive:
    """Run the measured phase: one driver call, chunked by the meter.

    A ``cProfile.Profile`` passed as ``profiler`` runs for exactly the
    measured phase, minus the chunk-boundary work.
    """
    network = world.network
    meter = ChunkMeter(
        world,
        feeds,
        chunk=workload.chunk,
        ahead=workload.chunk + workload.window,
        pinned=workload.pinned,
        sync=workload.sync,
        seconds=seconds,
        profiler=profiler,
    )
    gc.collect()
    gc.freeze()
    meter.start()
    if profiler is not None:
        profiler.enable()
    try:
        if workload.sync:
            _drive_sync(world, feeds[0], meter)
        else:
            drive_closed_loop(
                world.peps,
                feeds,
                workload.window,
                horizon=DRIVE_HORIZON,
                observer=meter,
            )
    finally:
        if profiler is not None:
            profiler.disable()
        gc.unfreeze()
    # A run that stops short of the pinned prefix (``--decisions``) is
    # read when its last request completed: the driver has since moved
    # the clock on to ``started_at + horizon``.
    start = meter.start_mark
    end = replace(meter.mark(), now=meter.log.at[-1] if meter.log.at else start.now)
    pinned = meter.pinned_mark or end
    decisions = pinned.completed
    if workload.sync:
        latencies = meter.round_trips[: pinned.latency_samples]
    else:
        latencies = network.metrics.samples[QUEUE_LATENCY_SERIES][
            start.latency_samples : pinned.latency_samples
        ]
    return Drive(
        meter=meter,
        submitted=sum(feed.issued for feed in feeds),
        pinned=decisions,
        virtual_decisions_per_s=decisions / max(pinned.now - start.now, 1e-9),
        virtual_latency=LatencyStats.from_samples(latencies),
        messages_per_decision=(pinned.messages - start.messages) / decisions,
        bytes_per_decision=(pinned.wire_bytes - start.wire_bytes) / decisions,
        peak_rss_mib=pinned.peak_rss_mib,
        messages=end.messages - start.messages,
        events=network.loop.processed - meter.events_at_start,
    )


def _drive_sync(world: World, feed: RequestFeed, meter: ChunkMeter) -> None:
    """Blocking pull-model calls, one outstanding, same meter."""
    pep = world.peps[0]
    network = world.network
    index = 0
    while index < len(feed):
        request = feed[index]
        index += 1
        sent_at = network.now
        result = pep.authorize(request)
        meter.round_trips.append(network.now - sent_at)
        meter(pep, request, result)


def warm_up(workload: Workload, world: World, requests: list[list]) -> None:
    """The first requests of every PEP: policy fetch, cache fill."""
    if workload.sync:
        for request in requests[0][:WARMUP_REQUESTS]:
            world.peps[0].authorize(request)
        return
    drive_closed_loop(
        world.peps,
        [batch[:WARMUP_REQUESTS] for batch in requests],
        workload.window,
        horizon=WARMUP_HORIZON,
    )


@dataclass
class SetUp:
    """One built, warmed-up world and where its request streams stand."""

    #: Wall seconds the set-up took, and its CPU seconds in *reference-
    #: machine seconds*: scaled by how the calibration kernel ran beside it.
    wall_s: float
    reference_s: float
    world: World
    #: Per-PEP request iterators, positioned after ``generated``.
    sources: list
    #: Per-PEP requests generated inside the set-up; the first
    #: ``WARMUP_REQUESTS`` of each were used by the warm-up.
    generated: list

    def feeds(self, decisions: Optional[int]) -> list[RequestFeed]:
        """Feeds continuing every PEP's seeded stream past the warm-up."""
        if decisions is None:
            quotas = [10**9] * len(self.sources)
        else:
            quotas = _even_quotas(decisions, len(self.sources))
        return [
            RequestFeed(itertools.chain(batch[WARMUP_REQUESTS:], source), quota)
            for source, batch, quota in zip(
                self.sources, self.generated, quotas, strict=True
            )
        ]


def _kernel_now() -> float:
    return statistics.median(timed_kernel_pass() for _ in range(3))


def set_up(workload: Workload, seed: int, inputs, repeats: int = 1) -> SetUp:
    """Timed set-up: build the world, generate requests, warm up.

    ``setup_s`` is reported in reference-machine seconds — CPU seconds
    times ``REFERENCE_KERNEL_S / kernel_cpu`` with the kernel timed
    just before and after — because raw time on a shared box drifts by
    more than any useful bound.  With ``repeats`` above 1 the
    whole set-up is done that many times, every one a complete fresh
    world from the same seed; the last world is kept and carries the
    median of the times.
    """
    times = []
    for _ in range(repeats):
        world = sources = generated = None  # drop the previous world first
        gc.collect()
        kernel_before = _kernel_now()
        started = (cost_clock(), time.perf_counter())
        world = workload.build(seed, inputs)
        sources = workload.feeds(seed, inputs)
        per_pep = max(WARMUP_REQUESTS, SETUP_REQUESTS // len(sources))
        generated = [[next(source) for _ in range(per_pep)] for source in sources]
        warm_up(workload, world, generated)
        cpu, wall = cost_clock() - started[0], time.perf_counter() - started[1]
        kernel = (kernel_before + _kernel_now()) / 2
        times.append((cpu * REFERENCE_KERNEL_S / kernel, wall))
    reference_s, wall_s = sorted(times)[len(times) // 2]
    return SetUp(
        wall_s=wall_s,
        reference_s=reference_s,
        world=world,
        sources=sources,
        generated=generated,
    )
