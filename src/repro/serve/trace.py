"""Synthetic request traces and the one replay behind ``cli serve``.

A *trace* is a list of ``(points, queries, radius, max_neighbors)``
requests — the workload a fleet of independent callers would put on the
serving layer.  :func:`synthetic_trace` draws one deterministically: a
handful of distinct clouds, each request picking a cloud, a query batch
sampled from it, and heterogeneous ``(radius, K)`` settings, so replay
exercises exactly the coalescing the service exists for (many same-cloud
requests with different settings, interleaved across clouds).
:func:`drift_trace` draws the mutating-cloud counterpart: a cloud to
register, then per frame a mutation batch and the frame's requests.

Both replays serve one stream through several *replicas* in one loop.  A
replica's set-up (its service, registrations, tree warm-up) runs before
its clock starts, so the timings compare serving, not builds, and its
result stream must equal the first replica's in length and bits.  The
first replica is the baseline: :func:`replay_trace` serves one request
per flush (``"sequential"``), then all of them concurrently through the
:class:`~repro.serve.AsyncQueryFrontend` (``"coalesced"``);
:func:`replay_drift_trace` rebuilds the index every frame
(``"rebuild"``), then maintains it incrementally (``"incremental"``).
``num_workers`` adds the sharded multi-process tier (``"sharded"``) to
either stream.  Both return one :class:`TraceReport`.  The asyncio
front-end and the sharded tier are imported by the replicas that run
them, so importing this module loads neither asyncio nor multiprocessing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .service import QueryService

if TYPE_CHECKING:  # pragma: no cover
    from .sharded import ShardedQueryService

__all__ = [
    "DriftFrame",
    "TraceReport",
    "drift_trace",
    "replay_drift_trace",
    "replay_trace",
    "synthetic_trace",
]

Request = Tuple[np.ndarray, np.ndarray, float, int]
# What a replica served: (result, submit-to-serve wait) per request.
Served = List[Tuple[Tuple[np.ndarray, np.ndarray], float]]

# The heterogeneous settings pool requests draw from: network-layer-like
# radii and neighbor caps, so merged sweeps always mix radius and K.
_RADII = (0.1, 0.15, 0.25)
_MAX_NEIGHBORS = (8, 16, 32)
# Dynamic-scene settings pool: LiDAR-scale radii (the drift scenes span
# tens of meters, unlike the unit-Gaussian clouds above).
_DYN_RADII = (1.0, 1.5, 2.5)


def synthetic_trace(
    num_requests: int = 96,
    num_clouds: int = 3,
    cloud_size: int = 2048,
    queries_per_request: int = 64,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> List[Request]:
    """Draw a deterministic request trace over ``num_clouds`` point clouds.

    ``rng`` lets callers supply their own generator (e.g. one stream of a
    larger deterministic replay schedule); when omitted, a fresh
    ``default_rng(seed)`` keeps the trace a pure function of ``seed`` —
    the property sharded replay's bit-identity check depends on.
    """
    if num_requests <= 0 or num_clouds <= 0 or cloud_size <= 0:
        raise ValueError("trace dimensions must be positive")
    if queries_per_request <= 0:
        raise ValueError("queries_per_request must be positive")
    rng = np.random.default_rng(seed) if rng is None else rng
    clouds = [rng.normal(size=(cloud_size, 3)) for _ in range(num_clouds)]
    trace: List[Request] = []
    for _ in range(num_requests):
        cloud = clouds[int(rng.integers(num_clouds))]
        queries = cloud[rng.integers(0, cloud_size, size=queries_per_request)]
        trace.append(
            (
                cloud,
                queries,
                float(rng.choice(_RADII)),
                int(rng.choice(_MAX_NEIGHBORS)),
            )
        )
    return trace


@dataclass
class DriftFrame:
    """One frame of a mutating-cloud trace: the mutation plus the frame's
    request batches ``(queries, radius, max_neighbors)``."""

    inserts: np.ndarray
    removes: np.ndarray
    requests: List[Tuple[np.ndarray, float, int]]


def drift_trace(
    num_frames: int = 50,
    requests_per_frame: int = 2,
    queries_per_request: int = 32,
    num_points: int = 2048,
    churn: float = 0.02,
    seed: int = 0,
) -> Tuple[np.ndarray, List[DriftFrame]]:
    """Draw a deterministic mutating-cloud trace.

    Returns ``(initial_points, frames)``: the cloud to register, then per
    frame a mutation batch (slot-addressed removes + insert coordinates,
    from :class:`~repro.geometry.scenes.FrameDrift`) and the frame's
    query requests with heterogeneous ``(radius, K)`` settings.  A pure
    function of its arguments, so every service replica replays the
    identical stream — the precondition of the bit-identity pins.
    """
    from ..geometry.scenes import FrameDrift

    if num_frames <= 0 or requests_per_frame <= 0 or num_points <= 0:
        raise ValueError("trace dimensions must be positive")
    if queries_per_request <= 0:
        raise ValueError("queries_per_request must be positive")
    drift = FrameDrift(num_points=num_points, churn=churn, seed=seed)
    settings_rng = np.random.default_rng(seed + 1)
    frames: List[DriftFrame] = []
    for _ in range(num_frames):
        mutation = drift.step()
        requests = [
            (
                drift.sample_queries(queries_per_request),
                float(settings_rng.choice(_DYN_RADII)),
                int(settings_rng.choice(_MAX_NEIGHBORS)),
            )
            for _ in range(requests_per_frame)
        ]
        frames.append(
            DriftFrame(
                inserts=mutation.inserts, removes=mutation.removes, requests=requests
            )
        )
    return drift.initial_points, frames


@dataclass
class TraceReport:
    """What one replay measured, per replica name; the first is the baseline.

    ``stats`` holds the counters each replica reports: its service's
    (:class:`~repro.serve.ServiceStats`, or :class:`~repro.serve
    .ShardedStats` on the sharded tier), or for an in-process dynamic
    cloud its index's :class:`~repro.kdtree.DynamicStats` (the build work
    incremental maintenance saves).
    """

    requests: int
    times: Dict[str, float]  # wall clock of serving, set-up excluded
    stats: Dict[str, object]
    waits: Dict[str, List[float]]  # per-request submit-to-serve latency
    results_identical: bool  # every replica's stream == the baseline's

    def speedup(self, name: str) -> float:
        """The baseline's serving time over replica ``name``'s."""
        baseline, elapsed = next(iter(self.times.values())), self.times[name]
        return baseline / elapsed if elapsed else float("inf")


def _replay(replicas: Dict[str, Callable[[], Iterator]], clock) -> TraceReport:
    """Time each replica's serving, set-up excluded; pin every stream.

    A replica is a generator: it sets up and yields its stats, then, when
    resumed, serves the stream and yields what it :data:`Served`.
    """
    times, stats, waits, streams = {}, {}, {}, []
    for name, replica in replicas.items():
        steps = replica()
        stats[name] = next(steps)
        t0 = clock()
        served = next(steps)
        times[name] = clock() - t0
        steps.close()  # its teardown: the sharded tier stops its workers
        # Two arrays per request: its (indices, counts).
        streams.append([array for result, _ in served for array in result])
        waits[name] = [wait for _, wait in served]
    first = streams[0]
    identical = all(
        len(stream) == len(first) and all(map(np.array_equal, stream, first))
        for stream in streams[1:]
    )
    return TraceReport(len(first) // 2, times, stats, waits, identical)


def _settled(tickets) -> Served:
    return [(ticket.result(), ticket.wait) for ticket in tickets]


def _sharded(num_workers: int, clock, replica) -> Iterator:
    """``replica`` run against a sharded tier that stops when it ends."""
    from .sharded import ShardedQueryService

    with ShardedQueryService(num_workers=num_workers, clock=clock) as tier:
        yield from replica(tier)


def replay_trace(
    trace: List[Request],
    window: float = 0.001,
    max_batch: int = 64,
    max_pending: int = 256,
    num_workers: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> TraceReport:
    """Replay ``trace`` sequentially, coalesced and (with ``num_workers``)
    sharded; compare and report.

    The in-process services build each cloud's tree in their set-up; the
    sharded tier :meth:`~repro.serve.ShardedQueryService.register`-s every
    cloud there (as a repeat caller would; its workers build the trees
    from their FIFO inboxes) and serves the handle fast path.  ``clock``
    is the wall-clock source behind every timing, injectable so tests can
    pin the speedup arithmetic without racing a real timer.
    """
    clouds = {id(points): points for points, *_ in trace}.values()

    def warm() -> QueryService:
        service = QueryService(clock=clock)
        for points in clouds:
            service.session.tree_for(points)
        return service

    def sequential() -> Iterator:
        service = warm()
        yield service.stats
        tickets = []
        for request in trace:
            tickets.append(service.submit(*request))
            service.flush()
        yield _settled(tickets)

    def coalesced() -> Iterator:
        import asyncio

        from .frontend import AsyncQueryFrontend

        service = warm()
        yield service.stats

        async def one(frontend, request):
            t0 = clock()
            return await frontend.submit(*request), clock() - t0

        async def run() -> Served:
            async with AsyncQueryFrontend(
                service, window=window, max_batch=max_batch, max_pending=max_pending
            ) as frontend:
                return await asyncio.gather(*[one(frontend, r) for r in trace])

        yield asyncio.run(run())

    def by_handle(tier: ShardedQueryService) -> Iterator:
        handles = [tier.register(points) for points, *_ in trace]
        yield tier.stats
        tickets = [
            tier.submit_handle(handle, *request[1:])
            for handle, request in zip(handles, trace)
        ]
        tier.flush()
        yield _settled(tickets)

    replicas = {"sequential": sequential, "coalesced": coalesced}
    if num_workers is not None:
        replicas["sharded"] = lambda: _sharded(num_workers, clock, by_handle)
    return _replay(replicas, clock)


def replay_drift_trace(
    num_frames: int = 50,
    requests_per_frame: int = 2,
    queries_per_request: int = 32,
    num_points: int = 2048,
    churn: float = 0.02,
    seed: int = 0,
    num_workers: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> TraceReport:
    """Replay one mutating-cloud trace per replica and pin the results.

    The same frame stream — per frame an ``update``, the frame's
    ``submit_dynamic`` calls and one ``flush`` — is served with
    rebuild-from-scratch-per-frame maintenance, with incremental
    maintenance, and, with ``num_workers``, through a
    :class:`~repro.serve.ShardedQueryService` routing ``update_handle``
    messages to the owning shard.  Every frame's results must be
    bit-identical across replicas (the canonical dynamic contract makes
    this exact neighbor-set equality).  Registration, which indexes the
    initial cloud, is set-up.
    """
    initial, frames = drift_trace(
        num_frames=num_frames,
        requests_per_frame=requests_per_frame,
        queries_per_request=queries_per_request,
        num_points=num_points,
        churn=churn,
        seed=seed,
    )

    def by_frame(service, maintenance: str = "incremental") -> Iterator:
        handle = service.register_dynamic(initial, maintenance=maintenance)
        if isinstance(service, QueryService):
            yield service.session.dynamic(handle).stats
        else:
            yield service.stats
        tickets = []
        for frame in frames:
            service.update(handle, inserts=frame.inserts, removes=frame.removes)
            tickets += [service.submit_dynamic(handle, *r) for r in frame.requests]
            service.flush()
        yield _settled(tickets)

    replicas = {
        "rebuild": lambda: by_frame(QueryService(clock=clock), "rebuild"),
        "incremental": lambda: by_frame(QueryService(clock=clock)),
    }
    if num_workers is not None:
        replicas["sharded"] = lambda: _sharded(num_workers, clock, by_frame)
    return _replay(replicas, clock)
