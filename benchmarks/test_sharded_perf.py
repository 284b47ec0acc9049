"""Benchmark-lane guard for the sharded multi-process serving tier.

The sharded tier exists to serve *distinct* clouds in parallel: the
single-process service flushes its digest groups serially behind one GIL,
while the dispatcher spreads them across worker processes that sweep
concurrently.  A regression that quietly serialized the shards (a shared
lock, a dispatcher that waits for each reply before sending the next
batch, workers degenerating to one) would keep every result bit-identical
while erasing the tier's entire reason to exist — so this bench runs in
the CI smoke lane and pins both properties: results identical to the
single-process service, and an all-distinct-cloud trace served at least
``MIN_SPEEDUP`` times faster.

The floor is conservative: with four workers over a balanced eight-cloud
trace the ideal is ~4x and CI runners measure well above 2.5x, so 2.0x
clears runner noise while staying far above the ~1x a serialized tier
measures.  Multi-core only — on fewer than four cores the workers time-
slice one CPU and the comparison measures the scheduler, not the tier.
"""

import os
import time

import numpy as np
import pytest

from repro.runtime import SearchSession
from repro.runtime.session import geometry_digest
from repro.serve import QueryService, ShardedQueryService

N_WORKERS = 4
N_CLOUDS = 8  # all distinct: the anti-coalescing, pro-sharding workload
CLOUD_SIZE = 4096
REQUESTS_PER_CLOUD = 6
QUERIES_PER_REQUEST = 128
RADIUS = 0.25
MAX_NEIGHBORS = 16
MIN_SPEEDUP = 2.0
RUNS = 3

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < N_WORKERS,
    reason=f"sharded scaling bench needs >= {N_WORKERS} cores",
)


def make_balanced_clouds(rng):
    """Draw distinct clouds until every shard slot owns exactly two.

    Digest routing is static hash-mod, so a random draw can skew the
    shards; balancing the draw makes the measured speedup a property of
    the tier, not of one seed's hash luck.
    """
    per_slot = N_CLOUDS // N_WORKERS
    owned = {slot: 0 for slot in range(N_WORKERS)}
    clouds = []
    while len(clouds) < N_CLOUDS:
        points = rng.normal(size=(CLOUD_SIZE, 3))
        digest = geometry_digest(np.asarray(points, dtype=np.float64))
        slot = int(digest[:16], 16) % N_WORKERS
        if owned[slot] < per_slot:
            owned[slot] += 1
            clouds.append(points)
    return clouds


def make_trace(rng, clouds):
    trace = []
    for cloud in clouds:
        for _ in range(REQUESTS_PER_CLOUD):
            queries = cloud[rng.integers(0, CLOUD_SIZE, size=QUERIES_PER_REQUEST)]
            trace.append((cloud, queries, RADIUS, MAX_NEIGHBORS))
    return trace


def test_sharded_tier_scales_past_single_process():
    rng = np.random.default_rng(20260730)
    clouds = make_balanced_clouds(rng)
    trace = make_trace(rng, clouds)

    # Single-process side: one warm session (trees prebuilt) so the
    # comparison is serving, not tree construction.
    session = SearchSession()
    for cloud in clouds:
        session.tree_for(cloud)

    def single_process():
        service = QueryService(session=session)
        tickets = [service.submit(*request) for request in trace]
        service.flush()
        return [ticket.result() for ticket in tickets]

    single_results = None
    single_time = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        single_results = single_process()
        single_time = min(single_time, time.perf_counter() - t0)

    with ShardedQueryService(num_workers=N_WORKERS) as service:
        # Registration is the warm-up: clouds ship once and the workers
        # build their trees eagerly, so the timed runs are handle-only.
        handles = {id(cloud): service.register(cloud) for cloud in clouds}
        sharded_results = None
        sharded_time = float("inf")
        for _ in range(RUNS):
            t0 = time.perf_counter()
            tickets = [
                service.submit_handle(handles[id(cloud)], queries, radius, k)
                for cloud, queries, radius, k in trace
            ]
            service.flush()
            sharded_results = [ticket.result() for ticket in tickets]
            sharded_time = min(sharded_time, time.perf_counter() - t0)
        stats = service.stats
        # No recovery events may pollute the measurement, every request
        # must be served, and each run must sweep once per shard, over
        # all the clouds it owns.
        assert stats.respawns == 0 and stats.requeued_requests == 0
        assert stats.requests == RUNS * len(trace)
        assert stats.failed_requests == 0
        shards = {service._slot_for(handle) for handle in handles.values()}
        assert stats.sweeps == RUNS * len(shards)

    # Identity: the sharded tier is a transparent drop-in.
    for (si, sc), (gi, gc) in zip(single_results, sharded_results):
        np.testing.assert_array_equal(gi, si)
        np.testing.assert_array_equal(gc, sc)

    speedup = single_time / sharded_time
    assert speedup >= MIN_SPEEDUP, (
        f"sharded tier only {speedup:.2f}x faster "
        f"({single_time:.3f}s single-process vs {sharded_time:.3f}s sharded)"
    )
