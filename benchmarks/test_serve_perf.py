"""Benchmark-lane guard for the request-coalescing serving layer.

The serving front-end exists to turn N concurrent same-cloud requests
into one merged frontier sweep; a regression that quietly serves them one
sweep per request would keep every result bit-identical while destroying
the throughput the subsystem was built for.  This bench runs in the CI
smoke lane (it is *not* marked slow): a down-scaled same-cloud request
trace with heterogeneous ``(radius, K)`` settings, an identity check of
the coalesced results against per-request serving, and a conservative
speed floor — well under the margin the full-size
``tests/test_runtime_perf.py`` bench demonstrates, so shared-runner noise
cannot flake it, but far above the ~1x a per-request fallback measures.
The measured numbers land in ``BENCH_serve.json`` (see :mod:`artifacts`),
uploaded by CI so the serving-throughput trajectory accumulates across
PRs.  The record also counts the geometry digests and the cloud
validations of the best coalesced run, submits and flush together: the
trace shares one cloud array, so serving it hashes that array once and
checks it once.
"""

import time

import numpy as np

import repro.serve.service as service_module
from artifacts import latency_percentiles, write_bench_artifact
from repro.runtime import SearchSession
from repro.serve import QueryService

N_POINTS = 1024
N_REQUESTS = 64
QUERIES_PER_REQUEST = 8
RADII = (0.1, 0.15, 0.25)
MAX_NEIGHBORS = (8, 16, 32)
MIN_SPEEDUP = 3.0


def make_trace(rng):
    points = rng.normal(size=(N_POINTS, 3))
    trace = []
    for i in range(N_REQUESTS):
        queries = points[rng.integers(0, N_POINTS, size=QUERIES_PER_REQUEST)]
        trace.append(
            (points, queries, RADII[i % len(RADII)], MAX_NEIGHBORS[i % len(MAX_NEIGHBORS)])
        )
    return points, trace


def test_coalesced_service_does_not_regress(digest_calls, call_rows):
    checks = call_rows(service_module, "validate_points", "points")
    rng = np.random.default_rng(20260730)
    points, trace = make_trace(rng)
    # Both sides share one warm session: the comparison is coalescing
    # versus per-request serving, not tree construction.
    session = SearchSession()
    session.tree_for(points)

    def coalesced():
        digest_calls.clear()
        checks.clear()
        service = QueryService(session=session)
        tickets = [service.submit(*request) for request in trace]
        service.flush()
        waits = [ticket.wait for ticket in tickets]
        results = [ticket.result() for ticket in tickets]
        return results, service.stats, waits, len(digest_calls), len(checks)

    def sequential():
        service = QueryService(session=session)
        return [service.query(*request) for request in trace]

    coalesced()  # warm-up
    t0 = time.perf_counter()
    sequential_results = sequential()
    sequential_time = time.perf_counter() - t0
    coalesced_time = float("inf")
    coalesced_results = stats = waits = digests_per_flush = validations_per_flush = None
    for _ in range(3):
        t0 = time.perf_counter()
        attempt = coalesced()
        elapsed = time.perf_counter() - t0
        if elapsed < coalesced_time:
            coalesced_time = elapsed
            (coalesced_results, stats, waits, digests_per_flush,
             validations_per_flush) = attempt

    # Identity: the coalesced stream equals per-request serving.
    for (ci, cc), (si, sc) in zip(coalesced_results, sequential_results):
        np.testing.assert_array_equal(ci, si)
        np.testing.assert_array_equal(cc, sc)
    # The whole same-cloud trace must have merged into one sweep, after
    # hashing its one shared cloud array once and validating it once.
    assert stats.sweeps == 1
    assert stats.coalesce_factor == N_REQUESTS
    assert digests_per_flush == 1
    assert validations_per_flush == 1

    speedup = sequential_time / coalesced_time
    write_bench_artifact(
        "serve",
        {
            "cloud_size": N_POINTS,
            "requests": N_REQUESTS,
            "queries_per_request": QUERIES_PER_REQUEST,
            "coalesce_factor": stats.coalesce_factor,
            "digests_per_flush": digests_per_flush,
            "validations_per_flush": validations_per_flush,
            "s_sequential": round(sequential_time, 4),
            "s_coalesced": round(coalesced_time, 4),
            "speedup": round(speedup, 2),
            "requests_per_s": round(N_REQUESTS / coalesced_time, 1),
            # Per-request submit-to-serve latency over the best run.
            **latency_percentiles(waits),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"coalesced serving only {speedup:.2f}x faster "
        f"({sequential_time:.3f}s sequential vs {coalesced_time:.3f}s coalesced)"
    )
