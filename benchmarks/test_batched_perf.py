"""Benchmark-lane record of the batched ball query on a dense batch.

A ball query returns each query's first ``K`` in-radius neighbors, and
the batched engines stop each query's sweep at its K-th hit, as the
per-query searcher does.  A dense batch is where that matters: 4096
uniform points in the unit cube, 1024 uniform queries, ``r = 0.5``,
``K = 32``, so every ball holds hundreds of points and a sweep that
buffered every hit would do O(hits) work where the reference does O(K).

The bench first checks both batched engines against the frozen
``ball_query`` on that input, then times the result-only engine and the
per-query searcher (best of 3 each) and writes both to the ``dense``
section of ``BENCH_batched.json``.  It asserts no wall-clock floor: the
record is the number to watch.
"""

import time

import numpy as np

from artifacts import write_bench_artifact
from repro.kdtree import ball_query, build_kdtree
from repro.runtime import BatchedBallQuery, TracedBallQuery

N_POINTS = 4096
N_QUERIES = 1024
RADIUS = 0.5
MAX_NEIGHBORS = 32
REPEATS = 3


def best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def test_dense_batch_identity_and_record():
    rng = np.random.default_rng(20260730)
    points = rng.uniform(size=(N_POINTS, 3))
    queries = rng.uniform(size=(N_QUERIES, 3))
    tree = build_kdtree(points)
    engine = BatchedBallQuery(tree)

    want_idx, want_cnt = ball_query(tree, queries, RADIUS, MAX_NEIGHBORS)
    assert (want_cnt == MAX_NEIGHBORS).all()  # dense: every ball holds K
    got_idx, got_cnt = engine.query(queries, RADIUS, MAX_NEIGHBORS)
    np.testing.assert_array_equal(got_idx, want_idx)
    np.testing.assert_array_equal(got_cnt, want_cnt)
    traced = TracedBallQuery(tree).query(queries, RADIUS, MAX_NEIGHBORS)
    np.testing.assert_array_equal(traced.indices, want_idx)
    np.testing.assert_array_equal(traced.counts, want_cnt)

    engine_s = best_of(REPEATS, lambda: engine.query(queries, RADIUS, MAX_NEIGHBORS))
    oracle_s = best_of(REPEATS, lambda: ball_query(tree, queries, RADIUS, MAX_NEIGHBORS))
    write_bench_artifact(
        "batched",
        {
            "dense": {
                "points": N_POINTS,
                "queries": N_QUERIES,
                "radius": RADIUS,
                "max_neighbors": MAX_NEIGHBORS,
                "repeats": REPEATS,
                "engine_ms": round(engine_s * 1000.0, 2),
                "per_query_ball_query_ms": round(oracle_s * 1000.0, 2),
                "speedup": round(oracle_s / engine_s, 2),
            }
        },
    )
