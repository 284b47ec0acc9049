"""Benchmark-lane guard for the level-synchronous tree builders.

Tree construction is the serving cold path: every *distinct* cloud pays
one K-d tree build (and one split-tree layout per ``h_t``) on first
contact.  These benches pin the ``runtime.treebuild`` fast path in the CI
smoke lane (not slow-marked):

- bit-identity of the vectorized builder against the frozen per-node
  reference on the bench cloud, then a conservative >=5x cold-build floor
  on 4096 points (the measured gap is ~9x, so shared-runner throttling
  cannot flake it, but a silent fallback to the per-node Python loop
  fails here);
- an end-to-end >=1.5x floor on an all-distinct-cloud serving trace —
  the workload where cold builds dominate — with results bit-identical
  between the production session and the same session with the frozen
  per-node builder substituted at its import seam, and the flush's sweep
  count recorded (its clouds share one sweep, so 1);
- a forest record (no floor): an epoch-sized batch of small clouds built
  one call per cloud and as one ``vectorized_build_forest`` pass, and one
  all-distinct serving flush's forest (8 x 4096 points) built as one level
  loop and split across the CPUs.  A floor on the split would depend on
  the machine's CPU count, so the record carries the part and CPU counts
  instead.

All three write their measurements into ``BENCH_treebuild.json``
(see :mod:`artifacts`), which CI uploads so the cold-path perf
trajectory accumulates across PRs.
"""

import time

import numpy as np

from artifacts import write_bench_artifact
from repro.core.split_tree import SplitTree
from repro.kdtree.build import build_kdtree
from repro.runtime import treebuild
from repro.runtime.treebuild import (
    VectorizedSplitTree,
    vectorized_build_forest,
    vectorized_build_kdtree,
)
from repro.serve import QueryService

N_POINTS = 4096
TOP_HEIGHT = 4
MIN_BUILD_SPEEDUP = 5.0
MIN_SPLIT_SPEEDUP = 2.0

N_CLOUDS = 8
QUERIES_PER_CLOUD = 16
RADIUS = 0.3
MAX_NEIGHBORS = 16
MIN_SERVE_SPEEDUP = 1.5

FOREST_CLOUDS = 64
FOREST_CLOUD_SIZE = 112

NODE_FIELDS = ("point_id", "split_dim", "left", "right", "depth", "subtree_size")


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_vectorized_build_floor():
    rng = np.random.default_rng(20260808)
    points = rng.normal(size=(N_POINTS, 3))

    # Identity first: a fast builder that drifts by one tie is worthless.
    ref_tree = build_kdtree(points)
    fast_tree = vectorized_build_kdtree(points)
    for field in NODE_FIELDS:
        np.testing.assert_array_equal(
            getattr(ref_tree, field), getattr(fast_tree, field), err_msg=field
        )

    vectorized_build_kdtree(points)  # warm-up
    ref_build = best_of(lambda: build_kdtree(points), 3)
    fast_build = best_of(lambda: vectorized_build_kdtree(points), 5)
    build_speedup = ref_build / fast_build

    # Split-tree layout on a fresh tree each run (euler_tour caches tin/
    # tout onto the tree, and the reference benefits from neither).
    ref_split = best_of(lambda: SplitTree(ref_tree, TOP_HEIGHT), 3)

    def fresh_vectorized_split():
        tree = vectorized_build_kdtree(points)
        t0 = time.perf_counter()
        VectorizedSplitTree(tree, TOP_HEIGHT)
        return time.perf_counter() - t0

    fast_split = min(fresh_vectorized_split() for _ in range(5))
    split_speedup = ref_split / fast_split

    write_bench_artifact(
        "treebuild",
        {
            "cloud_size": N_POINTS,
            "top_height": TOP_HEIGHT,
            "build_ms_reference": round(ref_build * 1e3, 3),
            "build_ms_vectorized": round(fast_build * 1e3, 3),
            "build_speedup": round(build_speedup, 2),
            "build_clouds_per_s": round(1.0 / fast_build, 1),
            "split_ms_reference": round(ref_split * 1e3, 3),
            "split_ms_vectorized": round(fast_split * 1e3, 3),
            "split_speedup": round(split_speedup, 2),
        },
    )

    assert build_speedup >= MIN_BUILD_SPEEDUP, (
        f"vectorized build only {build_speedup:.2f}x faster "
        f"({ref_build * 1e3:.1f} ms reference vs {fast_build * 1e3:.1f} ms)"
    )
    assert split_speedup >= MIN_SPLIT_SPEEDUP, (
        f"vectorized split-tree layout only {split_speedup:.2f}x faster "
        f"({ref_split * 1e3:.1f} ms reference vs {fast_split * 1e3:.1f} ms)"
    )


def make_distinct_cloud_trace(rng):
    trace = []
    for _ in range(N_CLOUDS):
        points = rng.normal(size=(N_POINTS, 3))
        queries = points[rng.integers(0, N_POINTS, size=QUERIES_PER_CLOUD)]
        trace.append((points, queries, RADIUS, MAX_NEIGHBORS))
    return trace


def serve_trace_cold(trace):
    """One flush over the whole trace through a cold session: the results
    and the flush's sweep count."""
    service = QueryService()
    tickets = [service.submit(*request) for request in trace]
    sweeps = service.flush()
    return [ticket.result() for ticket in tickets], sweeps


def test_all_distinct_cloud_serving_floor(monkeypatch):
    rng = np.random.default_rng(20260809)
    trace = make_distinct_cloud_trace(rng)

    serve_trace_cold(trace)  # warm-up (imports, allocator)
    # The reference side: SearchSession.tree_for builds through
    # treebuild.vectorized_build_forest, so swapping in a per-cloud map of
    # the frozen per-node builder there times the same service on the old
    # cold path.
    reference_builds = []

    def reference_forest(clouds):
        reference_builds.append(len(clouds))
        return [build_kdtree(points) for points in clouds]

    with monkeypatch.context() as patch:
        patch.setattr(treebuild, "vectorized_build_forest", reference_forest)
        t0 = time.perf_counter()
        ref_results, _ = serve_trace_cold(trace)
        ref_time = time.perf_counter() - t0
    assert sum(reference_builds) == N_CLOUDS  # the reference really built
    fast_time = float("inf")
    fast_results = None
    for _ in range(3):
        t0 = time.perf_counter()
        fast_results, sweeps = serve_trace_cold(trace)
        fast_time = min(fast_time, time.perf_counter() - t0)

    for (fi, fc), (ri, rc) in zip(fast_results, ref_results):
        np.testing.assert_array_equal(fi, ri)
        np.testing.assert_array_equal(fc, rc)

    speedup = ref_time / fast_time
    total_requests = len(trace)
    write_bench_artifact(
        "treebuild",
        {
            "serve_clouds": N_CLOUDS,
            "serve_cloud_size": N_POINTS,
            "serve_queries_per_cloud": QUERIES_PER_CLOUD,
            "serve_s_reference": round(ref_time, 4),
            "serve_s_vectorized": round(fast_time, 4),
            "serve_speedup": round(speedup, 2),
            "serve_requests_per_s": round(total_requests / fast_time, 1),
            "serve_sweeps_per_flush": sweeps,
        },
    )

    assert speedup >= MIN_SERVE_SPEEDUP, (
        f"all-distinct-cloud serving only {speedup:.2f}x faster with the "
        f"vectorized cold path ({ref_time:.3f}s reference vs {fast_time:.3f}s)"
    )


def assert_same_trees(want, got):
    for ref, tree in zip(want, got, strict=True):
        for field in NODE_FIELDS:
            np.testing.assert_array_equal(
                getattr(ref, field), getattr(tree, field), err_msg=field
            )


def test_forest_build_record(call_rows):
    """An epoch-sized batch of small clouds, per cloud vs one forest pass;
    one serving flush's forest, one level loop vs split.

    Identity first, then the best of 5 each way; recorded, not gated.
    """
    rng = np.random.default_rng(20261017)
    clouds = [rng.normal(size=(FOREST_CLOUD_SIZE, 3)) for _ in range(FOREST_CLOUDS)]
    assert_same_trees(
        [build_kdtree(points) for points in clouds], vectorized_build_forest(clouds)
    )
    per_cloud = best_of(lambda: [vectorized_build_kdtree(c) for c in clouds], 5)
    one_pass = best_of(lambda: vectorized_build_forest(clouds), 5)

    flush = [rng.normal(size=(N_POINTS, 3)) for _ in range(N_CLOUDS)]
    one_loop = treebuild._level_loop(flush)
    parts = call_rows(treebuild, "_level_loop", "arrays")
    assert_same_trees(one_loop, vectorized_build_forest(flush))
    num_parts = len(parts)
    loop_time = best_of(lambda: treebuild._level_loop(flush), 5)
    split_time = best_of(lambda: vectorized_build_forest(flush), 5)
    write_bench_artifact(
        "treebuild",
        {
            "forest_clouds": FOREST_CLOUDS,
            "forest_cloud_size": FOREST_CLOUD_SIZE,
            "forest_ms_per_cloud_calls": round(per_cloud * 1e3, 3),
            "forest_ms_one_pass": round(one_pass * 1e3, 3),
            "forest_speedup": round(per_cloud / one_pass, 2),
            "split_forest_clouds": N_CLOUDS,
            "split_forest_cloud_size": N_POINTS,
            "split_forest_parts": num_parts,
            "split_forest_cpus": treebuild._available_cpus(),
            "split_forest_ms_one_loop": round(loop_time * 1e3, 3),
            "split_forest_ms_split": round(split_time * 1e3, 3),
            "split_forest_speedup": round(loop_time / split_time, 2),
        },
    )
