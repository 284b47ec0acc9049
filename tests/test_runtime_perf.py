"""Micro-benchmarks: the vectorized engines must beat their Python loops.

Acceptance floors from the runtime issues, all on a 4096-point cloud:
≥3× for the batched exact query vs the per-query searcher, ≥5× for the
vectorized lockstep engine vs the per-step ``run_subtree_lockstep``
reference, ≥5× for the vectorized top phase vs the per-group descent
loop, and ≥5× for the traced batched engine vs the per-query
``record_trace=True`` loop the motivation studies used to run (measured
margins are typically well above all four, so the assertions have real
headroom against noisy machines).  Marked ``slow``: the Python reference
loops themselves are the expensive part.
"""

import time

import numpy as np
import pytest

from repro.core import TreeBufferBanking
from repro.core.split_tree import SplitTree
from repro.kdtree import ball_query, build_kdtree
from repro.kdtree.exact import radius_search
from repro.kdtree.stats import TraversalStats
from repro.runtime import (
    BatchedBallQuery,
    SearchSession,
    TracedBallQuery,
    VectorizedLockstep,
    reference_top_phase,
    vectorized_top_phase,
)
from repro.serve import QueryService

pytestmark = pytest.mark.slow

N_POINTS = 4096
N_QUERIES = 4096
RADIUS = 0.1
MAX_NEIGHBORS = 16
MIN_SPEEDUP = 3.0

# Lockstep bench: proportional split for a height-13 tree (the paper's
# h_t = 4 on height-8 trees carves half the levels; 4096 points build
# height 13, hence h_t = 6), gentle elision three levels above the
# leaves, and the Fig. 22 high-parallelism hardware point (8 PEs x 8
# banks) where the per-step Python reference is most expensive.
LOCKSTEP_RADIUS = 0.25
LOCKSTEP_TOP_HEIGHT = 6
LOCKSTEP_ELISION = 10
LOCKSTEP_PES = 8
LOCKSTEP_BANKS = 8
LOCKSTEP_MIN_SPEEDUP = 5.0
TOPPHASE_MIN_SPEEDUP = 5.0
TRACED_MIN_SPEEDUP = 5.0
# Small per-request batches are the serving regime coalescing exists for:
# per-request sweep overhead dominates, so merging pays the most there.
SERVE_REQUESTS = 128
SERVE_QUERIES_PER_REQUEST = 8
SERVE_MIN_SPEEDUP = 3.0


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_batched_beats_per_query_loop_on_4k_cloud(rng):
    pts = rng.normal(size=(N_POINTS, 3))
    queries = pts[rng.permutation(N_POINTS)[:N_QUERIES]]
    tree = build_kdtree(pts)
    engine = BatchedBallQuery(tree)
    engine.query(queries[:8], RADIUS, MAX_NEIGHBORS)  # warm-up

    loop_time, (loop_idx, loop_cnt) = _best_of(
        1, lambda: ball_query(tree, queries, RADIUS, MAX_NEIGHBORS)
    )
    batched_time, (batched_idx, batched_cnt) = _best_of(
        3, lambda: engine.query(queries, RADIUS, MAX_NEIGHBORS)
    )

    # Same results, much less time.
    np.testing.assert_array_equal(batched_idx, loop_idx)
    np.testing.assert_array_equal(batched_cnt, loop_cnt)
    speedup = loop_time / batched_time
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine only {speedup:.2f}x faster "
        f"({loop_time:.3f}s loop vs {batched_time:.3f}s batched)"
    )


def test_vectorized_lockstep_beats_reference_loop_on_4k_cloud(
    rng, lockstep_groups_builder, reference_lockstep_driver
):
    pts = rng.normal(size=(N_POINTS, 3))
    queries = pts[rng.permutation(N_POINTS)]
    tree = build_kdtree(pts)
    groups, split = lockstep_groups_builder(tree, queries, LOCKSTEP_TOP_HEIGHT)
    banking = TreeBufferBanking(LOCKSTEP_BANKS)
    mach_queries = np.concatenate([q for _, q in groups])
    roots = np.concatenate([np.full(len(q), root) for root, q in groups])
    max_hits = np.full(len(mach_queries), MAX_NEIGHBORS, dtype=np.int64)

    def reference():
        cycles, stalls, hits, _, sram = reference_lockstep_driver(
            tree, queries, split, groups, LOCKSTEP_RADIUS, MAX_NEIGHBORS,
            LOCKSTEP_ELISION, LOCKSTEP_PES, banking,
        )
        return cycles, stalls, hits, sram

    def vectorized():
        engine = VectorizedLockstep(
            tree, banking=banking, num_pes=LOCKSTEP_PES
        )
        outcome = engine.run(
            queries[mach_queries], roots, max_hits, LOCKSTEP_RADIUS,
            elide_depth=LOCKSTEP_ELISION,
        )
        hits = {int(q): [] for q in mach_queries}
        order = np.argsort(outcome.hit_machine, kind="stable")
        for mach, pid in zip(outcome.hit_machine[order], outcome.hit_point[order]):
            hits[int(mach_queries[mach])].append(int(pid))
        return int(outcome.cycles[0]), int(outcome.stalls[0]), hits, outcome.sram[0]

    vectorized()  # warm-up
    ref_time, ref = _best_of(1, reference)
    vec_time, vec = _best_of(3, vectorized)

    # Identical simulation, much less time.
    assert vec[0] == ref[0]  # cycles
    assert vec[1] == ref[1]  # stalls
    assert vec[2] == ref[2]  # every machine's hits
    for field in ("accesses", "conflicted", "elided", "broadcasts",
                  "reads_served", "cycles"):
        assert getattr(vec[3], field) == getattr(ref[3], field), field
    speedup = ref_time / vec_time
    assert speedup >= LOCKSTEP_MIN_SPEEDUP, (
        f"vectorized lockstep only {speedup:.2f}x faster "
        f"({ref_time:.3f}s reference vs {vec_time:.3f}s vectorized)"
    )


def test_vectorized_top_phase_beats_group_loop_on_4k_cloud(rng):
    pts = rng.normal(size=(N_POINTS, 3))
    queries = pts[rng.permutation(N_POINTS)]
    split = SplitTree(build_kdtree(pts), LOCKSTEP_TOP_HEIGHT)
    banking = TreeBufferBanking(LOCKSTEP_BANKS)

    vectorized_top_phase(split, queries, LOCKSTEP_PES, banking, 4)  # warm-up
    ref_time, ref = _best_of(
        1, lambda: reference_top_phase(split, queries, LOCKSTEP_PES, banking, 4)
    )
    vec_time, vec = _best_of(
        3, lambda: vectorized_top_phase(split, queries, LOCKSTEP_PES, banking, 4)
    )

    assert vec == ref  # (cycles, stalls) identical
    speedup = ref_time / vec_time
    assert speedup >= TOPPHASE_MIN_SPEEDUP, (
        f"vectorized top phase only {speedup:.2f}x faster "
        f"({ref_time:.3f}s loop vs {vec_time:.3f}s vectorized)"
    )


def test_traced_engine_beats_per_query_trace_loop_on_4k_cloud(rng):
    # The full-size layer_search_traces shape: every query of a 4096-point
    # cloud traced with stats, the workload Figs. 2-3 collect per layer.
    pts = rng.normal(size=(N_POINTS, 3))
    queries = pts[rng.permutation(N_POINTS)]
    tree = build_kdtree(pts)
    radius, k = 0.25, MAX_NEIGHBORS
    engine = TracedBallQuery(tree)
    engine.query(queries[:8], radius, k)  # warm-up

    def reference():
        out = []
        for q in queries:
            stats = TraversalStats()
            radius_search(
                tree, q, radius, max_neighbors=k, stats=stats, record_trace=True
            )
            out.append(stats.visit_trace)
        return out

    ref_time, ref_traces = _best_of(1, reference)
    traced_time, result = _best_of(3, lambda: engine.query(queries, radius, k))

    # Identical traces, much less time.
    assert [t.tolist() for t in result.traces] == ref_traces
    speedup = ref_time / traced_time
    assert speedup >= TRACED_MIN_SPEEDUP, (
        f"traced engine only {speedup:.2f}x faster "
        f"({ref_time:.3f}s loop vs {traced_time:.3f}s traced)"
    )


def test_coalesced_serving_beats_sequential_on_4k_cloud(rng):
    # The full-size serving trace: a fleet of same-cloud callers with
    # heterogeneous (radius, K) settings, coalesced into one merged
    # frontier sweep versus served one request at a time.
    pts = rng.normal(size=(N_POINTS, 3))
    radii = (0.1, 0.15, 0.25)
    neighbor_caps = (8, 16, 32)
    trace = [
        (
            pts,
            pts[rng.integers(0, N_POINTS, size=SERVE_QUERIES_PER_REQUEST)],
            radii[i % len(radii)],
            neighbor_caps[i % len(neighbor_caps)],
        )
        for i in range(SERVE_REQUESTS)
    ]
    session = SearchSession()
    session.tree_for(pts)  # both sides serve against a warm tree

    def coalesced():
        service = QueryService(session=session)
        tickets = [service.submit(*request) for request in trace]
        service.flush()
        return [ticket.result() for ticket in tickets], service.stats

    def sequential():
        service = QueryService(session=session)
        return [service.query(*request) for request in trace]

    coalesced()  # warm-up
    sequential_time, sequential_results = _best_of(1, sequential)
    coalesced_time, (coalesced_results, stats) = _best_of(3, coalesced)

    for (ci, cc), (si, sc) in zip(coalesced_results, sequential_results):
        np.testing.assert_array_equal(ci, si)
        np.testing.assert_array_equal(cc, sc)
    assert stats.sweeps == 1  # the whole trace merged into one sweep
    speedup = sequential_time / coalesced_time
    assert speedup >= SERVE_MIN_SPEEDUP, (
        f"coalesced serving only {speedup:.2f}x faster "
        f"({sequential_time:.3f}s sequential vs {coalesced_time:.3f}s coalesced)"
    )
