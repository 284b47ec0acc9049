"""Benchmark-lane guard for the forest lockstep engine.

The figure benchmarks and approximation-aware training lean on
:class:`repro.runtime.VectorizedLockstep` for every conflict-simulated
search, so a regression that silently sends the hot path back to per-step
Python speed — or back to one cycle loop per search — would slow the
whole suite without failing anything.  This bench runs in the CI smoke
lane (it is *not* marked slow) and checks identity before speed:

* one tree: a down-scaled lockstep workload against the per-step
  reference engine, with a conservative floor well under the ≥5x the
  full-size ``tests/test_runtime_perf.py`` bench demonstrates, but far
  above any Python-loop fallback (~0.3x-1x here);
* one training epoch: the approximate searches of a 32-cloud epoch
  (PointNet++ SA1 and SA2 per cloud, a different ``<h_t, h_e>`` per cloud)
  as one forest call against one call per search, job-by-job identical.

Both write their numbers to ``BENCH_lockstep.json``.
"""

import time

import numpy as np
import pytest

from artifacts import write_bench_artifact
from repro.core import ApproxSetting, TreeBufferBanking
from repro.geometry import ShapeClassificationDataset
from repro.kdtree import build_kdtree
from repro.runtime import SearchJob, VectorizedLockstep, approximate_search
from repro.runtime.treebuild import vectorized_build_kdtree

N_POINTS = 2048
N_QUERIES = 1024
RADIUS = 0.25
MAX_NEIGHBORS = 16
TOP_HEIGHT = 5  # proportional split for the height-12 tree
ELISION = 9
NUM_PES = 8
NUM_BANKS = 8
MIN_SPEEDUP = 1.8

# The train-epoch shape: PointNet++ (c) SA1 (64 centroids of 160 points,
# r = 0.25) and SA2 (16 of those 64, r = 0.5), K = 8, on 32 clouds; each
# cloud draws its setting from the classification_tradeoff grid.
EPOCH_CLOUDS = 32
EPOCH_POINTS = 160
EPOCH_LAYERS = ((64, 0.25), (16, 0.5))
EPOCH_K = 8
EPOCH_TOP_HEIGHTS = (1, 2, 3, 4, 5)
EPOCH_ELISIONS = (3, 5, 6, None)
MIN_FOREST_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def workload(lockstep_groups_builder):
    rng = np.random.default_rng(20260730)
    pts = rng.normal(size=(N_POINTS, 3))
    queries = pts[rng.permutation(N_POINTS)[:N_QUERIES]]
    tree = build_kdtree(pts)
    groups, split = lockstep_groups_builder(tree, queries, TOP_HEIGHT)
    return tree, queries, split, groups


def run_vectorized(tree, queries, groups):
    engine = VectorizedLockstep(
        tree, banking=TreeBufferBanking(NUM_BANKS), num_pes=NUM_PES
    )
    mach_queries = np.concatenate([q for _, q in groups])
    roots = np.concatenate([np.full(len(q), root) for root, q in groups])
    outcome = engine.run(
        queries[mach_queries], roots,
        np.full(len(mach_queries), MAX_NEIGHBORS, dtype=np.int64),
        RADIUS, elide_depth=ELISION,
    )
    hits = {int(q): [] for q in mach_queries}
    order = np.argsort(outcome.hit_machine, kind="stable")
    for mach, pid in zip(outcome.hit_machine[order], outcome.hit_point[order]):
        hits[int(mach_queries[mach])].append(int(pid))
    return int(outcome.cycles[0]), int(outcome.stalls[0]), hits, outcome.sram[0]


def test_lockstep_vectorization_does_not_regress(workload, reference_lockstep_driver):
    tree, queries, split, groups = workload
    run_vectorized(tree, queries, groups)  # warm-up

    def run_reference():
        cycles, stalls, hits, _, sram = reference_lockstep_driver(
            tree, queries, split, groups, RADIUS, MAX_NEIGHBORS, ELISION,
            NUM_PES, TreeBufferBanking(NUM_BANKS),
        )
        return cycles, stalls, hits, sram

    t0 = time.perf_counter()
    ref = run_reference()
    ref_time = time.perf_counter() - t0
    vec_time = float("inf")
    vec = None
    for _ in range(3):
        t0 = time.perf_counter()
        vec = run_vectorized(tree, queries, groups)
        vec_time = min(vec_time, time.perf_counter() - t0)

    assert vec[0] == ref[0]  # cycles
    assert vec[1] == ref[1]  # stalls
    assert vec[2] == ref[2]  # per-machine hit lists
    for field in ("accesses", "conflicted", "elided", "broadcasts",
                  "reads_served", "cycles"):
        assert getattr(vec[3], field) == getattr(ref[3], field), field
    speedup = ref_time / vec_time
    write_bench_artifact(
        "lockstep",
        {
            "single_tree": {
                "stage": "search.lockstep",
                "cloud_size": N_POINTS,
                "queries": N_QUERIES,
                "ms_reference": round(ref_time * 1e3, 3),
                "ms_vectorized": round(vec_time * 1e3, 3),
                "speedup": round(speedup, 2),
            }
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized lockstep only {speedup:.2f}x faster "
        f"({ref_time:.3f}s reference vs {vec_time:.3f}s vectorized)"
    )


def epoch_jobs():
    data = ShapeClassificationDataset(
        size=EPOCH_CLOUDS, num_points=EPOCH_POINTS, seed=7,
        occlusion=0.0, noise=0.01, rotate=False,
    )
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(EPOCH_CLOUDS):
        setting = ApproxSetting(
            int(rng.choice(EPOCH_TOP_HEIGHTS)),
            EPOCH_ELISIONS[int(rng.integers(len(EPOCH_ELISIONS)))],
        )
        points = data[i][0].points
        for num_queries, radius in EPOCH_LAYERS:
            queries = points[rng.choice(len(points), num_queries, replace=False)]
            tree = vectorized_build_kdtree(points)
            jobs.append(SearchJob(tree, queries, radius, EPOCH_K, setting))
            points = queries  # the next layer searches this layer's centroids
    return jobs


def test_epoch_forest_beats_per_call_searches():
    jobs = epoch_jobs()
    assert any(job.setting.uses_elision for job in jobs)
    assert any(not job.setting.uses_elision for job in jobs)

    def per_call():
        return [approximate_search([job])[0] for job in jobs]

    def forest():
        return approximate_search(jobs)

    # Identity first: one forest call equals every search run alone.
    for (ai, ac, ar), (bi, bc, br) in zip(per_call(), forest()):
        np.testing.assert_array_equal(ai, bi)
        np.testing.assert_array_equal(ac, bc)
        assert ar == br

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    per_call_time = best_of(per_call)
    forest_time = best_of(forest)
    speedup = per_call_time / forest_time
    write_bench_artifact(
        "lockstep",
        {
            "epoch_forest": {
                "stage": "search (top phase + forest lockstep + assembly)",
                "jobs": len(jobs),
                "clouds": EPOCH_CLOUDS,
                "cloud_size": EPOCH_POINTS,
                "ms_per_call": round(per_call_time * 1e3, 3),
                "ms_forest": round(forest_time * 1e3, 3),
                "speedup": round(speedup, 2),
            }
        },
    )
    assert speedup >= MIN_FOREST_SPEEDUP, (
        f"forest search only {speedup:.2f}x faster than per-call searches "
        f"({per_call_time * 1e3:.1f} ms per call vs {forest_time * 1e3:.1f} ms)"
    )
