"""Forest equivalence suite: many searches in one pass vs each alone.

:func:`repro.runtime.approximate_search` runs a batch of approximate
searches as one top-tree descent, one forest lockstep run (plus one
free-running run) and one flat result assembly.  Its contract is that
every job comes out exactly as if run alone through the per-step
reference :func:`repro.core.approx_search.approximate_ball_query`:
indices, counts, lockstep cycles and stalls, per-sub-tree cycles,
traversal and SRAM statistics, and queue occupancy (in order).  These
tests pin that on randomized batches mixing tree sizes (down to one
node, with duplicate coordinates), radii, ``K``, top heights from 0 to
past the tree height, elision on and off, machines whose top-tree hits
already fill ``K``, queries that find nothing, and both elision policies
— and pin that epoch materialization's one-forest serial path fills the
session exactly as per-request queries do.
"""

import numpy as np
import pytest

from repro.core import ApproxSetting, TreeBufferBanking
from repro.core.approx_search import approximate_ball_query
from repro.core.pipeline import ApproximationPipeline
from repro.kdtree import build_kdtree
from repro.runtime import MaterializeRequest, SearchJob, approximate_search


def random_cloud(rng):
    n = int(rng.choice([1, 2, 3, int(rng.integers(4, 40)), int(rng.integers(40, 260))]))
    points = rng.normal(size=(n, 3))
    if n > 3 and rng.integers(0, 3) == 0:
        points[: n // 2] = points[0]  # duplicate coordinates: tie routing
    return points


def random_job(rng, tree, points):
    height = tree.height
    m = int(rng.choice([0, 1, int(rng.integers(2, 48))]))
    queries = rng.normal(size=(m, 3)) * 0.8
    if m and rng.integers(0, 2):
        queries[: m // 2] = points[rng.integers(0, len(points), m // 2)]
    top = int(rng.choice([0, int(rng.integers(1, 6)), height + 2]))
    elide = None if rng.integers(0, 2) else int(rng.integers(0, height + 3))
    return SearchJob(
        tree, queries, float(rng.uniform(0.1, 1.4)), int(rng.integers(1, 20)),
        ApproxSetting(top, elide), [None, True, False][int(rng.integers(0, 3))],
    )


def random_batch(rng):
    clouds = [random_cloud(rng) for _ in range(int(rng.integers(1, 6)))]
    trees = [build_kdtree(c) for c in clouds]
    jobs = []
    for _ in range(int(rng.integers(2, 9))):
        t = int(rng.integers(0, len(trees)))  # trees are shared across jobs
        jobs.append(random_job(rng, trees[t], clouds[t]))
    big = int(np.argmax([len(c) for c in clouds]))
    # A capacity-0 job: K = 1 with a radius covering the cloud, so the
    # first top-tree node fills every result buffer before phase 2.
    jobs.append(
        SearchJob(trees[big], clouds[big][:5], 50.0, 1, ApproxSetting(2, 1), True)
    )
    # Empty rows: queries far outside every cloud find nothing and pad
    # with their nearest point.
    jobs.append(
        SearchJob(trees[0], rng.normal(size=(4, 3)) + 100.0, 0.3, 4, ApproxSetting(1, 2))
    )
    return jobs


def assert_matches_reference(jobs, got, banks, pes, policy, ctx):
    assert len(got) == len(jobs), ctx
    for j, (job, (indices, counts, report)) in enumerate(zip(jobs, got)):
        ref_indices, ref_counts, ref_report = approximate_ball_query(
            job.tree, job.queries, job.radius, job.max_neighbors, job.setting,
            banking=TreeBufferBanking(banks), num_pes=pes,
            simulate_conflicts=job.simulate_conflicts, elide_policy=policy,
        )
        where = f"{ctx} job={j} setting={job.setting} simulate={job.simulate_conflicts}"
        assert indices.shape == ref_indices.shape, where
        np.testing.assert_array_equal(indices, ref_indices, err_msg=where)
        np.testing.assert_array_equal(counts, ref_counts, err_msg=where)
        # Cycles, stalls, per-sub-tree cycles, traversal and SRAM stats,
        # queue occupancy: the whole report, and occupancy in order.
        assert report == ref_report, where
        assert list(report.queue_occupancy.items()) == list(
            ref_report.queue_occupancy.items()
        ), where


@pytest.mark.parametrize("policy", ["skip", "descend"])
def test_randomized_forests_match_each_job_alone(rng, policy):
    coverage = {"capacity0": 0, "empty_rows": 0, "scaled": 0, "lockstep": 0}
    for trial in range(12):
        jobs = random_batch(rng)
        banks = int(rng.choice([1, 2, 4, 8]))
        pes = int(rng.choice([1, 2, 3, 4, 8]))
        got = approximate_search(
            jobs, banking=TreeBufferBanking(banks), num_pes=pes, elide_policy=policy
        )
        assert_matches_reference(
            jobs, got, banks, pes, policy, f"trial={trial} banks={banks} pes={pes}"
        )
        for job, (_, counts, report) in zip(jobs, got):
            coverage["empty_rows"] += int((counts == 0).sum())
            coverage["scaled"] += job.setting.top_height >= job.tree.height
            coverage["lockstep"] += report.lockstep_cycles > 0
            if job.max_neighbors == 1 and report.top_tree_visits:
                coverage["capacity0"] += report.subtrees_loaded
    assert all(coverage.values()), coverage


def test_tiny_trees_and_duplicate_coordinates(rng):
    clouds = [
        np.zeros((1, 3)),
        np.array([[0.0, 0, 0], [0.1, 0, 0]]),
        np.array([[0.0, 0, 0], [0.0, 0, 0], [0.2, 0, 0]]),
        np.repeat(rng.normal(size=(1, 3)), 20, axis=0),
    ]
    jobs = [
        SearchJob(build_kdtree(c), c + 0.01, r, k, ApproxSetting(ht, he), sim)
        for c in clouds
        for r, k, ht, he, sim in (
            (0.05, 2, 0, None, None),
            (0.5, 1, 3, 0, True),
            (0.5, 8, 1, None, True),
        )
    ]
    got = approximate_search(jobs, banking=TreeBufferBanking(2), num_pes=2)
    assert_matches_reference(jobs, got, 2, 2, "skip", "tiny")


def test_single_job_and_empty_batch(rng):
    assert approximate_search([]) == []
    points = rng.normal(size=(200, 3))
    job = SearchJob(build_kdtree(points), points[:30], 0.5, 8, ApproxSetting(3, 4))
    got = approximate_search([job], banking=TreeBufferBanking(4), num_pes=4)
    assert_matches_reference([job], got, 4, 4, "skip", "single")
    with pytest.raises(ValueError):
        approximate_search([SearchJob(job.tree, points[:2], 0.5, 0, ApproxSetting())])


@pytest.mark.parametrize("elide_aggregation", [False, True])
def test_materialize_fills_same_entries_as_per_request_queries(rng, elide_aggregation):
    # The serial materialization path computes an epoch's misses as one
    # forest search; the session must end up holding exactly what
    # per-request query_with_counts calls would have filed.
    clouds = [rng.normal(size=(int(n), 3)) for n in (160, 96, 160, 64)]
    settings = [ApproxSetting(0, None), ApproxSetting(2, 4), ApproxSetting(4, None),
                ApproxSetting(1, 3)]
    requests = []
    for ci, cloud in enumerate(clouds):
        for layer, (m, radius) in enumerate(((32, 0.3), (8, 0.6))):
            queries = cloud[rng.choice(len(cloud), m, replace=False)]
            for setting in settings:
                requests.append(
                    MaterializeRequest(
                        points=cloud, queries=queries, radius=radius,
                        max_neighbors=8, setting=setting, cache_key=(ci, layer),
                    )
                )
    forest = ApproximationPipeline(elide_aggregation=elide_aggregation)
    report = forest.materialize(requests)
    assert report.computed == len(requests)
    alone = ApproximationPipeline(elide_aggregation=elide_aggregation)
    for req in requests:
        alone.query_with_counts(
            req.points, req.queries, req.radius, req.max_neighbors,
            req.setting, cache_key=req.cache_key,
        )
    a, b = forest.session.results._data, alone.session.results._data
    assert list(a) == list(b)  # same keys, same LRU order
    for key in a:
        np.testing.assert_array_equal(a[key][0], b[key][0])
        np.testing.assert_array_equal(a[key][1], b[key][1])
    # Both paths built each cloud's tree once and looked it up per request.
    assert forest.session.trees.stats.misses == alone.session.trees.stats.misses
    assert forest.session.trees.stats.hits == alone.session.trees.stats.hits
