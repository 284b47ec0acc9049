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
session exactly as per-request queries do.  The layout underneath,
:meth:`repro.runtime.Forest.of`, is pinned tree by tree against the trees
it lays out, and :func:`~repro.runtime.frontier_sweep` with per-row
``roots`` against one sweep per tree, its yielded ``d2`` bit for bit
against :func:`~repro.kdtree.dynamic_reference.pair_d2`, and every field
of every level it yields against the same formulas spelled out plainly.
"""

import numpy as np
import pytest

from repro.core import ApproxSetting, TreeBufferBanking
from repro.core.approx_search import approximate_ball_query
from repro.core.pipeline import ApproximationPipeline
from repro.kdtree import build_kdtree
from repro.kdtree.build import KdTree
from repro.kdtree.dynamic_reference import pair_d2
from repro.runtime import (
    Forest,
    QueryRequest,
    SearchJob,
    VectorizedLockstep,
    approximate_search,
    euler_tour,
    frontier_sweep,
)
from repro.runtime import approx as approx_mod
from repro.runtime import forest as forest_mod
from repro.runtime.batched import FrontierLevel


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
    # K must be an integer >= 1: 2.5 used to be served as K = 2.
    for k in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="max_neighbors"):
            approximate_search([SearchJob(job.tree, points[:2], 0.5, k, ApproxSetting(2, None))])
        for setting in (ApproxSetting(2, None), ApproxSetting(0, None)):
            with pytest.raises(ValueError, match="max_neighbors"):
                ApproximationPipeline().query_with_counts(points, points[:6], 0.5, k, setting)
    # Radii the per-step reference rejects, and NaN, which it would turn
    # into all-zero counts; an infinite radius stays legal, as there.
    for radius in (-0.5, 0.0, float("nan")):
        with pytest.raises(ValueError, match="radius must be positive"):
            approximate_search([SearchJob(job.tree, points[:6], radius, 8, ApproxSetting(2, None))])
        with pytest.raises(ValueError, match="radius must be positive"):
            ApproximationPipeline().query_with_counts(
                points, points[:6], radius, 8, ApproxSetting(2, None)
            )
    wide = SearchJob(job.tree, points[:6], np.inf, 8, ApproxSetting(2, None))
    assert_matches_reference([wide], approximate_search([wide]), 4, 4, "skip", "inf")


def test_assembly_pair_order_is_lexsort_order(rng, call_rows):
    # The assembly keeps each (row, point)'s first occurrence, so hits
    # sort by (row, point) with repeats in emission order; the fused int64
    # key must give exactly the three-key lexsort order.
    rows = rng.integers(0, 40, 600)
    points = rng.integers(0, 25, 600)
    # Repeated pairs: a parked top-tree branch re-testing its node.
    rows[300:360], points[300:360] = rows[:60], points[:60]
    assert np.unique(np.stack([rows, points]), axis=1).shape[1] < len(rows)
    lexsorts = call_rows(np, "lexsort", "keys")
    for r, p in ((rows, points), (rows[:0], points[:0]), (rows[:1], points[:1])):
        want = np.lexsort((np.arange(len(r)), p, r))
        lexsorts.clear()
        np.testing.assert_array_equal(approx_mod._pair_order(r, p), want)
        assert lexsorts == []  # one stable argsort, no lexsort
    # Point ids too large for the fused key fall back to lexsort.
    big = points + (1 << 62)
    np.testing.assert_array_equal(
        approx_mod._pair_order(rows, big), np.lexsort((np.arange(600), big, rows))
    )
    assert lexsorts == [3, 3]  # the expected order's lexsort, then the fallback


@pytest.mark.parametrize("elide_aggregation", [False, True])
def test_materialize_fills_same_entries_as_per_request_queries(rng, elide_aggregation):
    # Materialization resolves an epoch's requests in one call, which
    # computes its misses as one forest search; the session must end up
    # holding exactly what per-request query_with_counts calls would have
    # filed, and the call returns those matrices.
    clouds = [rng.normal(size=(int(n), 3)) for n in (160, 96, 160, 64)]
    settings = [ApproxSetting(0, None), ApproxSetting(2, 4), ApproxSetting(4, None),
                ApproxSetting(1, 3)]
    requests = []
    for ci, cloud in enumerate(clouds):
        for layer, (m, radius) in enumerate(((32, 0.3), (8, 0.6))):
            queries = cloud[rng.choice(len(cloud), m, replace=False)]
            for setting in settings:
                requests.append(
                    QueryRequest(
                        points=cloud, queries=queries, radius=radius,
                        max_neighbors=8, setting=setting, cache_key=(ci, layer),
                    )
                )
    forest = ApproximationPipeline(elide_aggregation=elide_aggregation)
    resolved = forest.resolve(requests)
    assert forest.session.results.stats.misses == len(requests)
    alone = ApproximationPipeline(elide_aggregation=elide_aggregation)
    for req in requests:
        alone.query_with_counts(
            req.points, req.queries, req.radius, req.max_neighbors,
            req.setting, cache_key=req.cache_key,
        )
    a, b = forest.session.results._data, alone.session.results._data
    assert list(a) == list(b)  # same keys, same LRU order
    for key, value in zip(a, resolved):
        assert a[key] is value
        np.testing.assert_array_equal(a[key][0], b[key][0])
        np.testing.assert_array_equal(a[key][1], b[key][1])
    # Both paths built each cloud's tree once and looked it up per request.
    assert forest.session.trees.stats.misses == alone.session.trees.stats.misses
    assert forest.session.trees.stats.hits == alone.session.trees.stats.hits


def mixed_trees(rng):
    """Trees of mixed sizes and heights: one point, a few, duplicate
    coordinates (tie routing), and a few hundred."""
    clouds = [
        rng.normal(size=(257, 3)),
        np.zeros((1, 3)),
        np.repeat(rng.normal(size=(1, 3)), 9, axis=0),
        rng.normal(size=(40, 3)),
        np.array([[0.0, 0, 0], [0.1, 0, 0]]),
    ]
    return [build_kdtree(c) for c in clouds]


class TestForestLayout:
    def test_each_tree_comes_back_rebased(self, rng):
        trees = mixed_trees(rng)
        forest = Forest.of(trees)
        assert forest.tree.tin is None and forest.tree.tout is None
        forest_tin, forest_tout = euler_tour(forest)
        sizes = [t.num_nodes for t in trees]
        assert forest.roots.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
        assert forest.tree.num_nodes == sum(sizes)
        assert forest.tree.height == max(t.height for t in trees)
        np.testing.assert_array_equal(forest.tree.point_id, np.arange(sum(sizes)))
        for tree, root in zip(trees, forest.roots.tolist()):
            nodes = slice(root, root + tree.num_nodes)
            np.testing.assert_array_equal(forest.point_id[nodes], tree.point_id)
            np.testing.assert_array_equal(
                forest.tree.points[nodes], tree.points[tree.point_id]
            )
            for field in ("split_dim", "depth", "subtree_size"):
                np.testing.assert_array_equal(
                    getattr(forest.tree, field)[nodes], getattr(tree, field)
                )
            for field in ("left", "right"):
                child = getattr(tree, field)
                np.testing.assert_array_equal(
                    getattr(forest.tree, field)[nodes],
                    np.where(child >= 0, child + root, -1),
                )
            tin, tout = euler_tour(tree)
            np.testing.assert_array_equal(forest_tin[nodes], tin + root)
            np.testing.assert_array_equal(forest_tout[nodes], tout + root)

    def test_one_euler_pass_per_forest(self, rng, euler_passes):
        # The intervals of every tree come from one level loop over the
        # whole forest, not one per tree, on first use, cached onto
        # forest.tree.
        passes, _ = euler_passes
        trees = mixed_trees(rng)
        forest = Forest.of(trees)
        assert passes == []  # the layout holds nodes only
        tin, tout = euler_tour(forest)
        assert passes == [len(trees)]
        assert forest.tree.tin is tin and forest.tree.tout is tout
        assert euler_tour(forest)[0] is tin
        assert passes == [len(trees)]

    def test_rejects_an_empty_forest(self):
        with pytest.raises(ValueError, match="at least one tree"):
            Forest.of([])


@pytest.fixture
def euler_passes(monkeypatch):
    """``(passes, walks)``: the root count of every ``_preorder`` pass,
    and the trees ``KdTree._ensure_euler`` (the one-root stack walk) ran
    on."""
    passes, walks = [], []
    real_preorder = forest_mod._preorder
    real_walk = KdTree._ensure_euler

    def preorder(left, right, size, roots):
        passes.append(len(roots))
        return real_preorder(left, right, size, roots)

    def walk(tree):
        walks.append(tree)
        return real_walk(tree)

    monkeypatch.setattr(forest_mod, "_preorder", preorder)
    monkeypatch.setattr(KdTree, "_ensure_euler", walk)
    return passes, walks


class TestEulerOnFirstUse:
    """Only the lockstep engine reads Euler intervals, so only its run
    computes them: one pass over the forest, never a one-root walk."""

    def test_serving_flush_and_dynamic_query_run_no_pass(self, rng, euler_passes):
        from repro.kdtree.dynamic import DynamicKdTree
        from repro.serve import QueryService

        passes, walks = euler_passes
        service = QueryService()
        clouds = [rng.normal(size=(120, 3)) for _ in range(3)]
        tickets = [service.submit(c, c[:4], 0.3, 4) for c in clouds]
        assert service.flush() == 1  # one sweep over a forest of 3 trees
        assert all(t.error is None for t in tickets)
        dyn = DynamicKdTree(rng.normal(size=(200, 3)), buffer_cap=16, max_segments=8)
        for shift in (2.0, -2.0):
            dyn.insert(rng.normal(size=(20, 3)) + shift)
            dyn.refresh()  # each spill is a segment of its own
        dyn.query_merged(rng.normal(size=(6, 3)), np.full(6, 0.8), np.zeros(6), [5])
        assert len(dyn._segments) > 1  # its sweep ran over a forest
        assert (passes, walks) == ([], [])

    def test_lockstep_run_runs_one_pass(self, rng, euler_passes):
        passes, walks = euler_passes
        trees = mixed_trees(rng)
        forest = Forest.of(trees)
        engine = VectorizedLockstep(forest, banking=TreeBufferBanking(4), num_pes=4)
        roots = forest.roots[[0, 0, 3, 3, 4]]
        queries = rng.normal(size=(5, 3)) * 0.5
        for _ in range(2):
            engine.run(queries, roots, np.full(5, 6), 0.8, elide_depth=2)
        assert passes == [len(trees)]
        assert walks == []
        want = [euler_tour(tree) for tree in trees]  # a pass per tree
        for field, values in zip(("tin", "tout"), zip(*want)):
            np.testing.assert_array_equal(
                getattr(forest.tree, field),
                np.concatenate([v + r for v, r in zip(values, forest.roots.tolist())]),
            )


class TestForestSweep:
    @staticmethod
    def per_row(levels):
        """Each row's visits, as ``(level, node, in_ball, within, near,
        far)`` tuples in DFS order within each level."""
        rows = {}
        for depth, level in enumerate(levels):
            order = np.argsort(level.key, kind="stable")
            for i in order.tolist():
                rows.setdefault(int(level.query_ids[i]), []).append((
                    depth,
                    int(level.nodes[i]),
                    bool(level.in_ball[i]),
                    bool(level.within_radius[i]),
                    bool(level.take_near[i]),
                    bool(level.take_far[i]),
                ))
        return rows

    @pytest.mark.parametrize("k", [3, None])
    def test_rows_match_one_sweep_per_tree(self, rng, k):
        # Rows are (query, tree) pairs, every query against every tree, as
        # the dynamic index sweeps a query against each segment it admits.
        trees = mixed_trees(rng)
        forest = Forest.of(trees)
        pair_q, tree_of = np.divmod(np.arange(12 * len(trees)), len(trees))
        queries = (rng.normal(size=(12, 3)) * 0.8)[pair_q]
        radii = rng.uniform(0.1, 1.5, size=12)[pair_q]
        got = self.per_row(
            frontier_sweep(forest.tree, queries, radii, k, roots=forest.roots[tree_of])
        )
        for t, tree in enumerate(trees):
            rows = np.flatnonzero(tree_of == t)
            want = self.per_row(frontier_sweep(tree, queries[rows], radii[rows], k))
            root = int(forest.roots[t])
            for local_row, row in enumerate(rows.tolist()):
                shifted = [
                    (d, node + root, *rest) for d, node, *rest in want[local_row]
                ]
                assert got[row] == shifted, (t, row)

    @pytest.mark.parametrize("k", [3, None])
    def test_level_d2_is_pair_d2(self, rng, k):
        # The dynamic index keys its tree hits with the d2 the sweep's
        # in-ball test compared, so every yielded row's d2 must carry the
        # same bits as the reference formula over the same query and point.
        trees = mixed_trees(rng)
        forest = Forest.of(trees)
        pair_q, tree_of = np.divmod(np.arange(12 * len(trees)), len(trees))
        queries = rng.normal(size=(12, 3)) * 0.8
        queries[:4] = forest.tree.points[rng.integers(0, forest.tree.num_nodes, 4)]
        radii = rng.uniform(0.1, 1.5, size=12)[pair_q]
        rows = hits = 0
        for level in frontier_sweep(
            forest.tree, queries[pair_q], radii, k, roots=forest.roots[tree_of]
        ):
            want = pair_d2(
                forest.tree.points, queries, pair_q[level.query_ids], level.point_ids
            )
            np.testing.assert_array_equal(level.d2.view(np.int64), want.view(np.int64))
            np.testing.assert_array_equal(
                level.in_ball, level.d2 <= (radii * radii)[level.query_ids]
            )
            rows += len(level.d2)
            hits += int(level.in_ball.sum())
        assert 0 < hits < rows

    @staticmethod
    def spelled_out_levels(tree, queries, radii, k, roots):
        """The sweep's per-level formulas written the plain way: fancy-index
        gathers, both children by ``np.where``, the next frontier by
        compress-and-concatenate, and each query's K-th hit from a sorted
        list of its hit keys."""
        height = tree.height
        fq = np.arange(len(queries), dtype=np.int64)
        fnode, fkey = roots, fq << height
        step = 1 << max(height - 1, 0)
        hits = [[] for _ in fq]
        while len(fq):
            pid = tree.point_id[fnode]
            delta = queries[fq] - tree.points[pid]
            d2 = np.einsum("ij,ij->i", delta, delta)
            in_ball = d2 <= (radii * radii)[fq]
            diff = delta[np.arange(len(fq)), tree.split_dim[fnode]]
            go_left = diff <= 0
            near = np.where(go_left, tree.left[fnode], tree.right[fnode])
            far = np.where(go_left, tree.right[fnode], tree.left[fnode])
            within = np.abs(diff) <= radii[fq]
            take_near, take_far = near >= 0, (far >= 0) & within
            yield FrontierLevel(
                fq, fkey, fnode, pid, d2, in_ball, far, within, take_near, take_far
            )
            for q, key in zip(fq[in_ball].tolist(), fkey[in_ball].tolist()):
                hits[q].append(key)
            fq = np.concatenate([fq[take_near], fq[take_far]])
            fnode = np.concatenate([near[take_near], far[take_far]])
            fkey = np.concatenate([fkey[take_near] + 1, fkey[take_far] + step])
            if k is not None:
                bound = np.array([
                    sorted(keys)[k - 1] if len(keys) >= k else np.iinfo(np.int64).max
                    for keys in hits
                ])
                keep = fkey < bound[fq]
                fq, fnode, fkey = fq[keep], fnode[keep], fkey[keep]
            step >>= 1

    @pytest.mark.parametrize("k", [3, None])
    def test_every_level_field_matches_the_spelled_out_formulas(self, rng, k):
        # Values and dtypes of all ten fields, level by level, on a forest
        # of mixed heights with duplicate coordinates (ties go left) and
        # queries sitting on points.
        trees = mixed_trees(rng)
        forest = Forest.of(trees)
        pair_q, tree_of = np.divmod(np.arange(16 * len(trees)), len(trees))
        queries = rng.normal(size=(16, 3)) * 0.8
        queries[:6] = forest.tree.points[rng.integers(0, forest.tree.num_nodes, 6)]
        queries = queries[pair_q]
        radii = rng.uniform(0.1, 1.5, size=16)[pair_q]
        roots = forest.roots[tree_of]
        got = list(frontier_sweep(forest.tree, queries, radii, k, roots=roots))
        want = list(self.spelled_out_levels(forest.tree, queries, radii, k, roots))
        assert len(got) == len(want) == forest.tree.height
        for depth, (g, w) in enumerate(zip(got, want)):
            for field in FrontierLevel._fields:
                a, b = getattr(g, field), getattr(w, field)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (depth, field)
                assert a.tobytes() == b.tobytes(), (depth, field)
        assert any(g.in_ball.any() for g in got)

    def test_rejects_roots_of_the_wrong_shape_eagerly(self, rng):
        forest = Forest.of(mixed_trees(rng))
        queries = np.zeros((3, 3))
        for roots in (np.zeros(2, dtype=np.int64), np.zeros((3, 1), dtype=np.int64)):
            with pytest.raises(ValueError, match="roots"):
                frontier_sweep(forest.tree, queries, 0.5, None, roots=roots)
