"""Trace-equivalence suite: the traced batched engine must reproduce the
per-query reference searcher *including* its side channel.

:class:`repro.runtime.TracedBallQuery` exists so the Sec. 2 motivation
studies (Figs. 2–5) can retire their per-query Python loop; that is only
sound if the batched sweep reproduces, for every query,

1. the **visit trace** of ``radius_search(..., record_trace=True)`` —
   DFS preorder, near child first, truncated at the node contributing
   the K-th hit (the reference's early stop);
2. every **TraversalStats counter** of the early-stopped traversal
   (visited, pushes, pops, pruned, neighbors found), including the
   abandoned-stack asymmetry (pushes issued before the break are counted
   even though their nodes are never popped);
3. the ``(indices, counts)`` matrix of :func:`ball_query`, padding
   included.

Randomized across radii, K, tree shapes, and the degenerate geometries
that stress early stopping and empty neighborhoods — the same pinning
discipline ``tests/test_runtime_lockstep.py`` applies to the lockstep
engine.
"""

import numpy as np
import pytest

from repro.kdtree import ball_query, build_kdtree
from repro.kdtree.exact import radius_search
from repro.kdtree.stats import TraversalStats
from repro.runtime import TracedBallQuery

STAT_FIELDS = (
    "nodes_visited",
    "nodes_pruned",
    "stack_pushes",
    "stack_pops",
    "neighbors_found",
    "queries",
)


def reference_traces(tree, queries, radius, k):
    """One reference ``radius_search`` per query, trace recorded."""
    out = []
    for q in np.atleast_2d(queries):
        stats = TraversalStats()
        radius_search(
            tree, q, radius, max_neighbors=k, stats=stats, record_trace=True
        )
        out.append(stats)
    return out


def assert_trace_identical(tree, queries, radius, k):
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    result = TracedBallQuery(tree).query(queries, radius, k)
    want = reference_traces(tree, queries, radius, k)
    assert len(result.stats) == len(result.traces) == len(want)
    for i, ref in enumerate(want):
        got = result.stats[i]
        for field in STAT_FIELDS:
            assert getattr(got, field) == getattr(ref, field), (
                f"query {i}: {field} {getattr(got, field)} != {getattr(ref, field)}"
            )
        assert got.visit_trace == ref.visit_trace, f"query {i}: trace"
        assert result.traces[i].tolist() == ref.visit_trace, f"query {i}: trace array"
    # The result matrix keeps ball_query's exact contract too.
    want_idx, want_cnt = ball_query(tree, queries, radius, k)
    np.testing.assert_array_equal(result.indices, want_idx)
    np.testing.assert_array_equal(result.counts, want_cnt)
    return result


class TestTraceEquivalence:
    @pytest.mark.parametrize("n,m", [(2, 1), (17, 5), (64, 64), (257, 100), (600, 128)])
    @pytest.mark.parametrize("radius,k", [(0.15, 4), (0.4, 16), (1.5, 8)])
    def test_random_clouds(self, rng, n, m, radius, k):
        pts = rng.normal(size=(n, 3))
        queries = rng.normal(size=(m, 3)) * 0.9
        assert_trace_identical(build_kdtree(pts), queries, radius, k)

    @pytest.mark.parametrize("split_rule", ["widest", "cycle"])
    def test_both_split_rules(self, rng, split_rule):
        pts = rng.normal(size=(200, 3))
        tree = build_kdtree(pts, split_rule=split_rule)
        assert_trace_identical(tree, pts[:50], 0.35, 8)

    def test_many_seeds(self, test_seed):
        for offset in range(10):
            rng = np.random.default_rng(test_seed + offset)
            n = int(rng.integers(1, 400))
            m = int(rng.integers(1, 80))
            radius = float(rng.uniform(0.05, 1.2))
            k = int(rng.integers(1, 24))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.3, 2.0)
            queries = rng.normal(size=(m, 3))
            assert_trace_identical(build_kdtree(pts), queries, radius, k)

    def test_early_stop_mid_subtree(self, rng):
        # Dense cloud + small K: most traversals break with live stack
        # entries abandoned, the case where trace truncation and the
        # push-counting asymmetry actually matter.
        pts = rng.normal(size=(500, 3)) * 0.3
        queries = pts[rng.choice(500, 64, replace=False)]
        result = assert_trace_identical(build_kdtree(pts), queries, 0.5, 4)
        assert (result.counts == 4).any()  # truncation genuinely exercised
        # Early-stopped traversals leave pushes unpopped.
        assert any(
            s.stack_pushes > s.stack_pops for s in result.stats
        ), "scenario never abandoned a stack"

    def test_zero_neighbor_rows(self, rng):
        pts = rng.normal(size=(128, 3))
        queries = rng.normal(size=(16, 3)) + 50.0  # far outside the cloud
        result = assert_trace_identical(build_kdtree(pts), queries, 0.2, 5)
        assert (result.counts == 0).all()
        # Full (never-early-stopped) traversals: every push was popped.
        assert all(s.stack_pushes == s.stack_pops for s in result.stats)

    def test_k_one_stops_at_first_hit(self, rng):
        pts = rng.normal(size=(300, 3))
        assert_trace_identical(build_kdtree(pts), pts[:40], 0.4, 1)

    def test_grid_cloud_with_ties(self):
        axis = np.linspace(-1, 1, 5)
        pts = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        tree = build_kdtree(pts)
        assert_trace_identical(tree, pts[::7], 0.51, 6)
        assert_trace_identical(tree, pts[::7], 0.5, 6)

    def test_duplicate_points(self, rng):
        base = rng.normal(size=(12, 3))
        pts = np.repeat(base, 25, axis=0)
        assert_trace_identical(build_kdtree(pts), base, 1e-9, 8)

    def test_single_point_cloud(self):
        tree = build_kdtree(np.array([[0.5, -0.25, 1.0]]))
        queries = np.array([[0.5, -0.25, 1.0], [10.0, 10.0, 10.0]])
        result = assert_trace_identical(tree, queries, 0.1, 3)
        assert [t.tolist() for t in result.traces] == [[0], [0]]

    def test_single_query_1d_shape(self, rng):
        pts = rng.normal(size=(64, 3))
        result = TracedBallQuery(build_kdtree(pts)).query(pts[3], 0.5, 4)
        assert result.indices.shape == (1, 4)
        assert len(result.traces) == len(result.stats) == 1

    def test_zero_queries(self, rng):
        result = TracedBallQuery(build_kdtree(rng.normal(size=(32, 3)))).query(
            np.empty((0, 3)), 0.5, 4
        )
        assert result.indices.shape == (0, 4)
        assert result.traces == [] and result.stats == []

    def test_memory_guard_fallback_stays_identical(self, rng, monkeypatch):
        from repro.runtime import traced as traced_mod

        monkeypatch.setattr(traced_mod, "_MAX_BUFFERED_VISITS", 10)
        pts = rng.normal(size=(200, 3)) * 0.2
        assert_trace_identical(build_kdtree(pts), pts[:30], 2.0, 8)

    def test_merged_stats_match_shared_stats_object(self, rng):
        # ball_query with one shared stats object accumulates per-query
        # stats in query order; merged_stats() must reproduce that.
        pts = rng.normal(size=(150, 3))
        queries = rng.normal(size=(20, 3)) * 0.8
        tree = build_kdtree(pts)
        shared = TraversalStats()
        ball_query(tree, queries, 0.4, 6, stats=shared, record_trace=True)
        merged = TracedBallQuery(tree).query(queries, 0.4, 6).merged_stats()
        for field in STAT_FIELDS:
            assert getattr(merged, field) == getattr(shared, field), field
        assert merged.visit_trace == shared.visit_trace

    def test_invalid_arguments(self, rng):
        engine = TracedBallQuery(build_kdtree(rng.normal(size=(8, 3))))
        with pytest.raises(ValueError):
            engine.query(np.zeros((1, 3)), -1.0, 4)
        with pytest.raises(ValueError):
            engine.query(np.zeros((1, 3)), 0.5, 0)


class TestDriverOutputsUnchanged:
    """Figs. 2–3 inputs: the routed driver must emit the traces the
    per-query loop emitted (pinning the acceptance criterion directly)."""

    def test_layer_search_traces_identical_to_per_query_loop(self):
        from repro.analysis import layer_search_traces
        from repro.analysis.characterization import _network_layer_queries

        spec = "PointNet++ (c)"
        got = layer_search_traces(spec, max_queries_per_layer=24)
        want = []
        for points, queries, radius, k in _network_layer_queries(spec, seed=0):
            tree = build_kdtree(points)
            for stats in reference_traces(tree, queries[:24], radius, k):
                want.append([tree.node_address(n) for n in stats.visit_trace])
        assert got == want
