"""Tests for the ApproximationPipeline (search + elision + memoization)."""

import numpy as np
import pytest

from repro.core import (
    ApproxSetting,
    ApproximationPipeline,
    PointBufferBanking,
    TreeBufferBanking,
)
from repro.kdtree import ball_query, build_kdtree


def problem(n=128, m=16, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    return pts, pts[rng.choice(n, m, replace=False)]


class TestPipeline:
    def test_exact_setting_matches_ball_query(self):
        pts, queries = problem()
        pipe = ApproximationPipeline()
        got = pipe.query(pts, queries, 0.5, 8, ApproxSetting(0, None))
        tree = build_kdtree(pts)
        want, _ = ball_query(tree, queries, 0.5, 8)
        assert np.array_equal(got, want)

    def test_cache_hit_returns_same_array(self):
        pts, queries = problem(seed=1)
        pipe = ApproximationPipeline()
        a = pipe.query(pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k")
        b = pipe.query(pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k")
        assert a is b  # memoized

    def test_cache_distinguishes_settings(self):
        pts, queries = problem(seed=2)
        pipe = ApproximationPipeline()
        a = pipe.query(pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k")
        b = pipe.query(pts, queries, 0.5, 8, ApproxSetting(0, None), cache_key="k")
        assert a is not b

    def test_cache_distinguishes_banking(self):
        pts, queries = problem(seed=3)
        pipe = ApproximationPipeline()
        a = pipe.query(pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k")
        pipe.tree_banking = TreeBufferBanking(8)
        b = pipe.query(pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k")
        assert a is not b  # new key, recomputed

    def test_clear_cache(self):
        pts, queries = problem(seed=4)
        pipe = ApproximationPipeline()
        a = pipe.query(pts, queries, 0.5, 8, ApproxSetting(1, None), cache_key="k")
        pipe.session.results.clear()
        b = pipe.query(pts, queries, 0.5, 8, ApproxSetting(1, None), cache_key="k")
        assert a is not b
        assert np.array_equal(a, b)

    def test_no_cache_key_disables_memoization(self):
        pts, queries = problem(seed=5)
        pipe = ApproximationPipeline()
        a = pipe.query(pts, queries, 0.5, 8, ApproxSetting(1, None))
        b = pipe.query(pts, queries, 0.5, 8, ApproxSetting(1, None))
        assert a is not b

    def test_query_with_counts_exact_path(self):
        pts, queries = problem(seed=7)
        pipe = ApproximationPipeline()
        indices, counts = pipe.query_with_counts(
            pts, queries, 0.5, 8, ApproxSetting(0, None)
        )
        tree = build_kdtree(pts)
        want_idx, want_cnt = ball_query(tree, queries, 0.5, 8)
        assert np.array_equal(indices, want_idx)
        assert np.array_equal(counts, want_cnt)

    def test_counts_served_from_cache_hit(self):
        # Counts used to be stored in the cache but unreachable; the hit
        # path must now hand back the exact cached objects.
        pts, queries = problem(seed=8)
        pipe = ApproximationPipeline()
        idx_a, cnt_a = pipe.query_with_counts(
            pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k"
        )
        assert pipe.session.results.stats.hits == 0
        idx_b, cnt_b = pipe.query_with_counts(
            pts, queries, 0.5, 8, ApproxSetting(2, 3), cache_key="k"
        )
        assert pipe.session.results.stats.hits == 1
        assert idx_a is idx_b
        assert cnt_a is cnt_b

    def test_query_and_query_with_counts_share_cache(self):
        pts, queries = problem(seed=9)
        pipe = ApproximationPipeline()
        indices = pipe.query(pts, queries, 0.5, 8, ApproxSetting(1, None), cache_key="k")
        idx2, counts = pipe.query_with_counts(
            pts, queries, 0.5, 8, ApproxSetting(1, None), cache_key="k"
        )
        assert indices is idx2  # one entry serves both call shapes
        assert counts.shape == (len(queries),)

    def test_mutated_points_do_not_hit_stale_cache(self):
        # The stale-cache hazard: same cache_key, different geometry.
        pts, queries = problem(seed=10)
        pipe = ApproximationPipeline()
        stale = pipe.query(pts, queries, 0.5, 8, ApproxSetting(0, None), cache_key="k")
        moved = pts + 0.35
        fresh = pipe.query(moved, queries, 0.5, 8, ApproxSetting(0, None), cache_key="k")
        tree = build_kdtree(moved)
        want, _ = ball_query(tree, queries, 0.5, 8)
        assert np.array_equal(fresh, want)
        assert not np.array_equal(stale, fresh)

    def test_aggregation_elision_rewrites_indices(self):
        pts, queries = problem(n=512, m=64, seed=6)
        plain = ApproximationPipeline(elide_aggregation=False)
        eliding = ApproximationPipeline(
            elide_aggregation=True, point_banking=PointBufferBanking(4)
        )
        a = plain.query(pts, queries, 0.8, 16, ApproxSetting(0, None))
        b = eliding.query(pts, queries, 0.8, 16, ApproxSetting(0, None))
        assert not np.array_equal(a, b)
        for i in range(len(queries)):
            assert set(b[i]) <= set(a[i])  # replication never invents ids
