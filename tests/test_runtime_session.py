"""SearchSession: tree caching, LRU memoization, stale-geometry safety."""

import numpy as np
import pytest

from repro.core import ApproximationPipeline, ApproxSetting
from repro.kdtree import ball_query
from repro.runtime import LruCache, SearchSession, geometry_digest


def exact_query(session, points, queries, radius, k, cache_key=None):
    """The session-backed exact ball query, memoized under ``cache_key``."""
    pipeline = ApproximationPipeline(session=session)
    return pipeline.query_with_counts(
        points, queries, radius, k, ApproxSetting(0, None), cache_key=cache_key
    )


class TestGeometryDigest:
    def test_content_sensitive(self, rng):
        a = rng.normal(size=(20, 3))
        b = a.copy()
        assert geometry_digest(a) == geometry_digest(b)
        b[7, 1] += 1e-12
        assert geometry_digest(a) != geometry_digest(b)

    def test_shape_and_dtype_sensitive(self):
        flat = np.zeros(12)
        assert geometry_digest(flat) != geometry_digest(flat.reshape(4, 3))
        assert geometry_digest(flat) != geometry_digest(flat.astype(np.float32))

    def test_multiple_arrays_are_order_sensitive(self, rng):
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        assert geometry_digest(a, b) != geometry_digest(b, a)


class TestLruCache:
    def test_hit_miss_accounting(self):
        cache = LruCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_evicts_least_recently_used(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(max_entries=0)

    def test_clear_resets_stats(self):
        """Regression (PR 10): clear() emptied the entries but kept the
        old hit/miss/eviction counters, so the post-clear hit rate lied
        about a cache that no longer held anything."""
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("ghost")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts
        assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (
            1,
            1,
            1,
        )
        cache.clear()
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (
            0,
            0,
            0,
        )
        assert cache.stats.hit_rate == 0.0

    def test_reset_stats_keeps_entries(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.get("a")
        cache.reset_stats()
        assert cache.get("a") == 1  # entry survived the counter reset
        assert cache.stats.hits == 1 and cache.stats.misses == 0



class TestSearchSession:
    def test_tree_for_reuses_tree(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(50, 3))
        assert session.tree_for(pts) is session.tree_for(pts.copy())
        assert session.trees.stats.hits == 1

    def test_tree_for_rebuilds_on_mutation(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(50, 3))
        original = pts.copy()
        t1 = session.tree_for(pts)
        pts[0] += 1.0
        t2 = session.tree_for(pts)
        assert t1 is not t2
        # The cached tree keeps its own read-only copy of the cloud: the
        # caller's write must not reach a tree filed under the old digest.
        np.testing.assert_array_equal(t1.points, original)
        assert not t1.points.flags.writeable

    def test_trees_for_builds_distinct_misses_in_one_pass(self, rng, monkeypatch):
        from repro.kdtree import build_kdtree
        from repro.runtime import treebuild

        passes = []
        real = treebuild.vectorized_build_forest

        def counting(clouds, split_rule="widest"):
            passes.append(len(clouds))
            return real(clouds, split_rule)

        monkeypatch.setattr(treebuild, "vectorized_build_forest", counting)
        clouds = [rng.normal(size=(int(n), 3)) for n in (40, 1, 112, 7)]
        originals = [c.copy() for c in clouds]
        # 32 items on 4 clouds: some items pass the cloud itself, some an
        # equal copy (the digest, not the array, names the cloud).
        items = [clouds[i % 4] if i % 3 else clouds[i % 4].copy() for i in range(32)]
        session = SearchSession()
        trees = session.trees_for(items)
        assert passes == [4]
        assert (session.trees.stats.misses, session.trees.stats.hits) == (4, 28)
        for i, tree in enumerate(trees):
            assert tree is trees[i % 4]
        for cloud, original, tree in zip(clouds, originals, trees):
            cloud += 5.0  # the caller's write must not reach the cached tree
            ref = build_kdtree(original)
            for field in ("point_id", "split_dim", "left", "right", "depth", "subtree_size"):
                assert getattr(tree, field).dtype == getattr(ref, field).dtype
                np.testing.assert_array_equal(getattr(tree, field), getattr(ref, field))
            np.testing.assert_array_equal(tree.points, original)
            assert not tree.points.flags.writeable
        # A second batch is all hits and builds nothing; an empty batch is
        # a no-op; tree_for is the one-item batch.
        again = session.trees_for(originals)
        assert len(again) == 4 and all(a is b for a, b in zip(again, trees))
        assert session.trees_for([]) == []
        assert session.tree_for(originals[2]) is trees[2]
        assert passes == [4]
        assert (session.trees.stats.misses, session.trees.stats.hits) == (4, 33)

    def test_ball_query_matches_reference(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(200, 3))
        queries = pts[:40]
        idx, cnt = exact_query(session, pts, queries, 0.4, 8)
        want_idx, want_cnt = ball_query(session.tree_for(pts), queries, 0.4, 8)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(cnt, want_cnt)

    def test_memoized_query_returns_cached_object(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(80, 3))
        a = exact_query(session, pts, pts[:10], 0.3, 4, cache_key="layer0")
        b = exact_query(session, pts, pts[:10], 0.3, 4, cache_key="layer0")
        assert a is b

    def test_stale_cache_hazard_is_fixed(self, rng):
        # The regression the geometry digest exists for: reuse a cache_key
        # after mutating the points and the session must NOT serve the old
        # geometry's neighbor matrix.
        session = SearchSession()
        pts = rng.normal(size=(120, 3))
        queries = pts[:20].copy()
        stale_idx, _ = exact_query(session, pts, queries, 0.4, 6, cache_key="k")
        pts += rng.normal(size=pts.shape)  # same key, new geometry
        fresh_idx, fresh_cnt = exact_query(session, pts, queries, 0.4, 6, cache_key="k")
        want_idx, want_cnt = ball_query(session.tree_for(pts), queries, 0.4, 6)
        np.testing.assert_array_equal(fresh_idx, want_idx)
        np.testing.assert_array_equal(fresh_cnt, want_cnt)
        assert not np.array_equal(stale_idx, fresh_idx)

    def test_result_cache_is_bounded(self, rng):
        session = SearchSession(max_results=3)
        pts = rng.normal(size=(30, 3))
        for i in range(6):
            exact_query(session, pts, pts[i : i + 4], 0.5, 4, cache_key=("q", i))
        assert len(session.results) == 3
        assert session.results.stats.evictions == 3

    def test_clear(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(30, 3))
        exact_query(session, pts, pts[:4], 0.5, 4, cache_key="k")
        tree = session.tree_for(pts)
        session.split_tree_for(tree, 2)
        session.clear()
        assert len(session.results) == 0 and len(session.trees) == 0
        assert len(session.split_trees) == 0

    def test_split_tree_for_reuses_layout(self, rng):
        session = SearchSession()
        pts = rng.normal(size=(60, 3))
        tree = session.tree_for(pts)
        split = session.split_tree_for(tree, 2)
        assert session.split_tree_for(tree, 2) is split
        assert session.split_tree_for(tree, 3) is not split
        assert session.split_trees.stats.hits == 1

    def test_split_tree_keyed_by_structure(self, rng):
        # Same coordinates, different split rule: structurally different
        # trees must not share split-tree cache entries.
        from repro.kdtree import build_kdtree
        from repro.runtime import tree_digest

        pts = rng.normal(size=(60, 3))
        widest = build_kdtree(pts, split_rule="widest")
        cycled = build_kdtree(pts, split_rule="cycle")
        assert tree_digest(widest) != tree_digest(cycled)
        session = SearchSession()
        assert session.split_tree_for(widest, 2) is not session.split_tree_for(cycled, 2)
