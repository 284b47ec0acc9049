"""Equivalence suite for the level-synchronous tree builders.

Pins :func:`repro.runtime.treebuild.vectorized_build_kdtree` bit-identical
to the frozen per-node reference :func:`repro.kdtree.build.build_kdtree`
(all six node arrays, values and dtypes, both split rules), and
:class:`VectorizedSplitTree` layout-identical to
:class:`repro.core.split_tree.SplitTree` — the contract that lets the
session route every cold build through the fast path without any golden
snapshot, cycle count, or serving result shifting by a bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproximationPipeline, ApproxSetting
from repro.core.split_tree import SplitTree
from repro.kdtree.build import build_kdtree
from repro.kdtree.exact import ball_query
from repro.runtime import SearchSession
from repro.runtime import treebuild as tb
from repro.runtime.treebuild import (
    VectorizedSplitTree,
    euler_tour,
    vectorized_build_kdtree,
)

NODE_FIELDS = ("point_id", "split_dim", "left", "right", "depth", "subtree_size")
RULES = ("widest", "cycle")


def assert_same_tree(ref, fast):
    for field in NODE_FIELDS:
        a, b = getattr(ref, field), getattr(fast, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


def cloud(kind, n, rng):
    if kind == "normal":
        return rng.normal(size=(n, 3))
    if kind == "heavy-ties":
        return rng.integers(0, 4, size=(n, 3)).astype(float)
    if kind == "collinear":
        pts = np.zeros((n, 3))
        pts[:, 0] = rng.integers(0, 3, size=n)
        return pts
    if kind == "duplicate-rows":
        return np.repeat(rng.normal(size=(max(1, n // 4), 3)), 4, axis=0)[:n]
    raise AssertionError(kind)


CLOUD_KINDS = ("normal", "heavy-ties", "collinear", "duplicate-rows")


class TestBuilderEquivalence:
    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    def test_randomized_bit_identical(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(30):
            n = int(rng.integers(1, 300))
            pts = cloud(kind, n, rng)
            for rule in RULES:
                assert_same_tree(
                    build_kdtree(pts, rule), vectorized_build_kdtree(pts, rule)
                )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_clouds(self, n):
        rng = np.random.default_rng(n)
        for pts in (rng.normal(size=(n, 3)), np.zeros((n, 3))):
            for rule in RULES:
                assert_same_tree(
                    build_kdtree(pts, rule), vectorized_build_kdtree(pts, rule)
                )

    def test_all_duplicate_points(self):
        pts = np.ones((17, 3)) * 2.5
        for rule in RULES:
            assert_same_tree(
                build_kdtree(pts, rule), vectorized_build_kdtree(pts, rule)
            )

    def test_ties_on_split_value(self):
        # Several points share the median's split coordinate: routing of
        # the tied points is decided purely by the stable sort.
        pts = np.array(
            [[1.0, 9, 0], [1.0, 3, 0], [2.0, 5, 0], [1.0, 7, 0], [0.0, 1, 0]]
        )
        for rule in RULES:
            assert_same_tree(
                build_kdtree(pts, rule), vectorized_build_kdtree(pts, rule)
            )

    def test_unbalanced_short_branches(self):
        # Size-2 subtrees produce right-only nodes (the `parked` descent
        # shape): n = 2 is the smallest, n = 6 nests one per side.
        for n in (2, 6):
            rng = np.random.default_rng(n)
            pts = rng.normal(size=(n, 3))
            for rule in RULES:
                ref = build_kdtree(pts, rule)
                assert (ref.left[ref.subtree_size == 2] < 0).all()
                assert_same_tree(ref, vectorized_build_kdtree(pts, rule))

    def test_negative_zero_ties_with_zero(self):
        pts = np.array([[-0.0, 1, 0], [0.0, 2, 0], [-0.0, 3, 0]])
        assert_same_tree(build_kdtree(pts), vectorized_build_kdtree(pts))

    def test_stable_fallback_path_identical(self, monkeypatch):
        # Force the overflow guard so the kind="stable" branch (huge-n
        # fallback) is exercised on a testable size.
        monkeypatch.setattr(tb, "_FUSED_KEY_LIMIT", 0)
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 5, size=(200, 3)).astype(float)
        for rule in RULES:
            assert_same_tree(
                build_kdtree(pts, rule), vectorized_build_kdtree(pts, rule)
            )

    def test_error_parity(self):
        for bad in (np.empty((0, 3)), np.zeros((4, 2))):
            with pytest.raises(ValueError):
                vectorized_build_kdtree(bad)
        with pytest.raises(ValueError):
            vectorized_build_kdtree(np.zeros((4, 3)), split_rule="bogus")

    def test_result_validates(self):
        tree = vectorized_build_kdtree(np.random.default_rng(0).normal(size=(500, 3)))
        tree.validate()


class TestForestEquivalence:
    """``vectorized_build_forest`` builds every cloud in one level loop;
    each tree must equal the frozen per-node build of its cloud alone."""

    def _random_cloud(self, rng):
        n = int(rng.choice([1, 2, 3, int(rng.integers(4, 64)), int(rng.integers(64, 401))]))
        kind = CLOUD_KINDS[int(rng.integers(0, len(CLOUD_KINDS)))]
        return cloud(kind, n, rng)

    @pytest.mark.parametrize("rule", RULES)
    def test_randomized_forests_match_each_cloud_alone(self, rule):
        rng = np.random.default_rng(20261017)
        sizes = set()
        for _ in range(40):
            clouds = [self._random_cloud(rng) for _ in range(int(rng.integers(1, 9)))]
            if rng.integers(0, 4) == 0:
                clouds.append(clouds[0].copy())  # the same cloud twice
            forest = tb.vectorized_build_forest(clouds, rule)
            assert len(forest) == len(clouds)
            for points, tree in zip(clouds, forest):
                sizes.add(len(points))
                assert_same_tree(build_kdtree(points, rule), tree)
                np.testing.assert_array_equal(tree.points, points)
        assert {1, 2, 3} <= sizes and max(sizes) > 300

    def test_tiny_and_duplicate_clouds_in_one_forest(self):
        clouds = [
            np.zeros((1, 3)),
            np.array([[0.0, 1, 0], [0.0, 1, 0]]),
            np.array([[1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]]),
            np.ones((17, 3)) * 2.5,
            np.array([[1.0, 9, 0], [1.0, 3, 0], [2.0, 5, 0], [1.0, 7, 0], [0.0, 1, 0]]),
        ]
        for rule in RULES:
            for tree, points in zip(tb.vectorized_build_forest(clouds, rule), clouds):
                assert_same_tree(build_kdtree(points, rule), tree)
        assert tb.vectorized_build_forest([]) == []

    def test_stable_fallback_path_identical(self, monkeypatch):
        monkeypatch.setattr(tb, "_FUSED_KEY_LIMIT", 0)
        rng = np.random.default_rng(12)
        clouds = [rng.integers(0, 5, size=(n, 3)).astype(float) for n in (200, 3, 77)]
        for rule in RULES:
            for tree, points in zip(tb.vectorized_build_forest(clouds, rule), clouds):
                assert_same_tree(build_kdtree(points, rule), tree)

    def test_error_parity(self):
        # The messages the single-cloud builders raise, from any position
        # of a forest.
        good = np.zeros((4, 3))
        for bad in (np.empty((0, 3)), np.zeros((4, 2)), np.zeros(3)):
            with pytest.raises(ValueError) as single:
                build_kdtree(bad)
            with pytest.raises(ValueError) as forest:
                tb.vectorized_build_forest([good, bad])
            assert str(forest.value) == str(single.value)
        with pytest.raises(ValueError, match="unknown split_rule"):
            tb.vectorized_build_forest([good], split_rule="bogus")


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31),
    rule=st.sampled_from(RULES),
)
def test_property_bit_identical(n, seed, rule):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    assert_same_tree(build_kdtree(pts, rule), vectorized_build_kdtree(pts, rule))


class TestEulerTour:
    def test_matches_reference_walk(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 9, 64, 257):
            pts = rng.integers(0, 4, size=(n, 3)).astype(float)
            ref = build_kdtree(pts)
            ref._ensure_euler()
            fast = vectorized_build_kdtree(pts)
            tin, tout = euler_tour(fast)
            np.testing.assert_array_equal(ref.tin, tin)
            np.testing.assert_array_equal(ref.tout, tout)

    def test_caches_onto_tree(self):
        tree = vectorized_build_kdtree(np.random.default_rng(0).normal(size=(20, 3)))
        tin, tout = euler_tour(tree)
        assert tree.tin is tin and tree.tout is tout
        tin2, _ = euler_tour(tree)
        assert tin2 is tin

    def test_respects_existing_cache(self):
        tree = build_kdtree(np.random.default_rng(0).normal(size=(20, 3)))
        tree._ensure_euler()
        tin, _ = euler_tour(tree)
        assert tin is tree.tin


class TestSplitTreeEquivalence:
    def _pair(self, n, seed, kind="normal"):
        rng = np.random.default_rng(seed)
        pts = cloud(kind, n, rng)
        return build_kdtree(pts), vectorized_build_kdtree(pts), rng

    @pytest.mark.parametrize("kind", CLOUD_KINDS)
    def test_layout_identical(self, kind):
        ref_tree, fast_tree, rng = self._pair(200, 8, kind)
        for top_height in (0, 1, 3, ref_tree.height - 1):
            ref = SplitTree(ref_tree, top_height)
            fast = VectorizedSplitTree(fast_tree, top_height)
            np.testing.assert_array_equal(ref.top_nodes, fast.top_nodes)
            np.testing.assert_array_equal(ref.subtree_roots, fast.subtree_roots)
            assert ref.total_bytes == fast.total_bytes
            assert ref.top_tree_bytes() == fast.top_tree_bytes()
            assert ref.max_subtree_nodes() == fast.max_subtree_nodes()
            assert ref._subtree_base == fast._subtree_base
            for node in range(ref_tree.num_nodes):
                assert ref.dram_address_of(node) == fast.dram_address_of(node)
            for root in ref.subtree_roots:
                np.testing.assert_array_equal(
                    ref.subtree_nodes(int(root)), fast.subtree_nodes(int(root))
                )
                assert ref.subtree_bytes(int(root)) == fast.subtree_bytes(int(root))

    def test_parked_root_subtree_extraction(self):
        # subtree_nodes must serve nodes *above* the sub-tree level too
        # (short-branch descents park there); the reference walks the
        # tree on demand, the fast path slices the preorder permutation.
        ref_tree, fast_tree, rng = self._pair(150, 9)
        ref = SplitTree(ref_tree, 2)
        fast = VectorizedSplitTree(fast_tree, 2)
        for node in rng.integers(0, ref_tree.num_nodes, size=16):
            np.testing.assert_array_equal(
                ref.subtree_nodes(int(node)), fast.subtree_nodes(int(node))
            )

    def test_routing_and_occupancy_identical(self):
        ref_tree, fast_tree, rng = self._pair(180, 10)
        queries = rng.normal(size=(64, 3))
        for top_height in (0, 2, 4):
            ref = SplitTree(ref_tree, top_height)
            fast = VectorizedSplitTree(fast_tree, top_height)
            np.testing.assert_array_equal(
                ref.route_queries(queries), fast.route_queries(queries)
            )
            ref_occ = ref.queue_occupancy(queries)
            fast_occ = fast.queue_occupancy(queries)
            assert ref_occ == fast_occ
            # Same insertion order too: DRAM streaming iterates the dict.
            assert list(ref_occ) == list(fast_occ)

    def test_constructor_error_parity(self):
        tree = vectorized_build_kdtree(np.random.default_rng(0).normal(size=(15, 3)))
        for bad in (-1, tree.height, tree.height + 3):
            with pytest.raises(ValueError):
                VectorizedSplitTree(tree, bad)
            with pytest.raises(ValueError):
                SplitTree(tree, bad)


class TestSessionRouting:
    def test_session_builds_what_the_oracles_build(self):
        session = SearchSession()
        pts = np.random.default_rng(1).normal(size=(40, 3))
        tree = session.tree_for(pts)
        assert_same_tree(build_kdtree(pts), tree)
        split = session.split_tree_for(tree, 2)
        assert isinstance(split, VectorizedSplitTree)
        ref = SplitTree(build_kdtree(pts), 2)
        assert split.total_bytes == ref.total_bytes
        for node in range(tree.num_nodes):
            assert split.dram_address_of(node) == ref.dram_address_of(node)

    def test_trees_still_cached(self):
        session = SearchSession()
        pts = np.random.default_rng(3).normal(size=(40, 3))
        assert session.tree_for(pts) is session.tree_for(pts)
        tree = session.tree_for(pts)
        assert session.split_tree_for(tree, 1) is session.split_tree_for(tree, 1)

    def test_session_matches_reference_ball_query(self):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 6, size=(120, 3)).astype(float)
        queries = rng.normal(size=(16, 3)) * 2
        fast = ApproximationPipeline(session=SearchSession()).query_with_counts(
            pts, queries, 1.5, 8, ApproxSetting(0, None), cache_key="grid"
        )
        ref = ball_query(build_kdtree(pts), queries, 1.5, 8)
        np.testing.assert_array_equal(fast[0], ref[0])
        np.testing.assert_array_equal(fast[1], ref[1])
