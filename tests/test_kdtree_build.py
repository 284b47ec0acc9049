"""Unit and property tests for K-d tree construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree import KdTree, build_kdtree


def random_points(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3))


class TestBuild:
    def test_single_point(self):
        tree = build_kdtree(np.array([[1.0, 2.0, 3.0]]))
        assert tree.num_nodes == 1
        assert tree.height == 1
        assert tree.children(0) == (-1, -1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_kdtree(np.empty((0, 3)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_kdtree(np.zeros((4, 2)))

    def test_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            build_kdtree(random_points(4), split_rule="median-of-medians")

    def test_balanced_height(self):
        for n in (1, 2, 3, 7, 8, 100, 255, 256):
            tree = build_kdtree(random_points(n, seed=n))
            expected = int(np.ceil(np.log2(n + 1)))
            assert tree.height == expected, f"n={n}"

    def test_all_points_present_once(self):
        tree = build_kdtree(random_points(73))
        assert sorted(tree.point_id.tolist()) == list(range(73))

    def test_level_order_numbering(self):
        tree = build_kdtree(random_points(64))
        # Level-order: depth is non-decreasing with node id.
        assert (np.diff(tree.depth) >= 0).all()

    def test_root_subtree_is_whole_tree(self):
        tree = build_kdtree(random_points(50))
        assert tree.subtree_size[0] == 50
        assert len(tree.subtree_nodes(0)) == 50

    def test_invariants_validate(self):
        tree = build_kdtree(random_points(128, seed=5))
        tree.validate()

    def test_cycle_rule_dims(self):
        tree = build_kdtree(random_points(15), split_rule="cycle")
        for node in range(tree.num_nodes):
            assert tree.split_dim[node] == tree.depth[node] % 3

    def test_nodes_at_depth(self):
        tree = build_kdtree(random_points(15))
        # 15 points build a perfect tree: 1, 2, 4, 8 nodes per level.
        assert np.bincount(tree.depth).tolist() == [1, 2, 4, 8]

    def test_duplicate_points_ok(self):
        pts = np.zeros((9, 3))
        tree = build_kdtree(pts)
        tree.validate()
        assert tree.num_nodes == 9


class TestValidate:
    """The Euler-interval rewrite of ``validate`` (the old per-node
    subtree walks were O(N^2)) must still catch every corruption class."""

    def _tree(self, n=64, seed=7):
        return build_kdtree(random_points(n, seed=seed))

    def test_full_size_tree_is_fast(self):
        # ~10k nodes took minutes under the quadratic walk; now trivial.
        build_kdtree(random_points(10_000, seed=1)).validate()

    def test_detects_duplicated_point_id(self):
        tree = self._tree()
        tree.point_id[0] = tree.point_id[1]
        with pytest.raises(AssertionError):
            tree.validate()

    def test_detects_wrong_depth(self):
        tree = self._tree()
        tree.depth[tree.left[0]] += 1
        with pytest.raises(AssertionError):
            tree.validate()

    def test_detects_wrong_subtree_size(self):
        tree = self._tree()
        tree.subtree_size[0] -= 1
        with pytest.raises(AssertionError):
            tree.validate()

    def test_detects_split_plane_violation(self):
        tree = self._tree()
        node = 0
        assert tree.left[node] >= 0 and tree.right[node] >= 0
        tree.split_dim[node] = (tree.split_dim[node] + 1) % 3
        with pytest.raises(AssertionError):
            tree.validate()

    def test_detects_shared_child(self):
        tree = self._tree()
        leaves = np.nonzero((tree.left < 0) & (tree.right < 0))[0]
        tree.left[leaves[0]] = tree.root
        with pytest.raises(AssertionError):
            tree.validate()

    def test_does_not_pollute_euler_cache(self):
        tree = self._tree()
        tree.validate()
        assert tree.tin is None and tree.tout is None


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=512),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_structural_invariants(n, seed):
    """Any random cloud builds a valid, balanced tree containing all points."""
    tree = build_kdtree(random_points(n, seed=seed))
    tree.validate()
    assert tree.height == int(np.ceil(np.log2(n + 1)))
