"""Unit tests for the split-tree structure and configs."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproxSetting, CrescentHardwareConfig, SplitTree, valid_top_heights
from repro.kdtree import NODE_BYTES, build_kdtree


def tree_of(n, seed=0):
    return build_kdtree(np.random.default_rng(seed).normal(size=(n, 3)))


class TestApproxSetting:
    def test_defaults_are_exact(self):
        s = ApproxSetting()
        assert not s.uses_split_tree
        assert not s.uses_elision

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxSetting(top_height=-1)
        with pytest.raises(ValueError):
            ApproxSetting(elision_height=-2)

    def test_scaled_to_clamps(self):
        s = ApproxSetting(top_height=10, elision_height=20).scaled_to(6)
        assert s.top_height == 5
        assert s.elision_height == 6

    def test_scaled_keeps_none_elision(self):
        s = ApproxSetting(top_height=2).scaled_to(8)
        assert s.elision_height is None

    def test_pickle_round_trip(self):
        # A setting is a plain value a caller may ship to its own worker
        # processes as a sweep axis: it must survive pickling intact.
        s = ApproxSetting(2, 4)
        assert pickle.loads(pickle.dumps(s)) == s


class TestValidTopHeights:
    def test_paper_equations(self):
        # S = 63 nodes holds a top tree of height <= 6 (2^6-1=63) and
        # requires 2^(H-ht+1)-1 <= 63, i.e. ht >= H - 5.
        lo, hi = valid_top_heights(tree_height=10, tree_buffer_nodes=63)
        assert hi == 6
        assert lo == 10 + 1 - 6

    def test_small_buffer_infeasible(self):
        lo, hi = valid_top_heights(tree_height=20, tree_buffer_nodes=7)
        assert lo > hi  # no feasible split: recursion would be needed

    def test_validation(self):
        with pytest.raises(ValueError):
            valid_top_heights(0, 10)
        with pytest.raises(ValueError):
            valid_top_heights(5, 0)


class TestHardwareConfig:
    def test_paper_defaults(self):
        hw = CrescentHardwareConfig()
        assert hw.num_pes == 4
        assert hw.tree_buffer.size_bytes == 6 * 1024
        assert hw.tree_buffer.num_banks == 4
        assert hw.point_buffer.num_banks == 16
        assert hw.tree_buffer_nodes == 6 * 1024 // NODE_BYTES

    def test_with_overrides(self):
        hw = CrescentHardwareConfig().with_overrides(num_pes=8)
        assert hw.num_pes == 8
        assert CrescentHardwareConfig().num_pes == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            CrescentHardwareConfig(num_pes=0)


class TestSplitTree:
    def test_zero_height_is_single_subtree(self):
        tree = tree_of(31)
        split = SplitTree(tree, 0)
        assert len(split.subtree_roots) == 1
        assert split.subtree_roots.tolist() == [tree.root]
        assert split.top_nodes.size == 0

    def test_rejects_too_tall(self):
        tree = tree_of(7)  # height 3
        with pytest.raises(ValueError):
            SplitTree(tree, 3)

    def test_subtree_partition(self):
        tree = tree_of(63)  # perfect height-6 tree
        split = SplitTree(tree, 2)
        assert len(split.subtree_roots) == 4
        covered = set(split.top_nodes.tolist())
        for root in split.subtree_roots:
            covered.update(split.subtree_nodes(int(root)).tolist())
        assert covered == set(range(63))

    def test_memory_image_contiguous_and_complete(self):
        tree = tree_of(63)
        split = SplitTree(tree, 2)
        assert split.total_bytes == 63 * NODE_BYTES
        addrs = sorted(split.dram_address_of(n) for n in range(63))
        assert addrs == [i * NODE_BYTES for i in range(63)]
        # Top tree is the prefix of the image.
        for node in split.top_nodes:
            assert split.dram_address_of(int(node)) < split.top_tree_bytes()

    def test_subtree_block_contiguous(self):
        tree = tree_of(63)
        split = SplitTree(tree, 3)
        for root in split.subtree_roots:
            nodes = split.subtree_nodes(int(root))
            addrs = [split.dram_address_of(int(n)) for n in nodes]
            assert addrs == list(range(addrs[0], addrs[0] + len(nodes) * NODE_BYTES, NODE_BYTES))

    def test_route_queries_lands_on_roots(self):
        tree = tree_of(127, seed=3)
        split = SplitTree(tree, 3)
        queries = np.random.default_rng(4).normal(size=(50, 3))
        roots = split.route_queries(queries)
        assert set(roots.tolist()) <= set(split.subtree_roots.tolist())

    def test_route_matches_descent_machine(self):
        from repro.kdtree import TopTreeDescent

        tree = tree_of(127, seed=5)
        split = SplitTree(tree, 3)
        queries = np.random.default_rng(6).normal(size=(20, 3))
        vec = split.route_queries(queries)
        for i, q in enumerate(queries):
            d = TopTreeDescent(tree, q, radius=0.5, top_height=3)
            while not d.done:
                d.advance()
            assert d.assigned_root == vec[i]

    def test_queue_occupancy_sums_to_queries(self):
        tree = tree_of(255, seed=7)
        split = SplitTree(tree, 4)
        queries = np.random.default_rng(8).normal(size=(64, 3))
        occ = split.queue_occupancy(queries)
        assert sum(occ.values()) == 64
        assert set(occ.keys()) == set(int(r) for r in split.subtree_roots)

    def test_max_subtree_shrinks_with_height(self):
        tree = tree_of(255, seed=9)
        sizes = [
            int(tree.subtree_size[SplitTree(tree, h).subtree_roots].max())
            for h in range(0, 5)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=200),
    h=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_split_partitions_nodes(n, h, seed):
    tree = tree_of(n, seed=seed)
    if h >= tree.height:
        return
    split = SplitTree(tree, h)
    covered = list(split.top_nodes.tolist())
    for root in split.subtree_roots:
        covered.extend(split.subtree_nodes(int(root)).tolist())
    assert sorted(covered) == list(range(n))
