"""Tests for the step-wise traversal machines (TopTreeDescent, SubtreeSearch)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree import (
    SubtreeSearch,
    TopTreeDescent,
    TraversalStats,
    build_kdtree,
    radius_search,
)


def tree_of(n=127, seed=0):
    return build_kdtree(np.random.default_rng(seed).normal(size=(n, 3)))


class TestTopTreeDescent:
    def test_zero_height_is_immediately_done(self):
        tree = tree_of()
        d = TopTreeDescent(tree, np.zeros(3), 0.5, top_height=0)
        assert d.done
        assert d.assigned_root == tree.root
        assert d.peek() == -1

    def test_descends_to_requested_depth(self):
        tree = tree_of()
        d = TopTreeDescent(tree, np.zeros(3), 0.5, top_height=3)
        steps = 0
        while not d.done:
            d.advance()
            steps += 1
        assert steps == 3
        assert tree.depth[d.assigned_root] == 3

    def test_advance_after_done_raises(self):
        tree = tree_of()
        d = TopTreeDescent(tree, np.zeros(3), 0.5, top_height=0)
        with pytest.raises(RuntimeError):
            d.advance()

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            TopTreeDescent(tree_of(), np.zeros(3), 0.5, top_height=-1)

    def test_collects_top_tree_hits(self):
        tree = tree_of(seed=3)
        # Query at the root's point: the root is within any radius.
        q = tree.node_point(tree.root)
        d = TopTreeDescent(tree, q, 0.5, top_height=2)
        while not d.done:
            d.advance()
        assert int(tree.point_id[tree.root]) in d.hits

    def test_stats_count_visits(self):
        tree = tree_of()
        stats = TraversalStats()
        d = TopTreeDescent(tree, np.ones(3), 0.5, top_height=4, stats=stats)
        while not d.done:
            d.advance()
        assert stats.nodes_visited == 4
        assert stats.queries == 1


class TestSubtreeSearch:
    def test_full_tree_matches_radius_search(self):
        tree = tree_of(seed=4)
        q = np.random.default_rng(5).normal(size=3)
        machine = SubtreeSearch(tree, q, 0.6, root=tree.root)
        hits = machine.run_to_completion()
        want = radius_search(tree, q, 0.6)
        assert sorted(hits) == sorted(want)

    def test_restricted_to_subtree(self):
        tree = tree_of(seed=6)
        sub_root = int(tree.left[tree.root])
        members = set(
            int(tree.point_id[n]) for n in tree.subtree_nodes(sub_root)
        )
        q = np.random.default_rng(7).normal(size=3)
        machine = SubtreeSearch(tree, q, 5.0, root=sub_root)
        hits = machine.run_to_completion()
        assert set(hits) <= members

    def test_max_neighbors_stops_early(self):
        tree = tree_of(seed=8)
        q = tree.points.mean(axis=0)
        machine = SubtreeSearch(tree, q, 10.0, root=tree.root, max_neighbors=3)
        hits = machine.run_to_completion()
        assert len(hits) == 3
        assert machine.done

    def test_zero_budget_is_done(self):
        tree = tree_of()
        machine = SubtreeSearch(tree, np.zeros(3), 1.0, root=tree.root, max_neighbors=0)
        assert machine.done

    def test_negative_root_is_done(self):
        tree = tree_of()
        machine = SubtreeSearch(tree, np.zeros(3), 1.0, root=-1)
        assert machine.done

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            SubtreeSearch(tree_of(), np.zeros(3), 0.0, root=0)

    def test_advance_when_done_raises(self):
        tree = tree_of()
        machine = SubtreeSearch(tree, np.zeros(3), 1.0, root=-1)
        with pytest.raises(RuntimeError):
            machine.advance()

    def test_elide_above_height_raises(self):
        tree = tree_of(seed=9)
        machine = SubtreeSearch(
            tree, np.zeros(3), 1.0, root=tree.root, elide_depth=5
        )
        # Root is at depth 0 < 5: eliding it must be rejected (stall case).
        with pytest.raises(RuntimeError):
            machine.advance(elide=True)

    def test_elide_skips_subtree(self):
        tree = tree_of(seed=10)
        machine = SubtreeSearch(
            tree, np.zeros(3), 10.0, root=tree.root, elide_depth=0
        )
        machine.advance(elide=True)
        assert machine.done
        assert machine.stats.nodes_skipped == tree.num_nodes
        assert machine.hits == []

    def test_would_elide_respects_height(self):
        tree = tree_of(seed=11)
        machine = SubtreeSearch(
            tree, np.zeros(3), 1.0, root=tree.root, elide_depth=2
        )
        assert not machine.would_elide(tree.root)
        deep = np.flatnonzero(tree.depth == 3)[0]
        assert machine.would_elide(int(deep))

    def test_no_elide_depth_never_elides(self):
        tree = tree_of(seed=12)
        machine = SubtreeSearch(tree, np.zeros(3), 1.0, root=tree.root)
        assert not machine.would_elide(tree.root)

    def test_trace_recording(self):
        tree = tree_of(seed=13)
        stats = TraversalStats()
        machine = SubtreeSearch(
            tree, np.zeros(3), 0.8, root=tree.root, stats=stats, record_trace=True
        )
        machine.run_to_completion()
        assert len(stats.visit_trace) == stats.nodes_visited


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31),
    radius=st.floats(min_value=0.1, max_value=2.0),
)
def test_property_machine_equals_functional_search(n, seed, radius):
    """Driving the machine to completion is bit-equal to radius_search."""
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    tree = build_kdtree(pts)
    q = np.random.default_rng(seed + 1).normal(size=3)
    machine = SubtreeSearch(tree, q, radius, root=tree.root)
    assert sorted(machine.run_to_completion()) == sorted(radius_search(tree, q, radius))
