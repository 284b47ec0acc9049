"""Tests for TraversalStats accounting."""

from repro.kdtree import TraversalStats


class TestTraversalStats:
    def test_defaults_zero(self):
        s = TraversalStats()
        assert s.nodes_visited == 0
        assert s.visit_trace == []

    def test_merge_accumulates(self):
        a = TraversalStats(nodes_visited=3, queries=1, visit_trace=[1, 2, 3])
        b = TraversalStats(nodes_visited=2, queries=1, visit_trace=[4, 5])
        a.merge(b)
        assert a.nodes_visited == 5
        assert a.queries == 2
        assert a.visit_trace == [1, 2, 3, 4, 5]

    def test_merge_returns_self(self):
        a = TraversalStats()
        assert a.merge(TraversalStats()) is a

    def test_independent_instances(self):
        a = TraversalStats()
        b = TraversalStats()
        a.visit_trace.append(1)
        assert b.visit_trace == []  # no shared default list
