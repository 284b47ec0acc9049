"""Traversal statistics collected by every search implementation.

The paper's evaluation is largely expressed in these counters: tree nodes
visited per query (Fig. 8, Fig. 24a), nodes skipped by conflict elision
(Fig. 9, Fig. 17), and the visit trace used to derive DRAM/SRAM access
streams (Fig. 2–5).  Keeping them in one dataclass lets the exact search,
the split-tree search, and the cycle-level engine report comparable
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["TraversalStats"]


@dataclass
class TraversalStats:
    """Counters for one search run (one query or an aggregated batch).

    Attributes
    ----------
    nodes_visited:
        Tree nodes whose point was actually fetched and distance-tested.
    nodes_skipped:
        Nodes dropped because a bank conflict was elided (the node and its
        entire subtree are never traversed).
    nodes_pruned:
        Subtrees skipped by the ordinary K-d bounding-plane test.  These are
        *algorithmic* skips, free of accuracy cost, unlike ``nodes_skipped``.
    stack_pushes / stack_pops:
        Traversal stack operations (the PE's RS/US pipeline stages).
    neighbors_found:
        Total neighbors returned.
    visit_trace:
        Node ids in visit order; consumed by the memory-trace generators.
        Collection can be disabled (``record_trace=False`` in the searchers)
        to keep large batch runs cheap.
    """

    nodes_visited: int = 0
    nodes_skipped: int = 0
    nodes_pruned: int = 0
    stack_pushes: int = 0
    stack_pops: int = 0
    neighbors_found: int = 0
    queries: int = 0
    visit_trace: List[int] = field(default_factory=list)

    def merge(self, other: "TraversalStats") -> "TraversalStats":
        """Accumulate ``other`` into this object (in place) and return self."""
        self.nodes_visited += other.nodes_visited
        self.nodes_skipped += other.nodes_skipped
        self.nodes_pruned += other.nodes_pruned
        self.stack_pushes += other.stack_pushes
        self.stack_pops += other.stack_pops
        self.neighbors_found += other.neighbors_found
        self.queries += other.queries
        self.visit_trace.extend(other.visit_trace)
        return self
