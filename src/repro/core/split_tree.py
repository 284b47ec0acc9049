"""The two-level split-tree structure (paper Sec. 3.1, Fig. 6).

A :class:`SplitTree` is a view over a balanced :class:`~repro.kdtree.KdTree`
that carves the first ``h_t`` levels into a *top tree* whose leaves are the
roots of *sub-trees*.  The search then proceeds in two serialized phases:

1. every query descends the top tree (no backtracking) and is appended to
   the queue of the sub-tree it lands in;
2. each sub-tree is loaded on-chip once, and its queued queries search it
   with ordinary K-d traversal, backtracking *limited to the sub-tree*.

The class also defines Crescent's DRAM layout (Fig. 7, right panel): the
top tree first, then each sub-tree as a contiguous block, so both phases
stream from DRAM.  :meth:`dram_address_of` maps a node to that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..kdtree.build import NODE_BYTES, KdTree

__all__ = ["SplitTree", "descend_step"]


def descend_step(
    tree: KdTree, queries: np.ndarray, current: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One level of vectorized BST descent for ``queries`` at ``current``.

    Returns ``(nxt, parked)``: the near child per query (falling back to
    the sibling on a short branch) and a mask of queries whose node has no
    children at all — *parked* queries, which every descent consumer must
    stop advancing (and fetching/testing) rather than re-visit the same
    leaf each remaining level.  Shared by the functional phase-1 descent,
    :meth:`SplitTree.route_queries`, and the engine's top-phase cycle
    model so their routing and node accounting cannot drift apart.
    """
    rows = np.arange(len(current))
    pts = tree.points[tree.point_id[current]]
    dims = tree.split_dim[current]
    go_left = queries[rows, dims] <= pts[rows, dims]
    nxt = np.where(go_left, tree.left[current], tree.right[current])
    missing = nxt < 0
    if missing.any():
        alt = np.where(go_left, tree.right[current], tree.left[current])
        nxt = np.where(missing, alt, nxt)
    return nxt.astype(np.int64), nxt < 0


class SplitTree:
    """A K-d tree partitioned into a top tree plus sub-trees.

    Parameters
    ----------
    tree:
        The underlying balanced K-d tree (level-order numbered).
    top_height:
        ``h_t``.  0 means "no split": the whole tree is a single sub-tree
        rooted at the root, and phase 1 is a no-op.  Must be less than the
        tree height.
    """

    def __init__(self, tree: KdTree, top_height: int):
        if top_height < 0:
            raise ValueError("top_height must be non-negative")
        if top_height >= tree.height:
            raise ValueError(
                f"top_height {top_height} must be < tree height {tree.height}"
            )
        self.tree = tree
        self.top_height = top_height
        # Level-order numbering ⇒ the top tree is the contiguous id prefix
        # [0, first_subtree_node).
        if top_height == 0:
            self._top_nodes = np.empty(0, dtype=np.int64)
            self.subtree_roots = np.array([tree.root], dtype=np.int64)
        else:
            self._top_nodes = np.nonzero(tree.depth < top_height)[0]
            self.subtree_roots = np.nonzero(tree.depth == top_height)[0]
        # Contiguous DRAM layout: top tree first, then each sub-tree block.
        self._address: Dict[int, int] = {}
        offset = 0
        for nid in self._top_nodes:
            self._address[int(nid)] = offset
            offset += NODE_BYTES
        self._subtree_base: Dict[int, int] = {}
        self._subtree_nodes: Dict[int, np.ndarray] = {}
        for root in self.subtree_roots:
            nodes = tree.subtree_nodes(int(root))
            self._subtree_base[int(root)] = offset
            self._subtree_nodes[int(root)] = nodes
            for nid in nodes:
                self._address[int(nid)] = offset
                offset += NODE_BYTES
        self._total_bytes = offset

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def top_nodes(self) -> np.ndarray:
        """Node ids in the top tree (empty when ``top_height == 0``)."""
        return self._top_nodes

    def subtree_nodes(self, root: int) -> np.ndarray:
        """All node ids of the sub-tree rooted at ``root`` (preorder).

        ``root`` is normally one of :attr:`subtree_roots`, but unbalanced
        short branches can route a query to a node *above* the sub-tree
        level (the descent runs out of children early); those are computed
        on demand.
        """
        nodes = self._subtree_nodes.get(int(root))
        if nodes is None:
            nodes = self.tree.subtree_nodes(int(root))
        return nodes

    def subtree_size(self, root: int) -> int:
        return int(self.tree.subtree_size[int(root)])

    def top_tree_bytes(self) -> int:
        return len(self._top_nodes) * NODE_BYTES

    def subtree_bytes(self, root: int) -> int:
        return self.subtree_size(root) * NODE_BYTES

    @property
    def total_bytes(self) -> int:
        """Size of the whole split-tree memory image."""
        return self._total_bytes

    # ------------------------------------------------------------------
    # Memory layout
    # ------------------------------------------------------------------
    def dram_address_of(self, node: int) -> int:
        """Byte address of ``node`` in the split-tree DRAM image."""
        return self._address[int(node)]

    # ------------------------------------------------------------------
    # Query routing (phase 1, vectorized functional form)
    # ------------------------------------------------------------------
    def route_queries(self, queries: np.ndarray) -> np.ndarray:
        """Assign each query to a sub-tree root by pure BST descent.

        Vectorized equivalent of running
        :class:`~repro.kdtree.TopTreeDescent` for every query while
        ignoring top-tree point hits (those are handled by the searchers).
        Returns the sub-tree root node id per query.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = len(queries)
        current = np.full(n, self.tree.root, dtype=np.int64)
        if self.top_height == 0:
            return current
        for _ in range(self.top_height):
            nxt, parked = descend_step(self.tree, queries, current)
            # Parked queries (childless node before the sub-tree level)
            # stay where they are.
            current = np.where(parked, current, nxt)
        return current

    def queue_occupancy(self, queries: np.ndarray) -> Dict[int, int]:
        """Queries routed to each sub-tree (the per-sub-tree queue lengths)."""
        roots = self.route_queries(queries)
        uniq, counts = np.unique(roots, return_counts=True)
        occ = {int(r): 0 for r in self.subtree_roots}
        for r, c in zip(uniq, counts):
            occ[int(r)] = int(c)
        return occ
