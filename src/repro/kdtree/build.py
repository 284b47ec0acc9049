"""Array-based balanced K-d tree construction.

The tree follows the classic Bentley formulation the paper assumes: every
node stores one point; the splitting plane passes through that point along
the dimension of largest extent (cycling is also supported).  Nodes are
held in flat NumPy arrays — ``left``/``right`` child ids, split dimension,
and the id of the point stored at the node — which makes the tree directly
usable as the memory image the accelerator simulator streams from DRAM:
node ``i`` lives at byte address ``i * NODE_BYTES``.

The builder produces a *balanced* tree (median splits), so for ``n`` points
the height is ``ceil(log2(n + 1))``.  Balance matters to Crescent because
the top-tree height knob ``h_t`` carves the first ``h_t`` levels off this
tree; see :mod:`repro.core.split_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["KdTree", "build_kdtree", "NODE_BYTES"]

# One tree node in the accelerator's memory image: 3 float32 coordinates,
# a packed split-dimension/point-id word, and two child pointers = 24 bytes.
NODE_BYTES = 24


@dataclass
class KdTree:
    """A balanced K-d tree over an ``(N, 3)`` point array.

    Attributes
    ----------
    points:
        The original point coordinates (never reordered).
    point_id:
        ``point_id[i]`` is the index into ``points`` of the point stored at
        node ``i``.
    split_dim:
        Splitting dimension (0/1/2) of node ``i``.
    left, right:
        Child node ids, ``-1`` when absent.
    depth:
        Depth of node ``i`` (root = 0).
    subtree_size:
        Number of nodes in the subtree rooted at ``i`` (including ``i``).
    tin, tout:
        Preorder entry/exit indices (Euler intervals): ``b`` lies in the
        subtree of ``a`` iff ``tin[a] <= tin[b] < tout[a]``.  Computed
        lazily by :meth:`is_descendant`.
    root:
        Node id of the root (always 0 for non-empty trees).
    """

    points: np.ndarray
    point_id: np.ndarray
    split_dim: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray
    subtree_size: np.ndarray
    root: int = 0
    tin: Optional[np.ndarray] = None
    tout: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return len(self.point_id)

    @property
    def height(self) -> int:
        """Number of levels (a single-node tree has height 1)."""
        if self.num_nodes == 0:
            return 0
        return int(self.depth.max()) + 1

    def node_point(self, node: int) -> np.ndarray:
        """Coordinates of the point stored at ``node``."""
        return self.points[self.point_id[node]]

    def children(self, node: int) -> Tuple[int, int]:
        return int(self.left[node]), int(self.right[node])

    def subtree_nodes(self, node: int) -> np.ndarray:
        """All node ids in the subtree rooted at ``node`` (preorder)."""
        out: List[int] = []
        stack = [int(node)]
        while stack:
            cur = stack.pop()
            if cur < 0:
                continue
            out.append(cur)
            stack.append(int(self.right[cur]))
            stack.append(int(self.left[cur]))
        return np.asarray(out, dtype=np.int64)

    def _ensure_euler(self) -> None:
        if self.tin is not None:
            return
        n = self.num_nodes
        tin = np.zeros(n, dtype=np.int64)
        tout = np.zeros(n, dtype=np.int64)
        clock = 0
        stack = [(int(self.root), False)]
        while stack:
            node, leaving = stack.pop()
            if leaving:
                tout[node] = clock
                continue
            tin[node] = clock
            clock += 1
            stack.append((node, True))
            for child in (int(self.right[node]), int(self.left[node])):
                if child >= 0:
                    stack.append((child, False))
        self.tin = tin
        self.tout = tout

    def is_descendant(self, node: int, ancestor: int) -> bool:
        """True iff ``node`` lies in the subtree rooted at ``ancestor``.

        Used by the descend-on-conflict elision policy (the optimization
        the paper sketches in Sec. 4.2): a PE that lost arbitration may
        safely continue from the winner's node when that node is beneath
        the one it requested.
        """
        self._ensure_euler()
        return bool(
            self.tin[ancestor] <= self.tin[node] < self.tout[ancestor]
        )

    def validate(self) -> None:
        """Check the structural invariants; raise ``AssertionError`` if broken.

        Used by the property-based tests: every point appears at exactly one
        node, children respect the splitting plane, and depths/sizes are
        consistent.  The checks are expressed over Euler intervals — a
        child's preorder interval is exactly its descendant set, so each
        level's split planes are verified with one segmented min/max —
        which keeps validation O(N log N) instead of the per-node subtree
        walks (O(N^2) Python) that used to make full-size property tests
        unaffordable.
        """
        n = self.num_nodes
        assert sorted(self.point_id.tolist()) == list(range(n))
        nodes = np.arange(n)
        l, r = self.left, self.right
        has_l, has_r = l >= 0, r >= 0
        assert (self.depth[l[has_l]] == self.depth[nodes[has_l]] + 1).all()
        assert (self.depth[r[has_r]] == self.depth[nodes[has_r]] + 1).all()
        # Leaves pin size 1, so the recurrence pins every size bottom-up.
        expected_size = (
            1
            + np.where(has_l, self.subtree_size[np.where(has_l, l, 0)], 0)
            + np.where(has_r, self.subtree_size[np.where(has_r, r, 0)], 0)
        )
        assert (self.subtree_size == expected_size).all()

        # With sizes validated the Euler intervals are well-defined:
        # a left child enters right after its parent, a right child after
        # the whole left subtree.  (Computed locally: this must not mutate
        # the lazy tin/tout cache of a tree that fails validation.)
        tin = np.zeros(n, dtype=np.int64)
        by_depth = np.argsort(self.depth, kind="stable")
        height = int(self.depth[by_depth[-1]]) + 1
        level_starts = np.searchsorted(self.depth[by_depth], np.arange(height + 1))
        for d in range(height - 1):
            level = by_depth[level_starts[d] : level_starts[d + 1]]
            cl, cr = l[level], r[level]
            chl, chr = cl >= 0, cr >= 0
            tin[cl[chl]] = tin[level[chl]] + 1
            right_base = (
                tin[level]
                + 1
                + np.where(chl, self.subtree_size[np.where(chl, cl, 0)], 0)
            )
            tin[cr[chr]] = right_base[chr]
        tout = tin + self.subtree_size
        # Malformed wiring (e.g. a shared child) can push intervals out of
        # range; fail as an assertion, not an IndexError in reduceat.
        assert (tin >= 0).all() and (tout <= n).all()
        pre_coords = self.points[self.point_id[np.argsort(tin)]]

        def interval_extrema(children: np.ndarray):
            """Per-child (min, max) coordinates over its preorder interval.

            Children of one level have disjoint intervals; sorted by tin,
            the interleaved starts/ends feed a single reduceat per bound
            (odd slots are the gaps between intervals, discarded).
            """
            starts, ends = tin[children], tout[children]
            bounds = np.empty(2 * len(children), dtype=np.int64)
            bounds[0::2] = starts
            bounds[1::2] = ends
            if bounds[-1] == n:  # reduceat bounds must stay < n; the
                bounds = bounds[:-1]  # trailing slice runs to the end anyway
            mx = np.maximum.reduceat(pre_coords, bounds, axis=0)[0::2]
            mn = np.minimum.reduceat(pre_coords, bounds, axis=0)[0::2]
            return mn, mx

        for d in range(height - 1):
            level = by_depth[level_starts[d] : level_starts[d + 1]]
            for side, children_all in (("left", l[level]), ("right", r[level])):
                present = children_all >= 0
                parents = level[present]
                children = children_all[present]
                if not len(children):
                    continue
                by_tin = np.argsort(tin[children])
                parents, children = parents[by_tin], children[by_tin]
                mn, mx = interval_extrema(children)
                dims = self.split_dim[parents].astype(np.int64)
                vals = self.points[self.point_id[parents], dims]
                if side == "left":
                    sel = np.take_along_axis(mx, dims[:, None], axis=1)[:, 0]
                    assert (sel <= vals + 1e-12).all()
                else:
                    sel = np.take_along_axis(mn, dims[:, None], axis=1)[:, 0]
                    assert (sel >= vals - 1e-12).all()


def build_kdtree(points: np.ndarray, split_rule: str = "widest") -> KdTree:
    """Build a balanced K-d tree with median splits.

    Parameters
    ----------
    points:
        ``(N, 3)`` array, ``N >= 1``.
    split_rule:
        ``"widest"`` picks the dimension with the largest coordinate spread
        at each node (what point-cloud libraries use); ``"cycle"`` rotates
        x→y→z by depth (the textbook rule).

    Nodes are numbered in BFS (level) order: the root is node 0, all depth-1
    nodes follow, and so on.  Level order makes the top-tree of
    :mod:`repro.core.split_tree` a contiguous prefix of the memory image,
    which is what lets the hardware stream it from DRAM in one pass.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {points.shape}")
    n = len(points)
    if n == 0:
        raise ValueError("cannot build a K-d tree over zero points")
    if split_rule not in ("widest", "cycle"):
        raise ValueError(f"unknown split_rule {split_rule!r}")

    point_id = np.empty(n, dtype=np.int64)
    split_dim = np.zeros(n, dtype=np.int8)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int32)
    subtree_size = np.zeros(n, dtype=np.int64)

    # BFS construction: each work item is (candidate point ids, depth,
    # parent node id, is_left_child).  Assigning node ids in pop order
    # yields level-order numbering because the queue is FIFO.
    from collections import deque

    next_id = 0
    queue = deque()
    queue.append((np.arange(n, dtype=np.int64), 0, -1, False))
    while queue:
        ids, d, parent, is_left = queue.popleft()
        node = next_id
        next_id += 1
        sub = points[ids]
        if split_rule == "widest" and len(ids) > 1:
            dim = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        elif split_rule == "widest":
            dim = 0
        else:
            dim = d % 3
        order = np.argsort(sub[:, dim], kind="stable")
        median = (len(ids) - 1) // 2
        ids_sorted = ids[order]

        point_id[node] = ids_sorted[median]
        split_dim[node] = dim
        depth[node] = d
        subtree_size[node] = len(ids)
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node
        left_ids = ids_sorted[:median]
        right_ids = ids_sorted[median + 1 :]
        if len(left_ids):
            queue.append((left_ids, d + 1, node, True))
        if len(right_ids):
            queue.append((right_ids, d + 1, node, False))

    return KdTree(
        points=points,
        point_id=point_id,
        split_dim=split_dim,
        left=left,
        right=right,
        depth=depth,
        subtree_size=subtree_size,
    )
