"""Level-synchronous vectorized tree construction (the cold path).

:func:`repro.kdtree.build.build_kdtree` pops one deque entry per node —
~N Python iterations and N small ``argsort`` calls per cloud — and
:class:`~repro.core.split_tree.SplitTree` lays out its DRAM image through
per-node dict inserts plus a per-root Python stack walk.  Every *distinct*
cloud pays both on first contact (the all-distinct sharded serving trace,
``register()`` re-registration after a worker respawn, epoch
materialization over many clouds), which makes tree construction the
dominant cold-start cost now that every query engine is array code.

This module rebuilds both structures with **all nodes of a depth level in
one shot**, O(log N) NumPy passes total and no per-node Python:

- :func:`vectorized_build_forest` — any number of clouds in one level
  loop, each tree bit-identical to ``build_kdtree`` of its cloud alone
  (all six node arrays, the ``"widest"`` split rule every production
  build uses, including stable-argsort tie routing on duplicate
  coordinates), pinned by the randomized equivalence
  suites in ``tests/test_runtime_treebuild.py``.  Every batch caller —
  epoch materialization, a Fig. 14 suite, the serving flush — builds its
  cold clouds in one call (:meth:`~repro.runtime.SearchSession.trees_for`).
  A forest as big as one all-distinct flush's (8 x 4096 points) is split
  across the CPUs, since NumPy releases the GIL inside each large sort,
  gather and reduction; smaller ones stay on one loop.  Dynamic segment
  rebuilds and the figure drivers build one cloud per call — the
  one-cloud forest, also named :func:`vectorized_build_kdtree`.
- :class:`VectorizedSplitTree` — a :class:`SplitTree` with an identical
  DRAM layout (addresses, block order, totals) built from Euler-interval
  arithmetic (:func:`~repro.runtime.forest.euler_tour`) instead of
  per-node dict inserts.

Why bit-identity needs care: the reference sorts each node's candidate
list with a *stable* argsort, so ties on the split coordinate are routed
by the candidates' **incoming order**, which is itself the outcome of the
parent's stable sort — path-dependent, not original-index order.  The
level-synchronous builder therefore carries candidate lists through the
levels in exactly the reference's order and sorts each level with one
segmented stable sort.  Coordinates are replaced by dense ranks
(``np.unique`` inverse) once up front: equal coordinates get equal ranks,
so the segmented integer key ``segment * n_uniq + rank`` reproduces the
reference's comparisons exactly.  When the fused total-order key
``(key << b) | position`` fits in int64 (every realistic forest), an
in-place sort of its values is order-identical to the stable sort, and
its low ``b`` bits give the order to gather ids through — cheaper than
an indirect ``argsort``; otherwise we fall back to ``kind="stable"``.

The per-node reference paths stay frozen as ground truth (ROADMAP
standing constraint; `reference-freeze` lint rule): this module imports
*from* them, never the other way around.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Tuple

import numpy as np

from ..core.split_tree import SplitTree
from ..kdtree.build import NODE_BYTES, KdTree
from .forest import euler_tour

__all__ = [
    "VectorizedSplitTree",
    "vectorized_build_forest",
    "vectorized_build_kdtree",
]

# Above this, the fused sort key could overflow int64 and the segmented
# sort falls back to a stable argsort.  Reached only past ~1.6M points in
# one level loop (the key bound grows like 2 n^3).
_FUSED_KEY_LIMIT = 2**63 - 1

# Points per part below which splitting a forest across threads does not
# pay.  Two threads against one level loop on 2 vCPUs (best of 21): 8 x
# 4096 points (16k per part) 1.49x, 4 x 4096 and 2 x 8192 (8k) 1.11-1.13x,
# the Fig. 14 suite's 11 clouds (6k) 0.93x, 64 x 112 (3.6k, an epoch's)
# and 2 x 4096 (4k) 0.77x, 4 x 1024 (2k) 0.69x.
_SPLIT_FLOOR = 16_384


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _segment_sorted_ids(
    ids: np.ndarray,
    seg: np.ndarray,
    rank_vals: np.ndarray,
    num_segments: int,
    n_uniq: int,
) -> np.ndarray:
    """``ids`` stably sorted by ``(seg, rank_vals)``: the fused key
    ``((seg * n_uniq + rank) << b) | position`` sorted in place, then
    ``ids`` gathered through its low ``b`` bits; a stable argsort where
    that key could overflow int64."""
    m = len(ids)
    b = (m - 1).bit_length()
    key = seg * n_uniq
    key += rank_vals
    if ((num_segments * n_uniq) << b) - 1 > _FUSED_KEY_LIMIT:
        return ids[np.argsort(key, kind="stable")]
    key <<= b
    key |= np.arange(m, dtype=np.int64)
    key.sort()
    key &= (1 << b) - 1
    return ids[key]


def _balanced_spans(sizes: Sequence[int], parts: int) -> List[Tuple[int, int]]:
    """Cut ``len(sizes)`` clouds into ``parts`` contiguous, non-empty runs
    of near-equal point counts; ``[(lo, hi), ...]`` in input order."""
    ends = np.cumsum(sizes)
    cuts = [0]
    for k in range(1, parts):
        # The run boundary whose prefix is nearest k/parts of the points,
        # leaving every run at least one cloud.
        nearest = int(np.abs(ends - ends[-1] * k / parts).argmin()) + 1
        cuts.append(min(max(nearest, cuts[-1] + 1), len(sizes) - parts + k))
    cuts.append(len(sizes))
    return list(zip(cuts[:-1], cuts[1:]))


def vectorized_build_forest(clouds: Sequence[np.ndarray]) -> List[KdTree]:
    """Build ``build_kdtree(points)`` for every cloud, level at a time.

    One level loop serves a whole forest: the first level's segments are
    the clouds themselves, and every later level sorts the open segments of
    every tree with one segmented stable sort.  Bit-identical output
    contract, tree for tree: each returned tree's ``point_id`` /
    ``split_dim`` / ``left`` / ``right`` / ``depth`` / ``subtree_size``
    arrays (values *and* dtypes) match ``build_kdtree(points)`` (the
    ``"widest"`` split rule) of its cloud alone, on any input the reference
    accepts — including duplicate coordinates, where tie routing follows
    the reference's stable argsort.  Each tree's ``points`` is its cloud
    (no copy when it is already C-contiguous float64); its node arrays are
    slices of forest-wide arrays.

    Every cloud is checked before any work starts.  With ``min(CPUs
    available, clouds, points // _SPLIT_FLOOR)`` parts of 2 or more, the
    clouds are cut into contiguous runs balanced by point count; the caller
    builds one, a per-call thread each of the others, all joined before
    this returns (no pool outlives the call to meet the fork that starts a
    sharded worker).  Trees come back in input order.
    """
    arrays = []
    for points in clouds:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {points.shape}")
        if len(points) == 0:
            raise ValueError("cannot build a K-d tree over zero points")
        arrays.append(points)
    if not arrays:
        return []
    sizes = [len(points) for points in arrays]
    parts = min(_available_cpus(), len(arrays), sum(sizes) // _SPLIT_FLOOR)
    if parts < 2:
        return _level_loop(arrays)
    # Imported here: only a split build needs threads, and the thread pool
    # module would otherwise add to every process's start-up.
    from concurrent.futures import ThreadPoolExecutor

    spans = _balanced_spans(sizes, parts)
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        rest = [pool.submit(_level_loop, arrays[lo:hi]) for lo, hi in spans[1:]]
        lo, hi = spans[0]
        trees = _level_loop(arrays[lo:hi])
        for future in rest:
            trees += future.result()
    return trees


def _level_loop(arrays: List[np.ndarray]) -> List[KdTree]:
    """The level loop of :func:`vectorized_build_forest` over one or more
    checked clouds.

    Dense ranks are taken over the concatenation of the clouds; restricted
    to one cloud they order exactly as that cloud's own ranks would, so the
    segmented sort routes every tie as the per-cloud build does.  The
    segments of a level stay grouped by tree, in each tree's own queue
    order ("parent order, left child before right" — the reference's BFS
    pop order), so every tree numbers its level's nodes consecutively as
    the level is emitted: node ids come out in each tree's own level order
    without a renumbering pass.
    """
    sizes = np.array([len(points) for points in arrays], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    forest_points = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    # Every tree's nodes live in one slice of these arrays: tree t's node
    # i is slot ``offsets[t] + i``.  Points and child ids are written as
    # forest-wide slots and shifted to per-tree ids once at the end.
    point_id = np.empty(n, dtype=np.int64)
    split_dim = np.zeros(n, dtype=np.int8)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int32)
    subtree_size = np.zeros(n, dtype=np.int64)

    # Presort once per dimension: dense coordinate ranks.  A stable sort
    # by coordinate is a stable sort by dense rank (equal coordinates ⇒
    # equal ranks), and integer ranks compose into the segmented key.
    cols = [np.ascontiguousarray(forest_points[:, k]) for k in range(3)]
    ranks = np.empty((3, n), dtype=np.int64)
    n_uniq = 1
    for k in range(3):
        uniq, inv = np.unique(cols[k], return_inverse=True)
        ranks[k] = inv.reshape(-1)
        n_uniq = max(n_uniq, len(uniq))
    ranks_flat = ranks.reshape(-1)

    # Level state: the concatenated candidate lists of every open segment
    # (= node under construction), grouped by tree, in queue order; each
    # segment's length, start and node slot; and, per tree, the range
    # [tree_first, tree_end) of its segments on this level.
    ids = np.arange(n, dtype=np.int64)
    seg_len = sizes
    seg_start = offsets
    slot = offsets
    tree_first = np.arange(len(arrays), dtype=np.int64)
    tree_end = tree_first + 1
    d = 0
    while len(ids):
        m = len(ids)
        num_segments = len(seg_len)
        seg = np.repeat(np.arange(num_segments, dtype=np.int64), seg_len)

        # Largest-extent dim per segment.  np.argmax takes the lowest index
        # on ties, matching the reference; a 1-point segment has all-zero
        # extents ⇒ dim 0, matching its len==1 special case.
        extents = np.empty((num_segments, 3))
        for k in range(3):
            c = cols[k][ids]
            extents[:, k] = np.maximum.reduceat(c, seg_start) - np.minimum.reduceat(
                c, seg_start
            )
        dim = np.argmax(extents, axis=1)

        rank_vals = ranks_flat[dim[seg] * n + ids]
        sorted_ids = _segment_sorted_ids(ids, seg, rank_vals, num_segments, n_uniq)

        med_off = (seg_len - 1) // 2
        med_pos = seg_start + med_off
        point_id[slot] = sorted_ids[med_pos]
        split_dim[slot] = dim
        depth[slot] = d
        subtree_size[slot] = seg_len

        # Tree t's next level starts right after this level's last node of
        # t and numbers its nodes in this level's segment order, left
        # before right, skipping empty sides.  So segment s's first child
        # sits tree_end[t] - s slots after s (past s's later siblings on
        # this level), plus one slot per child of t's earlier segments
        # (children_before[s] - child_first[t]).
        left_len = med_off
        right_len = seg_len - 1 - med_off
        has_left = left_len > 0
        has_right = right_len > 0
        num_children = has_left.astype(np.int64) + has_right
        children_before = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(num_children, out=children_before[1:])
        child_first = children_before[tree_first]
        child_slot = (
            slot
            - np.arange(num_segments, dtype=np.int64)
            + children_before[:-1]
            + np.repeat(tree_end - child_first, tree_end - tree_first)
        )
        right_slot = child_slot + has_left
        left[slot[has_left]] = child_slot[has_left]
        right[slot[has_right]] = right_slot[has_right]

        # Drop the medians; what remains, in sorted order, is exactly the
        # concatenation of every child segment in id order.
        keep = np.ones(m, dtype=bool)
        keep[med_pos] = False
        ids = sorted_ids[keep]
        child_len = np.empty(2 * num_segments, dtype=np.int64)
        child_len[0::2] = left_len
        child_len[1::2] = right_len
        next_slot = np.empty(2 * num_segments, dtype=np.int64)
        next_slot[0::2] = child_slot
        next_slot[1::2] = right_slot
        open_child = child_len > 0
        seg_len = child_len[open_child]
        seg_start = np.cumsum(seg_len) - seg_len
        slot = next_slot[open_child]
        tree_first, tree_end = child_first, children_before[tree_end]
        d += 1

    if len(arrays) > 1:  # a one-tree forest's slots are its node ids
        shift = np.repeat(offsets, sizes)
        point_id -= shift
        for child in (left, right):
            present = child >= 0
            child[present] -= shift[present]
    return [
        KdTree(
            points=points,
            point_id=point_id[lo:hi],
            split_dim=split_dim[lo:hi],
            left=left[lo:hi],
            right=right[lo:hi],
            depth=depth[lo:hi],
            subtree_size=subtree_size[lo:hi],
        )
        for points, lo, hi in zip(arrays, offsets.tolist(), (offsets + sizes).tolist())
    ]


def vectorized_build_kdtree(points: np.ndarray) -> KdTree:
    """Build the same balanced K-d tree as :func:`build_kdtree`, level at a time:
    the one-cloud forest of :func:`vectorized_build_forest`."""
    return vectorized_build_forest([points])[0]


class VectorizedSplitTree(SplitTree):
    """A :class:`SplitTree` with an array-built (but identical) DRAM layout.

    Same constructor contract, same layout (top tree first, then each
    sub-tree block in ascending root-id order, nodes in preorder within a
    block), same per-node addresses and totals — the split-tree
    equivalence suite pins every accessor against the reference.  The
    per-node dict inserts and per-root Python stack walks are replaced by
    Euler-interval arithmetic:

    - a node's position inside its sub-tree block is ``tin[node] -
      tin[root]`` (preorder offset);
    - the owning root of a non-top node is a ``searchsorted`` over the
      roots' disjoint ``tin`` intervals;
    - any subtree's preorder node list is a slice of the global preorder
      permutation — which also serves parked queries routed to a node
      *above* the sub-tree level in O(subtree) instead of a fresh walk.
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
        n = tree.num_nodes
        if top_height == 0:
            self._top_nodes = np.empty(0, dtype=np.int64)
            self.subtree_roots = np.array([tree.root], dtype=np.int64)
        else:
            self._top_nodes = np.nonzero(tree.depth < top_height)[0]
            self.subtree_roots = np.nonzero(tree.depth == top_height)[0]

        tin, tout = euler_tour(tree)
        self._tin = tin
        self._tout = tout
        self._preorder = np.argsort(tin)

        address = np.empty(n, dtype=np.int64)
        num_top = len(self._top_nodes)
        address[self._top_nodes] = np.arange(num_top, dtype=np.int64) * NODE_BYTES
        roots = self.subtree_roots
        sizes = tout[roots] - tin[roots]
        bases = (num_top + np.concatenate(([0], np.cumsum(sizes[:-1])))) * NODE_BYTES

        base_of_root = np.zeros(n, dtype=np.int64)
        base_of_root[roots] = bases
        by_tin = np.argsort(tin[roots])
        roots_by_tin = roots[by_tin]
        is_top = np.zeros(n, dtype=bool)
        is_top[self._top_nodes] = True
        nontop = np.nonzero(~is_top)[0]
        slot = np.searchsorted(tin[roots_by_tin], tin[nontop], side="right") - 1
        owner = roots_by_tin[slot]
        address[nontop] = base_of_root[owner] + (tin[nontop] - tin[owner]) * NODE_BYTES
        self._address = address
        self._total_bytes = int(num_top + sizes.sum()) * NODE_BYTES

    def subtree_nodes(self, root: int) -> np.ndarray:
        r = int(root)
        return self._preorder[self._tin[r] : self._tout[r]]

    def dram_address_of(self, node: int) -> int:
        return int(self._address[int(node)])

    def queue_occupancy(self, queries: np.ndarray) -> dict:
        roots = self.route_queries(queries)
        occ = dict.fromkeys(map(int, self.subtree_roots.tolist()), 0)
        uniq, counts = np.unique(roots, return_counts=True)
        occ.update(zip(map(int, uniq.tolist()), map(int, counts.tolist())))
        return occ

