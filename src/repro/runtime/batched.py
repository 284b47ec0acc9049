"""Vectorized batched ball query.

:class:`BatchedBallQuery` answers the same question as
:func:`repro.kdtree.exact.ball_query` — the padded ``(M, K)`` neighbor
index matrix plus true-hit counts for a batch of queries — but advances
*all* queries together as NumPy frontier arrays instead of running one
Python DFS per query.  On network-layer-sized batches this is one to two
orders of magnitude faster, which is what makes the Fig. 13/14 sweeps and
the approximation-aware training runs affordable.

Bit-identical by construction
-----------------------------
The per-query searcher visits nodes in DFS preorder with the *near* child
explored first, appends hits in visit order, and stops once ``K`` hits are
buffered.  The batched engine reproduces that visit order without
simulating any stack: it numbers every node a query reaches by its
preorder position in the complete binary tree of the tree's height ``h``,
near child first.  The root is 0; a node at depth ``d`` numbered ``p``
has its near child at ``p + 1`` and its far child at ``p + 2**(h-1-d)``,
one past the near child's complete subtree.  The real tree embeds in the
complete one with the same child order, so ascending numbers are exactly
its DFS preorder.  Packed below the query id into one int64 key (``query
<< h | position``), a single sort orders a whole batch by query, then in
visit order.

The early stop is replicated too.  Once a query holds ``K`` hits, every
frontier row whose key comes after its K-th hit so far roots a subtree
that follows that hit in preorder, so the reference never reaches it; the
sweep drops those rows after each level.  Hits only add, so the K-th hit
so far only moves earlier, and nothing before the final K-th hit is ever
dropped: sorting the hits the sweep saw and keeping each query's first
``K`` gives exactly the reference's result buffer.  On dense input this
also bounds the work: a kept row's parent comes before the K-th hit, so
a level holds at most ``2K`` rows per query.

Pruning is also safe to replicate: a far subtree is pruned when
``|query[dim] - split| > radius``, and every point in that subtree lies on
the far side of the splitting plane, hence at least that far away along
``dim`` — a pruned subtree can never contain an in-radius point.  The
sweep may still visit a few nodes past a query's K-th hit before it
finds that hit; the per-query searcher never reaches them.  That affects
traversal *statistics* only, never results, which is why this module
returns no :class:`~repro.kdtree.stats.TraversalStats`;
:class:`~repro.runtime.traced.TracedBallQuery` reconstructs them.

Merged multi-request sweeps
---------------------------
Nothing in the construction above requires one shared radius or ``K``:
the in-ball test, the bounding-plane prune and the early stop are per-row
decisions, so the sweep accepts a **per-query radius array** and per-query
``K`` and stays row-independent — row ``i``'s result depends only on
``(queries[i], radius[i], K[i])`` and the tree.
:meth:`BatchedBallQuery.query_merged` builds on that to serve N
concatenated *requests* (each with its own radius and ``K``) with one
frontier advance and split the results per request afterwards,
bit-identical to N separate :meth:`~BatchedBallQuery.query` calls.  With
per-row ``roots`` the requests may target different trees of one
:class:`~repro.runtime.forest.Forest`: each row starts at its own tree's
root and pads from that tree alone.  This is the kernel under the
request-coalescing serving layer (:mod:`repro.serve`), which answers all
the static clouds of a flush with one such sweep.

A level's work is mostly scattered reads, so the sweep gathers every row
block and per-row array with ``take``: on 20k rows ``queries.take(rows,
0)`` costs about a quarter of ``queries[rows]``, NumPy's general indexing
path.  The next frontier comes from one selection index (near rows, then
far rows), one ``take`` per array, instead of two boolean compressions
and a concatenation per array.  Every field of every level still equals
the plain fancy-index formulas bit for bit (``tests/test_runtime_forest.py``).
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..kdtree.build import KdTree

__all__ = [
    "BatchedBallQuery",
    "FrontierLevel",
    "batched_nearest_node",
    "check_max_neighbors",
    "frontier_sweep",
    "nearest_padding",
    "pack_rows",
    "request_rows",
    "squared_distances",
    "sweep_room",
]

# Depth limit of the DFS orderings: batched_nearest_node's float64 ranks
# lose bits past it, and the sweep's int64 keys must leave the query ids
# room above the preorder positions.  Balanced construction keeps height
# = ceil(log2(n + 1)), so hitting this would take ~4.5e15 points; the
# guard exists for malformed custom trees and lives in frontier_sweep —
# the single definition of the traversal rule — and batched_nearest_node,
# so every consumer (result-only, traced, nearest-node) is covered
# without duplicating the check.
_MAX_RANK_DEPTH = 52

# The bound of a query that holds fewer than K hits: after every key.
_NO_BOUND = np.iinfo(np.int64).max


def _check_rank_depth(tree: KdTree) -> None:
    if tree.height > _MAX_RANK_DEPTH:
        raise ValueError(
            f"tree height {tree.height} exceeds the DFS-rank depth limit "
            f"({_MAX_RANK_DEPTH}); use the per-query searchers"
        )


def sweep_room(height: int) -> int:
    """Most query rows one :func:`frontier_sweep` over a tree of
    ``height`` takes: its int64 DFS keys hold ``rows * 2**height <=
    2**63``.  Past the DFS-rank depth limit it takes none (-1)."""
    return 1 << (63 - height) if height <= _MAX_RANK_DEPTH else -1


def squared_distances(a, b) -> np.ndarray:
    """``((a - b) ** 2).sum(axis=-1)`` of 3-D points, bit for bit.

    ``a`` and ``b`` broadcast against each other, with coordinates on
    their last axis.  The three squared coordinate differences are added
    in that order, as the trailing-axis sum adds them, without NumPy's
    slow reduction over an axis of 3 and without the ``(..., 3)``
    difference of the broadcast shape.  The sweeps' ``einsum`` in-ball
    tests keep their own summation order, which
    :func:`~repro.kdtree.dynamic_reference.pair_d2` shares.
    """
    a, b = np.asarray(a), np.asarray(b)
    d2 = a[..., 0] - b[..., 0]
    d2 *= d2
    for axis in (1, 2):
        diff = a[..., axis] - b[..., axis]
        diff *= diff
        d2 += diff
    return d2


def check_max_neighbors(max_neighbors) -> np.ndarray:
    """Every ``K`` as int64, under the one rule of the search entry points.

    Each ``K`` must be an integer >= 1; an integral float counts (2.0 is
    2).  Anything else — 2.5, 0, NaN, inf, a non-number — raises a
    ``ValueError`` naming ``max_neighbors``, rather than being cast to a
    different ``K`` or failing later with an unrelated error.  The shape
    is kept: a scalar gives a scalar.
    """
    if isinstance(max_neighbors, (int, np.integer)) and max_neighbors >= 1:
        return np.int64(max_neighbors)  # the common case, without array passes
    try:
        ks = np.asarray(max_neighbors, dtype=np.float64)
    except (TypeError, ValueError):
        ks = np.array(np.nan)
    if not (np.isfinite(ks) & (ks >= 1) & (ks == np.floor(ks))).all():
        raise ValueError(
            f"max_neighbors must be an integer >= 1, got {max_neighbors!r}"
        )
    return ks.astype(np.int64)


class FrontierLevel(NamedTuple):
    """One level of the batched frontier sweep (see :func:`frontier_sweep`).

    All arrays are parallel over the live ``(query, node)`` pairs of one
    tree level.  ``d2`` is the squared distance the in-ball test compared,
    bit-equal to :func:`~repro.kdtree.dynamic_reference.pair_d2` of the
    row's query and point, so the dynamic index keys its hits with it
    instead of computing it again.  ``far`` and ``within_radius`` let
    consumers reconstruct the bounding-plane prune (``far >= 0`` and not
    ``within_radius``); the children the traversal rule descends are
    ``take_near``/``take_far`` (the early stop may still drop some of them
    from the next level).
    """

    query_ids: np.ndarray  # query index per frontier row
    key: np.ndarray  # query_ids << tree.height | the node's preorder position
    nodes: np.ndarray  # node id per row
    point_ids: np.ndarray  # tree.point_id[nodes]
    d2: np.ndarray  # squared distance from the query to the node's point
    in_ball: np.ndarray  # d2 <= radius**2
    far: np.ndarray  # far-child node id (-1 when absent)
    within_radius: np.ndarray  # |query[dim] - split| <= radius
    take_near: np.ndarray  # near child exists (always descended)
    take_far: np.ndarray  # far child exists and not pruned


def frontier_sweep(
    tree: KdTree,
    queries: np.ndarray,
    radius: Union[float, np.ndarray],
    max_neighbors: Optional[Union[int, np.ndarray]],
    roots: Optional[np.ndarray] = None,
) -> Iterator[FrontierLevel]:
    """Advance all queries together, one tree level per yield.

    The single definition of the batched traversal semantics — near/far
    selection (``diff <= 0`` ties go left, like the reference searcher),
    the bounding-plane prune, the DFS keys and the early stop — shared by
    the result-only engine (:class:`BatchedBallQuery`), the trace-capable
    engine (:class:`~repro.runtime.traced.TracedBallQuery`) and the
    dynamic index, so a change to the traversal rule cannot diverge them.
    The sweep holds no state beyond its frontier and early-stop arrays.

    ``radius`` is either a scalar (every query searches the same ball) or
    an ``(M,)`` array of per-query radii — the merged multi-request form
    the serving layer drives through :meth:`BatchedBallQuery.query_merged`.

    ``max_neighbors`` gives each query its ``K`` (a scalar or ``(M,)``).
    After each level the sweep drops every frontier row whose key comes
    after its query's K-th hit so far; nothing before the final K-th hit
    is dropped, so every hit, visit and prune up to it is yielded exactly
    as a full sweep yields it (see the module docstring).  A yielded
    level is never filtered: only the next frontier shrinks.  ``None``
    sweeps every in-radius branch, for contracts that do not follow the
    DFS order (:class:`~repro.kdtree.dynamic.DynamicKdTree` sorts by
    ``(d², slot)``, keying each tree hit with the level's own ``d2``).

    ``roots`` (default: ``tree.root`` for all) starts each query at its
    own node, so one sweep serves every tree of a
    :class:`~repro.runtime.forest.Forest`.

    Raises ``ValueError`` eagerly (before the first level is yielded) on a
    ``radius`` or ``roots`` of the wrong shape, on a tree deeper than the
    DFS ranks can represent, or when the batch leaves the keys' query ids
    no room (``M * 2**height > 2**63``, far beyond any balanced tree).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    _check_rank_depth(tree)
    height = tree.height
    if len(queries) > sweep_room(height):
        raise ValueError(
            f"{len(queries)} queries overflow the int64 DFS keys of a tree "
            f"of height {height}; split the batch"
        )
    radius = np.asarray(radius, dtype=np.float64)
    if radius.ndim not in (0, 1) or (
        radius.ndim == 1 and radius.shape != (len(queries),)
    ):
        raise ValueError(
            f"radius must be a scalar or one radius per query; got shape "
            f"{radius.shape} for {len(queries)} queries"
        )
    if roots is None:
        roots = np.full(len(queries), tree.root)
    roots = np.asarray(roots, dtype=np.int64)
    if roots.shape != (len(queries),):
        raise ValueError(f"roots must give one start node per query, not {roots.shape}")
    stop = None
    if max_neighbors is not None:
        ks = np.broadcast_to(check_max_neighbors(max_neighbors), (len(queries),))
        stop = _KthHit(ks, height)
    return _frontier_levels(tree, queries, radius, roots, height, stop)


def _frontier_levels(
    tree: KdTree,
    queries: np.ndarray,
    radius: np.ndarray,
    roots: np.ndarray,
    height: int,
    stop: Optional["_KthHit"],
) -> Iterator[FrontierLevel]:
    m = len(queries)
    per_query = radius.ndim == 1
    r2 = radius * radius
    # Frontier of live (query, node) pairs and their DFS keys; ``step`` is
    # the preorder offset of this level's far children.
    fq = np.arange(m, dtype=np.int64)
    fnode = roots
    fkey = fq << height
    step = 1 << max(height - 1, 0)
    width = queries.shape[1]
    while len(fq):
        rad = radius.take(fq) if per_query else radius
        rsq = r2.take(fq) if per_query else r2
        pid = tree.point_id.take(fnode)
        delta = queries.take(fq, 0) - tree.points.take(pid, 0)
        d2 = np.einsum("ij,ij->i", delta, delta)
        in_ball = d2 <= rsq

        rows = np.arange(len(fq))
        diff = delta.take(rows * width + tree.split_dim.take(fnode))
        go_left = diff <= 0
        left, right = tree.left.take(fnode), tree.right.take(fnode)
        near = np.where(go_left, left, right)
        far = left + right - near  # the other child, -1 when absent
        within = np.abs(diff) <= rad
        take_near = near >= 0
        take_far = (far >= 0) & within

        yield FrontierLevel(
            query_ids=fq,
            key=fkey,
            nodes=fnode,
            point_ids=pid,
            d2=d2,
            in_ball=in_ball,
            far=far,
            within_radius=within,
            take_near=take_near,
            take_far=take_far,
        )

        bound = None if stop is None else stop.add(fq[in_ball], fkey[in_ball])
        near_rows, far_rows = take_near.nonzero()[0], take_far.nonzero()[0]
        sel = np.concatenate((near_rows, far_rows))
        fq = fq.take(sel)
        fnode = np.concatenate((near.take(near_rows), far.take(far_rows)))
        fkey = fkey.take(sel)
        fkey[: len(near_rows)] += 1
        fkey[len(near_rows) :] += step
        if bound is not None:  # some query holds K hits: stop past them
            keep = (fkey < bound.take(fq)).nonzero()[0]
            fq, fnode, fkey = fq.take(keep), fnode.take(keep), fkey.take(keep)
        step >>= 1


class _KthHit:
    """Each query's K-th hit so far: the bound of the sweep's early stop.

    ``bound[q]`` is the key of query ``q``'s K-th earliest hit so far, or
    ``_NO_BOUND`` while it holds fewer than ``K``.  A query's hits wait in
    ``pending`` until it reaches ``K``; then they move to ``top``, the
    sorted keys of the ``K`` earliest hits of every query at ``K``, which
    absorbs that query's later hits.  A level whose hits all belong to
    queries below ``K`` costs a count and nothing else.
    """

    def __init__(self, ks: np.ndarray, height: int):
        self.ks = ks
        self.shift = height
        self.short = np.array(ks, dtype=np.int64)  # hits each query lacks
        self.bound = np.full(len(ks), _NO_BOUND, dtype=np.int64)
        self.pending: List[np.ndarray] = []
        self.top = np.zeros(0, dtype=np.int64)

    def add(self, q: np.ndarray, key: np.ndarray) -> Optional[np.ndarray]:
        """Take one level's hits; returns ``bound`` once a query holds K."""
        np.subtract.at(self.short, q, 1)
        full = self.short[q] <= 0
        if not full.any():
            self.pending.append(key)
            return self.bound if len(self.top) else None
        self.pending.append(key[~full])
        merge = [self.top, key[full]]
        reached = full & (self.bound[q] == _NO_BOUND)
        if reached.any():  # their earlier hits leave pending
            now = np.zeros(len(self.short), dtype=bool)
            now[q[reached]] = True
            waiting = np.concatenate(self.pending)
            move = now[waiting >> self.shift]
            self.pending = [waiting[~move]]
            merge.append(waiting[move])
        keys = np.sort(np.concatenate(merge))
        owner = keys >> self.shift
        n = np.arange(len(keys))
        head = np.ones(len(keys), dtype=bool)
        head[1:] = owner[1:] != owner[:-1]
        pos = n - np.maximum.accumulate(np.where(head, n, 0))  # rank within owner
        k = self.ks[owner]
        self.top = keys[pos < k]
        kth = pos == k - 1
        self.bound[owner[kth]] = keys[kth]
        return self.bound


def _greedy_bound(tree: KdTree, queries: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Least squared distance to the nodes of each query's near-child path.

    Each query descends from its ``start`` node to the child on its side
    of the split (the other one when that is missing) until a leaf, and
    keeps the smallest ``d2`` it meets.
    """
    bound = np.full(len(queries), np.inf)
    rows = np.arange(len(queries))
    node = start
    while len(rows):
        delta = queries.take(rows, 0) - tree.points.take(tree.point_id.take(node), 0)
        bound[rows] = np.minimum(bound[rows], np.einsum("ij,ij->i", delta, delta))
        go_left = delta[np.arange(len(rows)), tree.split_dim[node]] <= 0
        near = np.where(go_left, tree.left[node], tree.right[node])
        far = np.where(go_left, tree.right[node], tree.left[node])
        near = np.where(near >= 0, near, far)
        more = near >= 0
        rows, node = rows[more], near[more]
    return bound


def batched_nearest_node(
    tree: KdTree, queries: np.ndarray, roots: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized ``knn_search(tree, q, 1)[0]`` for every query.

    Bit-identical tie-breaking included: for ``k = 1`` the reference
    searcher's replace rule is strictly ``<``, so its winner is the first
    point achieving the minimal distance in its DFS visit order — and its
    shrinking-bound prune (``diff**2 > bound``) can only drop subtrees
    whose points are *strictly* farther than the bound, never a minimal
    point.  The winner is therefore exactly the minimum of
    ``(d2, DFS rank, depth)`` over the whole tree, which this level-
    synchronous sweep tracks as a running per-query best while pruning far
    children against it (any valid upper bound is equally safe).

    Used by the batched engines to resolve all zero-neighbor rows of a
    batch in one pass instead of a per-query Python ``knn_search`` loop.
    ``roots`` (default: ``tree.root`` for all) starts each query at its own
    node, so one pass serves a forest of trees sharing one node array.

    The prune bound starts at the best distance along one greedy
    root-to-leaf descent, not at +inf: the distance to any point bounds
    the minimum from above, so the winner is never pruned, and the far
    subtrees of queries outside the cloud are cut from the first level
    on.  The running best, which picks the winner, starts at +inf.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    _check_rank_depth(tree)
    m = len(queries)
    best_d2 = np.full(m, np.inf)
    best_rank = np.full(m, np.inf)
    best_pid = np.zeros(m, dtype=np.int64)
    if m == 0:
        return best_pid
    fq = np.arange(m, dtype=np.int64)
    fnode = (
        np.full(m, tree.root, dtype=np.int64) if roots is None
        else np.asarray(roots, dtype=np.int64)
    )
    bound = _greedy_bound(tree, queries, fnode)
    frank = np.zeros(m, dtype=np.float64)
    scale = 0.5
    while len(fq):
        pid = tree.point_id.take(fnode)
        delta = queries.take(fq, 0) - tree.points.take(pid, 0)
        d2 = np.einsum("ij,ij->i", delta, delta)

        # Per-query winner of this level: min (d2, rank).  Ranks are
        # distinct per (query, node) pair within a level, so sorting and
        # taking each query's leading row suffices.
        order = np.lexsort((frank, d2, fq))
        sq = fq[order]
        lead = np.ones(len(sq), dtype=bool)
        lead[1:] = sq[1:] != sq[:-1]
        cq = sq[lead]
        cd2 = d2[order][lead]
        crank = frank[order][lead]
        cpid = pid[order][lead]
        # Against the running best: levels arrive in depth order, and at
        # equal (d2, rank) the shallower node — the incumbent — is the
        # earlier one in DFS preorder, so ties keep the incumbent.
        upd = (cd2 < best_d2[cq]) | ((cd2 == best_d2[cq]) & (crank < best_rank[cq]))
        uq = cq[upd]
        best_d2[uq] = cd2[upd]
        best_rank[uq] = crank[upd]
        best_pid[uq] = cpid[upd]
        bound[uq] = np.minimum(bound[uq], cd2[upd])

        diff = delta[np.arange(len(fq)), tree.split_dim[fnode]]
        go_left = diff <= 0
        near = np.where(go_left, tree.left[fnode], tree.right[fnode])
        far = np.where(go_left, tree.right[fnode], tree.left[fnode])
        take_near = near >= 0
        take_far = (far >= 0) & (diff * diff <= bound[fq])
        fq = np.concatenate([fq[take_near], fq[take_far]])
        fnode = np.concatenate([near[take_near], far[take_far]])
        frank = np.concatenate([frank[take_near], frank[take_far] + scale])
        scale *= 0.5
    return best_pid


def pack_rows(
    rows: np.ndarray,
    points: np.ndarray,
    group_rows: Sequence[int],
    group_k: Sequence[int],
    nearest: Callable[[np.ndarray], np.ndarray],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Truncate and pad flat hits into fixed-width neighbor matrices.

    The one packer of the batched engines, the forest approximate search
    and the Mesorasi baseline.  ``rows``/``points`` list every hit as a
    (row, point) pair, each row's hits in that row's order (rows may
    interleave: a stable sort by row keeps the order).  Rows come in
    consecutive groups: group ``g`` has ``group_rows[g]`` rows of width
    ``group_k[g]``.  A row keeps its first ``K`` hits and pads with its
    first hit; a row without hits pads with ``nearest(empty_rows)``.
    Returns each group's ``(indices, counts)``: the ``(rows, K)`` matrix
    and each row's count of kept hits.
    """
    group_rows = np.asarray(group_rows, dtype=np.int64)
    group_k = np.asarray(group_k, dtype=np.int64)
    row_k = np.repeat(group_k, group_rows)
    num_rows = len(row_k)
    order = np.argsort(rows, kind="stable")
    rows, points = rows[order], points[order]
    found = np.bincount(rows, minlength=num_rows)
    row_first = np.cumsum(found) - found
    col = np.arange(len(rows)) - row_first[rows]
    keep = col < row_k[rows]
    rows, points, col = rows[keep], points[keep], col[keep]
    counts = np.minimum(found, row_k)

    # Pad with each row's first neighbor; empty rows get the nearest point.
    pad = np.zeros(num_rows, dtype=np.int64)
    lead = col == 0
    pad[rows[lead]] = points[lead]
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        pad[empty] = nearest(empty)
    cell_start = np.concatenate(([0], np.cumsum(row_k)))
    flat = np.repeat(pad, row_k)
    flat[cell_start[rows] + col] = points
    row_start = np.concatenate(([0], np.cumsum(group_rows)))
    return [
        (flat[cell_start[lo] : cell_start[hi]].reshape(hi - lo, k), counts[lo:hi])
        for lo, hi, k in zip(row_start[:-1], row_start[1:], group_k.tolist())
    ]


def request_rows(request_ids, num_rows: int, num_requests: int) -> np.ndarray:
    """Each request's row count in a merged batch, after checking that
    ``request_ids`` gives every row a request, grouped (non-decreasing)."""
    request_ids = np.asarray(request_ids, dtype=np.int64)
    if request_ids.shape != (num_rows,):
        raise ValueError("request_ids must give one request per query")
    if num_rows and ((request_ids < 0) | (request_ids >= num_requests)).any():
        raise ValueError(f"request_ids must lie in [0, {num_requests})")
    if num_rows and (np.diff(request_ids) < 0).any():
        raise ValueError("request_ids must be grouped (non-decreasing)")
    return np.diff(np.searchsorted(request_ids, np.arange(num_requests + 1)))


def nearest_padding(
    tree: KdTree, queries: np.ndarray, roots: Optional[np.ndarray] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`pack_rows`'s padding for rows without hits: each row's
    nearest node point, from one :func:`batched_nearest_node` pass over
    the distinct ``(root, query point)`` pairs (rows without hits often
    repeat a point; with per-row ``roots`` each pads from its own tree)."""

    def nearest(rows: np.ndarray) -> np.ndarray:
        starts = np.full(len(rows), tree.root) if roots is None else roots[rows]
        keyed = np.column_stack((starts, queries[rows]))
        uniq, inverse = np.unique(keyed, axis=0, return_inverse=True)
        found = batched_nearest_node(tree, uniq[:, 1:], uniq[:, 0].astype(np.int64))
        return found[inverse.reshape(-1)]

    return nearest


class BatchedBallQuery:
    """Batched, vectorized equivalent of :func:`repro.kdtree.exact.ball_query`.

    Construct once per tree and call :meth:`query` for each ``(queries,
    radius, K)`` batch — or :meth:`query_merged` for a concatenation of
    heterogeneous request batches — the instance holds only a reference to
    the tree, so construction is free and instances may be shared.
    """

    def __init__(self, tree: KdTree):
        self.tree = tree

    # ------------------------------------------------------------------
    def query(
        self, queries: np.ndarray, radius: float, max_neighbors: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, counts)`` with the ``ball_query`` contract.

        ``indices`` is ``(M, K)`` int64, rows padded by repeating the first
        neighbor; zero-neighbor rows are padded with the query's nearest
        node point and report ``counts == 0``.  The one-request case of
        :meth:`query_merged`.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        request_ids = np.zeros(len(queries), dtype=np.int64)
        return self.query_merged(queries, radius, request_ids, max_neighbors)[0]

    # ------------------------------------------------------------------
    def query_merged(
        self,
        queries: np.ndarray,
        radii: Union[float, np.ndarray],
        request_ids: np.ndarray,
        max_neighbors: Union[int, Sequence[int], np.ndarray],
        roots: Optional[np.ndarray] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Serve N concatenated requests with one merged frontier advance.

        Parameters
        ----------
        queries:
            ``(M, d)`` concatenation of every request's query batch, in
            request order.
        radii:
            ``(M,)`` per-query radii (each request's radius broadcast over
            its rows), or a scalar shared by all rows.
        request_ids:
            ``(M,)`` int request index per row; must be grouped (non-
            decreasing) with values in ``[0, R)`` — the natural shape of a
            concatenation.
        max_neighbors:
            ``(R,)`` per-request ``K`` (a scalar means one request).
        roots:
            ``(M,)`` start node per row (default: the tree's root), so the
            requests of one sweep may target different trees of a
            :class:`~repro.runtime.forest.Forest`; results are then
            forest node ids, which ``forest.point_id`` maps back.

        Returns the list of per-request ``(indices, counts)`` pairs.
        Request ``r``'s pair is bit-identical to
        ``query(queries[rows_r], radius_r, max_neighbors[r])`` — row
        independence makes the merge exact, which the serving parity suite
        pins down.  Heterogeneous per-query radii *within* a request are
        also accepted and equivalent to one single-row call per query.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        radii = np.asarray(radii, dtype=np.float64)
        ks = np.atleast_1d(check_max_neighbors(max_neighbors))
        if not (radii > 0).all():  # NaN fails too; frontier_sweep checks the shape
            raise ValueError("radius must be positive")
        group_rows = request_rows(request_ids, len(queries), len(ks))
        if len(ks) == 0:
            return []
        empty = np.zeros(0, dtype=np.int64)
        rows, keys, points = [empty], [empty], [empty]
        row_k = np.repeat(ks, group_rows)
        if roots is not None:
            roots = np.asarray(roots, dtype=np.int64)
        for level in frontier_sweep(self.tree, queries, radii, row_k, roots):
            hit = level.in_ball
            rows.append(level.query_ids[hit])
            keys.append(level.key[hit])
            points.append(level.point_ids[hit])
        order = np.argsort(np.concatenate(keys))  # per-query DFS visit order
        return pack_rows(
            np.concatenate(rows)[order],
            np.concatenate(points)[order],
            group_rows,
            ks,
            nearest_padding(self.tree, queries, roots),
        )
