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
bit-identical to N separate :meth:`~BatchedBallQuery.query` calls.  This
is the kernel under the request-coalescing serving layer
(:mod:`repro.serve`).
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
    tree level.  ``far`` and ``within_radius`` let consumers reconstruct the
    bounding-plane prune (``far >= 0`` and not ``within_radius``); the
    children the traversal rule descends are ``take_near``/``take_far``
    (the early stop may still drop some of them from the next level).
    """

    query_ids: np.ndarray  # query index per frontier row
    key: np.ndarray  # query_ids << tree.height | the node's preorder position
    nodes: np.ndarray  # node id per row
    point_ids: np.ndarray  # tree.point_id[nodes]
    in_ball: np.ndarray  # distance test outcome
    far: np.ndarray  # far-child node id (-1 when absent)
    within_radius: np.ndarray  # |query[dim] - split| <= radius
    take_near: np.ndarray  # near child exists (always descended)
    take_far: np.ndarray  # far child exists and not pruned


def frontier_sweep(
    tree: KdTree,
    queries: np.ndarray,
    radius: Union[float, np.ndarray],
    max_neighbors: Optional[Union[int, np.ndarray]],
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
    ``(d², slot)``).

    Raises ``ValueError`` eagerly (before the first level is yielded) when
    ``tree`` is deeper than the DFS ranks can represent, or when the batch
    leaves the keys' query ids no room (``M * 2**height > 2**63``, far
    beyond any cloud a balanced tree indexes), so malformed custom trees
    are rejected here rather than in each consuming engine.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    _check_rank_depth(tree)
    height = tree.height
    if len(queries) > 1 << (63 - height):
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
    stop = None
    if max_neighbors is not None:
        ks = np.broadcast_to(check_max_neighbors(max_neighbors), (len(queries),))
        stop = _KthHit(ks, height)
    return _frontier_levels(tree, queries, radius, height, stop)


def _frontier_levels(
    tree: KdTree,
    queries: np.ndarray,
    radius: np.ndarray,
    height: int,
    stop: Optional["_KthHit"],
) -> Iterator[FrontierLevel]:
    m = len(queries)
    per_query = radius.ndim == 1
    r2 = radius * radius
    # Frontier of live (query, node) pairs and their DFS keys; ``step`` is
    # the preorder offset of this level's far children.
    fq = np.arange(m, dtype=np.int64)
    fnode = np.full(m, tree.root, dtype=np.int64)
    fkey = fq << height
    step = 1 << max(height - 1, 0)
    while len(fq):
        rad = radius[fq] if per_query else radius
        rsq = r2[fq] if per_query else r2
        pid = tree.point_id[fnode]
        pts = tree.points[pid]
        delta = queries[fq] - pts
        d2 = np.einsum("ij,ij->i", delta, delta)
        in_ball = d2 <= rsq

        diff = delta[np.arange(len(fq)), tree.split_dim[fnode]]
        go_left = diff <= 0
        near = np.where(go_left, tree.left[fnode], tree.right[fnode])
        far = np.where(go_left, tree.right[fnode], tree.left[fnode])
        within = np.abs(diff) <= rad
        take_near = near >= 0
        take_far = (far >= 0) & within

        yield FrontierLevel(
            query_ids=fq,
            key=fkey,
            nodes=fnode,
            point_ids=pid,
            in_ball=in_ball,
            far=far,
            within_radius=within,
            take_near=take_near,
            take_far=take_far,
        )

        bound = None if stop is None else stop.add(fq[in_ball], fkey[in_ball])
        fq = np.concatenate([fq[take_near], fq[take_far]])
        fnode = np.concatenate([near[take_near], far[take_far]])
        fkey = np.concatenate([fkey[take_near] + 1, fkey[take_far] + step])
        if bound is not None:  # some query holds K hits: stop past them
            keep = fkey < bound[fq]
            fq, fnode, fkey = fq[keep], fnode[keep], fkey[keep]
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
        pts = tree.points[tree.point_id[node]]
        delta = queries[rows] - pts
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
        pid = tree.point_id[fnode]
        pts = tree.points[pid]
        delta = queries[fq] - pts
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


def nearest_padding(
    tree: KdTree, queries: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`pack_rows`'s padding for rows without hits: each row's
    nearest node point, from one :func:`batched_nearest_node` pass over
    the distinct query points (rows without hits often repeat a point)."""

    def nearest(rows: np.ndarray) -> np.ndarray:
        uniq, inverse = np.unique(queries[rows], axis=0, return_inverse=True)
        return batched_nearest_node(tree, uniq)[inverse.reshape(-1)]

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

        Returns the list of per-request ``(indices, counts)`` pairs.
        Request ``r``'s pair is bit-identical to
        ``query(queries[rows_r], radius_r, max_neighbors[r])`` — row
        independence makes the merge exact, which the serving parity suite
        pins down.  Heterogeneous per-query radii *within* a request are
        also accepted and equivalent to one single-row call per query.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
        radii = np.asarray(radii, dtype=np.float64)
        request_ids = np.asarray(request_ids, dtype=np.int64)
        ks = np.atleast_1d(check_max_neighbors(max_neighbors))
        n_req = len(ks)
        if not (radii > 0).all():  # NaN fails too; frontier_sweep checks the shape
            raise ValueError("radius must be positive")
        if request_ids.shape != (m,):
            raise ValueError("request_ids must give one request per query")
        if m and ((request_ids < 0) | (request_ids >= n_req)).any():
            raise ValueError(f"request_ids must lie in [0, {n_req})")
        if m and (np.diff(request_ids) < 0).any():
            raise ValueError("request_ids must be grouped (non-decreasing)")
        if n_req == 0:
            return []
        group_rows = np.diff(np.searchsorted(request_ids, np.arange(n_req + 1)))
        empty = np.zeros(0, dtype=np.int64)
        rows, keys, points = [empty], [empty], [empty]
        for level in frontier_sweep(self.tree, queries, radii, ks[request_ids]):
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
            nearest_padding(self.tree, queries),
        )
