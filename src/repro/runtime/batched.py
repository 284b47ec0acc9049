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
buffered.  Early stopping only truncates the hit stream — the first ``K``
hits of the full traversal are exactly the hits the early-stopped
traversal collects — so the batched engine may sweep the whole in-radius
frontier and truncate afterwards, provided it can reproduce the DFS visit
order.  It does, without simulating any stack: label every root-to-node
edge per query with a bit (near child = 0, far child = 1) and give node
``n`` at depth ``d`` the rank ``sum(bit_i * 2**-(i+1) for i in range(d))``.
DFS preorder is then exactly ascending ``(rank, depth)``: an ancestor is a
bit-prefix of its descendants (equal rank + shallower depth when the
extension bits are all zero, smaller rank otherwise), and cousins order by
the first divergent bit.  A balanced median-split tree has height
``ceil(log2(n + 1)) <= 52`` for any realistic ``n``, so the rank fits a
float64 mantissa losslessly.

Pruning is also safe to replicate: a far subtree is pruned when
``|query[dim] - split| > radius``, and every point in that subtree lies on
the far side of the splitting plane, hence at least that far away along
``dim`` — a pruned subtree can never contain an in-radius point.  The
remaining asymmetry (the per-query searcher visits fewer nodes thanks to
early stopping) affects traversal *statistics* only, never results, which
is why this module returns no :class:`~repro.kdtree.stats.TraversalStats`:
callers who need hardware-faithful accounting use the reference searchers.

Merged multi-request sweeps
---------------------------
Nothing in the construction above requires one shared radius: the
in-ball test and the bounding-plane prune are per-row decisions, so the
sweep accepts a **per-query radius array** and stays row-independent —
row ``i``'s result depends only on ``(queries[i], radius[i])`` and the
tree.  :meth:`BatchedBallQuery.query_merged` builds on that to serve N
concatenated *requests* (each with its own radius and ``K``) with one
frontier advance and split the results per request afterwards,
bit-identical to N separate :meth:`~BatchedBallQuery.query` calls.  This
is the kernel under the request-coalescing serving layer
(:mod:`repro.serve`).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..kdtree.build import KdTree
from ..kdtree.exact import ball_query

__all__ = [
    "BatchedBallQuery",
    "FrontierLevel",
    "batched_nearest_node",
    "frontier_sweep",
]

# Depth limit above which DFS ranks no longer fit a float64 mantissa.
# Balanced construction keeps height = ceil(log2(n + 1)), so hitting this
# would take ~4.5e15 points; the guard exists for malformed custom trees
# and lives in frontier_sweep — the single definition of the rank
# arithmetic — so every consumer (result-only, traced, nearest-node) is
# covered without duplicating the check.
_MAX_RANK_DEPTH = 52

# Density guard: unlike the per-query searcher (which early-stops at K
# hits), the batched sweep buffers every in-radius hit before truncating,
# so a radius comparable to the cloud extent costs O(M * N) memory.  Past
# this many buffered hits the engine hands the batch to the per-query
# reference searcher — bit-identical by definition, and O(K) per query.
_MAX_BUFFERED_HITS = 8_000_000


def _check_rank_depth(tree: KdTree) -> None:
    if tree.height > _MAX_RANK_DEPTH:
        raise ValueError(
            f"tree height {tree.height} exceeds the DFS-rank depth limit "
            f"({_MAX_RANK_DEPTH}); use the per-query searchers"
        )


class FrontierLevel(NamedTuple):
    """One level of the batched frontier sweep (see :func:`frontier_sweep`).

    All arrays are parallel over the live ``(query, node)`` pairs at this
    depth.  ``far`` and ``within_radius`` let consumers reconstruct the
    bounding-plane prune (``far >= 0`` and not ``within_radius``); the
    children actually descended are ``take_near``/``take_far``.
    """

    depth: int
    query_ids: np.ndarray  # query index per frontier row
    rank: np.ndarray  # accumulated DFS path bits as a binary fraction
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
) -> Iterator[FrontierLevel]:
    """Advance all queries together, one tree level per yield.

    The single definition of the batched traversal semantics — near/far
    selection (``diff <= 0`` ties go left, like the reference searcher),
    the bounding-plane prune, and the DFS-rank advance — shared by the
    result-only engine (:class:`BatchedBallQuery`) and the trace-capable
    engine (:class:`~repro.runtime.traced.TracedBallQuery`), so a change
    to the traversal rule cannot diverge the two.  Consumers may simply
    stop iterating (e.g. a memory-guard fallback); the sweep holds no
    state beyond its frontier arrays.

    ``radius`` is either a scalar (every query searches the same ball) or
    an ``(M,)`` array of per-query radii — the merged multi-request form
    the serving layer drives through :meth:`BatchedBallQuery.query_merged`.

    Raises ``ValueError`` eagerly (before the first level is yielded) when
    ``tree`` is deeper than the DFS ranks can represent: past depth 52 the
    per-level ``scale`` underflows out of the float64 mantissa and rank
    order silently corrupts, so malformed custom trees must be rejected
    here rather than in each consuming engine.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    _check_rank_depth(tree)
    radius = np.asarray(radius, dtype=np.float64)
    if radius.ndim not in (0, 1) or (
        radius.ndim == 1 and radius.shape != (len(queries),)
    ):
        raise ValueError(
            f"radius must be a scalar or one radius per query; got shape "
            f"{radius.shape} for {len(queries)} queries"
        )
    return _frontier_levels(tree, queries, radius)


def _frontier_levels(
    tree: KdTree, queries: np.ndarray, radius: np.ndarray
) -> Iterator[FrontierLevel]:
    m = len(queries)
    per_query = radius.ndim == 1
    r2 = radius * radius
    # Frontier of live (query, node) pairs; ``rank`` accumulates the DFS
    # path bits as a binary fraction, ``scale`` is the next bit's weight.
    fq = np.arange(m, dtype=np.int64)
    fnode = np.full(m, tree.root, dtype=np.int64)
    frank = np.zeros(m, dtype=np.float64)
    scale = 0.5
    depth = 0
    while len(fq):
        rad = radius[fq] if per_query else radius
        rsq = r2[fq] if per_query else r2
        pid = tree.point_id[fnode]
        pts = tree.points[pid]
        delta = queries[fq] - pts
        d2 = np.einsum("ij,ij->i", delta, delta)
        in_ball = d2 <= rsq

        dims = tree.split_dim[fnode]
        rows = np.arange(len(fq))
        diff = queries[fq, dims] - pts[rows, dims]
        go_left = diff <= 0
        near = np.where(go_left, tree.left[fnode], tree.right[fnode])
        far = np.where(go_left, tree.right[fnode], tree.left[fnode])
        within = np.abs(diff) <= rad
        take_near = near >= 0
        take_far = (far >= 0) & within

        yield FrontierLevel(
            depth=depth,
            query_ids=fq,
            rank=frank,
            nodes=fnode,
            point_ids=pid,
            in_ball=in_ball,
            far=far,
            within_radius=within,
            take_near=take_near,
            take_far=take_far,
        )

        fq = np.concatenate([fq[take_near], fq[take_far]])
        fnode = np.concatenate([near[take_near], far[take_far]])
        frank = np.concatenate([frank[take_near], frank[take_far] + scale])
        scale *= 0.5
        depth += 1


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

        dims = tree.split_dim[fnode]
        rows = np.arange(len(fq))
        diff = queries[fq, dims] - pts[rows, dims]
        go_left = diff <= 0
        near = np.where(go_left, tree.left[fnode], tree.right[fnode])
        far = np.where(go_left, tree.right[fnode], tree.left[fnode])
        take_near = near >= 0
        take_far = (far >= 0) & (diff * diff <= best_d2[fq])
        fq = np.concatenate([fq[take_near], fq[take_far]])
        fnode = np.concatenate([near[take_near], far[take_far]])
        frank = np.concatenate([frank[take_near], frank[take_far] + scale])
        scale *= 0.5
    return best_pid


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
        node point and report ``counts == 0``.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        if max_neighbors <= 0:
            raise ValueError("max_neighbors must be positive")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
        k = max_neighbors
        if m == 0:
            return (
                np.zeros((0, k), dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        collected = self._collect(queries, float(radius))
        if collected is None:  # density guard: per-query reference fallback
            return ball_query(self.tree, queries, radius, max_neighbors)
        return self._pack(queries, collected, np.full(m, k, dtype=np.int64), k)

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
        if radii.ndim == 0:
            radii = np.full(m, float(radii))
        request_ids = np.asarray(request_ids, dtype=np.int64)
        ks = np.atleast_1d(np.asarray(max_neighbors, dtype=np.int64))
        n_req = len(ks)
        if (ks <= 0).any():
            raise ValueError("max_neighbors must be positive")
        if radii.shape != (m,):
            raise ValueError("radii must give one radius per query")
        if m and (radii <= 0).any():
            raise ValueError("radius must be positive")
        if request_ids.shape != (m,):
            raise ValueError("request_ids must give one request per query")
        if m and ((request_ids < 0) | (request_ids >= n_req)).any():
            raise ValueError(f"request_ids must lie in [0, {n_req})")
        if m and (np.diff(request_ids) < 0).any():
            raise ValueError("request_ids must be grouped (non-decreasing)")
        if n_req == 0:
            return []
        starts = np.searchsorted(request_ids, np.arange(n_req + 1))

        collected = self._collect(queries, radii)
        if collected is None:  # density guard: per-request reference fallback
            return self._merged_reference(queries, radii, starts, ks)
        k_row = ks[request_ids]
        indices, counts = self._pack(queries, collected, k_row, int(ks.max()))
        return [
            (
                indices[starts[r] : starts[r + 1], : int(ks[r])].copy(),
                counts[starts[r] : starts[r + 1]].copy(),
            )
            for r in range(n_req)
        ]

    # ------------------------------------------------------------------
    def _collect(self, queries: np.ndarray, radius):
        """Sweep and sort the in-radius hit stream.

        Returns ``(hit_queries, hit_point_ids, counts_all)`` with the hits
        in per-query DFS visit order, or ``None`` when the density guard
        trips and the caller must fall back to the reference searcher.
        """
        m = len(queries)
        hit_q: list = []
        hit_rank: list = []
        hit_depth: list = []
        hit_pid: list = []
        total_hits = 0
        for level in frontier_sweep(self.tree, queries, radius):
            in_ball = level.in_ball
            if in_ball.any():
                hit_q.append(level.query_ids[in_ball])
                hit_rank.append(level.rank[in_ball])
                hit_depth.append(
                    np.full(int(in_ball.sum()), level.depth, dtype=np.int64)
                )
                hit_pid.append(level.point_ids[in_ball])
                total_hits += int(in_ball.sum())
                if total_hits > _MAX_BUFFERED_HITS:
                    return None
        if not hit_q:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(m, dtype=np.int64)
        hq = np.concatenate(hit_q)
        hr = np.concatenate(hit_rank)
        hd = np.concatenate(hit_depth)
        hp = np.concatenate(hit_pid)
        # Ascending (query, rank, depth) == per-query DFS visit order.
        order = np.lexsort((hd, hr, hq))
        hq, hp = hq[order], hp[order]
        counts_all = np.bincount(hq, minlength=m).astype(np.int64)
        return hq, hp, counts_all

    def _pack(
        self,
        queries: np.ndarray,
        collected,
        k_row: np.ndarray,
        k_max: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Truncate, pad, and fill the sorted hit stream into the
        ``ball_query`` output contract, with a per-row neighbor cap."""
        hq, hp, counts_all = collected
        m = len(queries)
        indices = np.zeros((m, k_max), dtype=np.int64)
        if len(hq):
            starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts_all)[:-1]]
            )
            pos = np.arange(len(hq), dtype=np.int64) - starts[hq]
            keep = pos < k_row[hq]
            indices[hq[keep], pos[keep]] = hp[keep]

        counts = np.minimum(counts_all, k_row)
        # Pad short rows by repeating the first neighbor.
        col = np.arange(k_max, dtype=np.int64)[None, :]
        pad = col >= np.maximum(counts, 1)[:, None]
        indices = np.where(pad, indices[:, :1], indices)
        # Zero-neighbor rows fall back to the nearest node point: dedupe
        # the (rare) rows and resolve them in one vectorized pass with the
        # per-query engine's exact tie-breaking.
        zero = np.nonzero(counts_all == 0)[0]
        if len(zero):
            uniq, inverse = np.unique(queries[zero], axis=0, return_inverse=True)
            nearest = batched_nearest_node(self.tree, uniq)
            indices[zero, :] = nearest[inverse][:, None]
        return indices, counts

    def _merged_reference(
        self,
        queries: np.ndarray,
        radii: np.ndarray,
        starts: np.ndarray,
        ks: np.ndarray,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Density-guard fallback: per-request reference searches (grouped
        by radius within a request, for the heterogeneous-radii form)."""
        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for r in range(len(ks)):
            sl = slice(int(starts[r]), int(starts[r + 1]))
            qs, rr, k = queries[sl], radii[sl], int(ks[r])
            idx = np.zeros((len(qs), k), dtype=np.int64)
            cnt = np.zeros(len(qs), dtype=np.int64)
            for rad in np.unique(rr):
                rows = np.nonzero(rr == rad)[0]
                idx[rows], cnt[rows] = ball_query(self.tree, qs[rows], float(rad), k)
            out.append((idx, cnt))
        return out
