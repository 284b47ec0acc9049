"""Trace-capable batched exact search.

:class:`TracedBallQuery` answers the question the motivation studies ask
of :func:`repro.kdtree.exact.radius_search` — *which nodes did each query
visit, in what order, and what did the traversal cost* — but advances all
queries together as NumPy frontier arrays, the way
:class:`~repro.runtime.batched.BatchedBallQuery` does for result-only
workloads.  It is what lets ``layer_search_traces`` (and through it the
Fig. 2/3 drivers) retire the last per-query Python loop on the exact
search side while staying bit-identical to the reference searcher.

Recovering per-query traces without a stack
-------------------------------------------
The batched frontier sweep already computes a DFS rank per visited
``(query, node)`` pair (near child = 0 bit, far child = 1 bit, rank =
binary fraction of the path bits; see :mod:`repro.runtime.batched` for
the proof that ascending ``(rank, depth)`` is exactly DFS preorder with
the near child first).  So per-query visit traces need no stack
simulation: collect *every* visited ``(query, rank, depth, node)`` tuple,
argsort per query by ``(rank, depth)``, and the sorted node column *is*
the reference visit trace of the full (never-early-stopped) traversal.

The reference searcher early-stops once ``max_neighbors`` hits are
buffered, abandoning whatever is still on its stack.  Because the
early-stopped visit sequence is a *prefix* of the full DFS preorder
sequence, truncating each sorted trace at the node contributing the
K-th hit reproduces it exactly.

Reconstructing :class:`~repro.kdtree.stats.TraversalStats`
----------------------------------------------------------
Every counter of the early-stopped reference follows from per-visit
quantities the sweep computes anyway:

* ``nodes_visited`` = ``stack_pops`` = truncated trace length (each
  visited node was popped exactly once; abandoned pushes are never
  popped);
* ``stack_pushes`` = 1 (the root) + the children pushed by each visited
  node — *except* the node contributing the K-th hit, which breaks out
  before its push/prune logic runs;
* ``nodes_pruned`` = the bounding-plane-pruned far-subtree sizes summed
  over the same set of nodes;
* ``neighbors_found`` = ``min(total in-radius hits, K)``.

The randomized equivalence suite (``tests/test_runtime_traced.py``) pins
all of this — traces and every counter — against the per-query reference
across radii, K, and tree shapes, the same way the lockstep suite pins
the vectorized accelerator engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..kdtree.build import KdTree
from ..kdtree.exact import knn_search, radius_search
from ..kdtree.stats import TraversalStats
from .batched import batched_nearest_node, frontier_sweep

__all__ = ["TracedBallQuery", "TracedBatchResult"]

# Memory guard: the traced sweep buffers every visited (query, node) pair
# before sorting, so a huge radius on a huge batch costs O(visits) memory.
# Past this many buffered visits the engine hands the batch to the
# per-query reference searcher — identical by definition.
_MAX_BUFFERED_VISITS = 8_000_000


@dataclass
class TracedBatchResult:
    """Everything the reference per-query search loop would have produced.

    Attributes
    ----------
    indices, counts:
        The ``(M, K)`` padded neighbor matrix and true-hit counts, exactly
        as :func:`repro.kdtree.exact.ball_query` returns them.
    traces:
        Per-query node-id visit traces (int64 arrays, DFS preorder,
        truncated at the K-th hit) — ``radius_search``'s ``visit_trace``.
    stats:
        Per-query :class:`TraversalStats`, ``visit_trace`` included.
        Materialized lazily from the vectorized counter arrays on first
        access: the trace drivers (Figs. 2–3) never touch per-query stats
        objects, and building M of them is pure Python overhead.
    """

    indices: np.ndarray
    counts: np.ndarray
    traces: List[np.ndarray]
    visited: np.ndarray  # per-query nodes_visited (== stack pops)
    pushes: np.ndarray  # per-query stack pushes
    pruned: np.ndarray  # per-query bounding-plane-pruned subtree nodes
    neighbors: np.ndarray  # per-query neighbors found (== counts)
    _stats: List[TraversalStats] = None  # type: ignore[assignment]

    @property
    def stats(self) -> List[TraversalStats]:
        if self._stats is None:
            self._stats = [
                TraversalStats(
                    nodes_visited=int(self.visited[i]),
                    nodes_pruned=int(self.pruned[i]),
                    stack_pushes=int(self.pushes[i]),
                    stack_pops=int(self.visited[i]),
                    neighbors_found=int(self.neighbors[i]),
                    queries=1,
                    visit_trace=self.traces[i].tolist(),
                )
                for i in range(len(self.traces))
            ]
        return self._stats

    def merged_stats(self) -> TraversalStats:
        """Accumulate the per-query stats the way a shared ``stats``
        object passed to :func:`~repro.kdtree.exact.ball_query` would."""
        merged = TraversalStats(
            nodes_visited=int(self.visited.sum()),
            nodes_pruned=int(self.pruned.sum()),
            stack_pushes=int(self.pushes.sum()),
            stack_pops=int(self.visited.sum()),
            neighbors_found=int(self.neighbors.sum()),
            queries=len(self.traces),
        )
        merged.visit_trace = [int(n) for trace in self.traces for n in trace]
        return merged


class TracedBallQuery:
    """Batched exact search with per-query visit traces and statistics.

    Construct once per tree and call :meth:`query` per batch; instances
    hold only a tree reference, so construction is free.
    """

    def __init__(self, tree: KdTree):
        # The DFS-rank depth guard lives in frontier_sweep (the single
        # definition of the rank arithmetic), which :meth:`query` drives.
        self.tree = tree

    # ------------------------------------------------------------------
    def query(
        self, queries: np.ndarray, radius: float, max_neighbors: int
    ) -> TracedBatchResult:
        """Run the traced batch; see :class:`TracedBatchResult`.

        Visit-trace- and stats-identical to running
        ``radius_search(tree, q, radius, max_neighbors=K, record_trace=True)``
        per query, with the ``(indices, counts)`` padding contract of
        ``ball_query``.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        if max_neighbors <= 0:
            raise ValueError("max_neighbors must be positive")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
        k = max_neighbors
        if m == 0:
            empty = np.zeros(0, dtype=np.int64)
            return TracedBatchResult(
                indices=np.zeros((0, k), dtype=np.int64),
                counts=empty,
                traces=[],
                visited=empty,
                pushes=empty,
                pruned=empty,
                neighbors=empty,
            )
        tree = self.tree

        # The shared frontier sweep (one definition of the traversal
        # semantics for both batched engines) — here recording every
        # visit, not just hits, plus the per-visit push/prune quantities
        # the stats reconstruction needs.
        v_q: list = []
        v_rank: list = []
        v_depth: list = []
        v_node: list = []
        v_hit: list = []
        v_push: list = []
        v_pruned: list = []
        total_visits = 0
        for level in frontier_sweep(tree, queries, radius):
            prune_far = (level.far >= 0) & ~level.within_radius
            pruned = np.zeros(len(level.nodes), dtype=np.int64)
            pruned[prune_far] = tree.subtree_size[level.far[prune_far]]

            v_q.append(level.query_ids)
            v_rank.append(level.rank)
            v_depth.append(np.full(len(level.nodes), level.depth, dtype=np.int64))
            v_node.append(level.nodes)
            v_hit.append(level.in_ball)
            v_push.append(
                level.take_near.astype(np.int64) + level.take_far.astype(np.int64)
            )
            v_pruned.append(pruned)
            total_visits += len(level.nodes)
            if total_visits > _MAX_BUFFERED_VISITS:
                return _reference_traced(tree, queries, radius, k)

        q = np.concatenate(v_q)
        rank = np.concatenate(v_rank)
        dep = np.concatenate(v_depth)
        node = np.concatenate(v_node)
        hit = np.concatenate(v_hit)
        push = np.concatenate(v_push)
        pruned = np.concatenate(v_pruned)

        # Ascending (query, rank, depth) == per-query DFS visit order.
        order = np.lexsort((dep, rank, q))
        q, node, hit, push, pruned = (
            q[order], node[order], hit[order], push[order], pruned[order]
        )

        visits_all = np.bincount(q, minlength=m)  # >= 1: the root is always visited
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(visits_all)[:-1]]
        )
        pos = np.arange(len(q), dtype=np.int64) - starts[q]

        # Per-query inclusive hit count at each visit, then the position of
        # the K-th hit: that node triggers the reference's early stop.
        cum = np.cumsum(hit)
        base = (cum - hit)[starts]  # exclusive hit count at each query's start
        cum_hits = cum - base[q]
        kth = hit & (cum_hits == k)  # at most one row per query
        trunc_len = visits_all.copy()
        trunc_len[q[kth]] = pos[kth] + 1
        keep = pos < trunc_len[q]

        # The early-stop node breaks out before its push/prune logic runs,
        # so its contributions never reach the reference counters.
        push_eff = push.copy()
        push_eff[kth] = 0
        pruned_eff = pruned.copy()
        pruned_eff[kth] = 0
        qk = q[keep]
        pushes = 1 + np.bincount(qk, weights=push_eff[keep], minlength=m).astype(np.int64)
        pruned_total = np.bincount(
            qk, weights=pruned_eff[keep], minlength=m
        ).astype(np.int64)
        hits_total = np.bincount(q, weights=hit, minlength=m).astype(np.int64)
        neighbors = np.minimum(hits_total, k)

        # Traces: the kept node column split per query.
        nodes_kept = node[keep]
        traces = np.split(nodes_kept, np.cumsum(trunc_len)[:-1])

        # Neighbor matrix: the kept region holds exactly min(hits, K) hits
        # per query, in visit order — the reference's result buffer.
        indices = np.zeros((m, k), dtype=np.int64)
        hit_keep = hit & keep
        hq = q[hit_keep]
        hp = tree.point_id[node[hit_keep]]
        if len(hq):
            hstarts = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(neighbors)[:-1]]
            )
            hpos = np.arange(len(hq), dtype=np.int64) - hstarts[hq]
            indices[hq, hpos] = hp
        counts = neighbors.copy()
        # Pad short rows by repeating the first neighbor; zero-neighbor
        # rows fall back to the query's nearest node point, exactly as
        # ball_query does (same tie-breaking via the per-query search).
        col = np.arange(k, dtype=np.int64)[None, :]
        pad = col >= np.maximum(counts, 1)[:, None]
        indices = np.where(pad, indices[:, :1], indices)
        zero = np.nonzero(hits_total == 0)[0]
        if len(zero):
            uniq, inverse = np.unique(queries[zero], axis=0, return_inverse=True)
            nearest = batched_nearest_node(tree, uniq)
            indices[zero, :] = nearest[inverse][:, None]

        return TracedBatchResult(
            indices=indices,
            counts=counts,
            traces=traces,
            visited=trunc_len,
            pushes=pushes,
            pruned=pruned_total,
            neighbors=neighbors,
        )


def _reference_traced(
    tree: KdTree, queries: np.ndarray, radius: float, max_neighbors: int
) -> TracedBatchResult:
    """Per-query reference fallback (memory guard): identical by definition."""
    m = len(queries)
    k = max_neighbors
    indices = np.zeros((m, k), dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)
    traces: List[np.ndarray] = []
    visited = np.zeros(m, dtype=np.int64)
    pushes = np.zeros(m, dtype=np.int64)
    pruned = np.zeros(m, dtype=np.int64)
    neighbors = np.zeros(m, dtype=np.int64)
    for i in range(m):
        s = TraversalStats()
        found = radius_search(
            tree, queries[i], radius, max_neighbors=k, stats=s, record_trace=True
        )
        counts[i] = min(len(found), k)
        if not found:
            found = knn_search(tree, queries[i], 1)
        row = found[:k]
        row = row + [row[0]] * (k - len(row))
        indices[i] = row
        traces.append(np.asarray(s.visit_trace, dtype=np.int64))
        visited[i] = s.nodes_visited
        pushes[i] = s.stack_pushes
        pruned[i] = s.nodes_pruned
        neighbors[i] = s.neighbors_found
    return TracedBatchResult(
        indices=indices, counts=counts, traces=traces,
        visited=visited, pushes=pushes, pruned=pruned, neighbors=neighbors,
    )
