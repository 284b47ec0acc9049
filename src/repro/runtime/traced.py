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
The batched frontier sweep already gives every visited ``(query, node)``
pair a DFS key (the query id above the node's preorder position; see
:mod:`repro.runtime.batched` for why ascending keys are exactly DFS
preorder with the near child first).  So per-query visit traces need no
stack simulation: collect every visited ``(key, node)`` pair, sort by
key, and the sorted node column *is* each query's reference visit trace.

The reference searcher early-stops once ``max_neighbors`` hits are
buffered, abandoning whatever is still on its stack.  The sweep stops the
same way: given ``K``, it drops every frontier row that comes after a
query's K-th hit so far, and never one before the final K-th hit.  The
early-stopped visit sequence is therefore a *prefix* of the sorted
visits, and truncating each query's trace at the node contributing the
K-th hit reproduces it exactly; the few visits the sweep made past that
node are discarded.

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
from ..kdtree.stats import TraversalStats
from .batched import check_max_neighbors, frontier_sweep, nearest_padding, pack_rows

__all__ = ["TracedBallQuery", "TracedBatchResult"]


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


class TracedBallQuery:
    """Batched exact search with per-query visit traces and statistics.

    Construct once per tree and call :meth:`query` per batch; instances
    hold only a tree reference, so construction is free.
    """

    def __init__(self, tree: KdTree):
        # The DFS-key guards live in frontier_sweep (the single
        # definition of the key arithmetic), which :meth:`query` drives.
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
        if not radius > 0:  # NaN fails too
            raise ValueError("radius must be positive")
        k = int(check_max_neighbors(max_neighbors))
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
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
        v_key: list = []
        v_node: list = []
        v_hit: list = []
        v_push: list = []
        v_pruned: list = []
        for level in frontier_sweep(tree, queries, radius, k):
            prune_far = (level.far >= 0) & ~level.within_radius
            pruned = np.zeros(len(level.nodes), dtype=np.int64)
            pruned[prune_far] = tree.subtree_size[level.far[prune_far]]

            v_q.append(level.query_ids)
            v_key.append(level.key)
            v_node.append(level.nodes)
            v_hit.append(level.in_ball)
            v_push.append(level.take_near.astype(np.int64) + level.take_far)
            v_pruned.append(pruned)

        # Ascending keys == per-query DFS visit order.
        order = np.argsort(np.concatenate(v_key))
        q, node, hit, push, pruned = (
            np.concatenate(v)[order] for v in (v_q, v_node, v_hit, v_push, v_pruned)
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

        # Traces: the kept node column split per query.
        traces = np.split(node[keep], np.cumsum(trunc_len)[:-1])

        # Neighbor matrix: the kept region holds exactly min(hits, K) hits
        # per query, in visit order — the reference's result buffer.
        hit_keep = hit & keep
        (indices, counts), = pack_rows(
            q[hit_keep],
            tree.point_id[node[hit_keep]],
            [m],
            [k],
            nearest_padding(tree, queries),
        )
        return TracedBatchResult(
            indices=indices,
            counts=counts,
            traces=traces,
            visited=trunc_len,
            pushes=pushes,
            pruned=pruned_total,
            neighbors=counts.copy(),
        )
