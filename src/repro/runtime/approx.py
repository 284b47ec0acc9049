"""Production approximate neighbor search: many searches, one forest pass.

:func:`approximate_search` runs a batch of Crescent approximate searches
(:class:`SearchJob`: a tree, its queries, radius, ``K`` and setting ``h =
<h_t, h_e>``) with the semantics of the per-step reference
:func:`repro.core.approx_search.approximate_ball_query`, job by job —
indices, counts and every :class:`~repro.core.approx_search.SearchReport`
statistic — but with the per-job Python loops replaced by array passes
over all jobs at once:

1. **Top-tree phase** — every query of every job descends its tree's top
   levels together, one level per pass, each query stopping at its own
   job's ``h_t`` (or where its branch runs out of children), collecting
   the points it streams past.
2. **Sub-tree phase** — queries are queued per ``(job, sub-tree root)``
   and all conflict-simulated jobs share one
   :meth:`~repro.runtime.VectorizedLockstep.run` over the forest of their
   trees; the rest share one :meth:`~repro.runtime.VectorizedLockstep.run_free`.
   Each machine carries its job's radius and elision depth and the
   result capacity its top-tree hits left.
3. **Assembly** — top-tree hits then sub-tree hits in visit order,
   deduplicated per query keeping first occurrences, truncated at ``K``
   and padded with the first neighbor, as flat array passes; queries that
   found nothing get their nearest point via
   :func:`~repro.runtime.batched.batched_nearest_node`.

A single search is the one-job case.  Jobs share one hardware model
(tree-buffer banking, PE count, elision policy); searches on different
hardware go in separate calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.approx_search import SearchReport
from ..core.bank_conflict import TreeBufferBanking
from ..core.config import ApproxSetting
from ..core.split_tree import descend_step
from ..kdtree.build import KdTree
from .batched import batched_nearest_node
from .lockstep import LockstepResult, VectorizedLockstep

__all__ = ["SearchJob", "approximate_search"]


@dataclass(frozen=True)
class SearchJob:
    """One approximate search: the arguments of ``approximate_ball_query``.

    ``simulate_conflicts`` defaults to "on iff the setting uses elision"
    (without elision, conflicts change timing but not results).
    """

    tree: KdTree
    queries: np.ndarray
    radius: float
    max_neighbors: int
    setting: ApproxSetting
    simulate_conflicts: Optional[bool] = None


def approximate_search(
    jobs: Sequence[SearchJob],
    banking: TreeBufferBanking = TreeBufferBanking(),
    num_pes: int = 4,
    elide_policy: str = "skip",
) -> List[Tuple[np.ndarray, np.ndarray, SearchReport]]:
    """Run every job; returns ``(indices, counts, report)`` per job.

    Each triple equals ``approximate_ball_query(job.tree, job.queries,
    job.radius, job.max_neighbors, job.setting, banking, num_pes,
    job.simulate_conflicts, elide_policy=elide_policy)`` — an ``(M, K)``
    padded index matrix, true-hit counts, and the search statistics
    (``subtree_cycles`` included).
    """
    jobs = list(jobs)
    if any(job.max_neighbors <= 0 for job in jobs):
        raise ValueError("max_neighbors must be positive")
    if not jobs:
        return []
    tree_of: dict = {}
    for job in jobs:
        tree_of.setdefault(id(job.tree), (len(tree_of), job.tree))
    engine = VectorizedLockstep(
        [tree for _, tree in tree_of.values()],
        banking=banking,
        num_pes=num_pes,
        elide_policy=elide_policy,
    )
    # The forest as one KdTree whose node i holds point i: per-tree array
    # routines that take their start nodes (descent, nearest node) run on
    # every tree of it at once.
    forest = KdTree(
        points=engine.node_points,
        point_id=np.arange(len(engine.point_id)),
        split_dim=engine.split_dim,
        left=engine.left,
        right=engine.right,
        depth=engine.depth,
        subtree_size=engine.size,
    )
    num_jobs = len(jobs)
    queries = [np.atleast_2d(np.asarray(job.queries, dtype=np.float64)) for job in jobs]
    settings = [job.setting.scaled_to(job.tree.height) for job in jobs]
    job_m = np.array([len(q) for q in queries], dtype=np.int64)
    job_offset = engine.offsets[[tree_of[id(job.tree)][0] for job in jobs]]
    job_k = np.array([job.max_neighbors for job in jobs], dtype=np.int64)
    simulate = np.array(
        [
            s.uses_elision if job.simulate_conflicts is None else job.simulate_conflicts
            for job, s in zip(jobs, settings)
        ],
        dtype=bool,
    )

    def per_row(values, dtype) -> np.ndarray:
        return np.repeat(np.asarray(values, dtype=dtype), job_m)

    allq = np.concatenate(queries)
    num_rows = len(allq)
    row_job = per_row(np.arange(num_jobs), np.int64)
    row_radius = per_row([job.radius for job in jobs], np.float64)
    row_k = per_row(job_k, np.int64)
    row_top = per_row([s.top_height for s in settings], np.int64)
    # A depth at or past the tree height never elides.
    row_elide = per_row(
        [
            job.tree.height if s.elision_height is None else s.elision_height
            for job, s in zip(jobs, settings)
        ],
        np.int64,
    )

    # ---- phase 1: top-tree descent, all jobs level-synchronously.
    job_root = job_offset + [job.tree.root for job in jobs]  # forest ids
    current = per_row(job_root, np.int64)
    alive = row_top > 0
    row_r2 = row_radius * row_radius
    empty = np.zeros(0, dtype=np.int64)
    hit_rows: List[np.ndarray] = [empty]
    hit_points: List[np.ndarray] = [empty]
    visited: List[np.ndarray] = [empty]
    level = 0
    while True:
        act = np.flatnonzero(alive)
        if len(act) == 0:
            break
        cur = current[act]
        visited.append(act)
        pts = engine.node_points[cur]
        q = allq[act]
        d2 = ((q - pts) ** 2).sum(axis=1)
        hit = d2 <= row_r2[act]
        hit_rows.append(act[hit])
        hit_points.append(engine.point_id[cur[hit]])
        nxt, parked = descend_step(forest, q, cur)
        alive[act[parked]] = False
        current[act[~parked]] = nxt[~parked]
        level += 1
        alive[act] &= row_top[act] > level
    top_visits = np.bincount(row_job[np.concatenate(visited)], minlength=num_jobs)
    top_count = np.bincount(np.concatenate(hit_rows), minlength=num_rows)

    # ---- phase 2: one machine per query, queued per (job, sub-tree).
    mach_row = np.lexsort((current, row_job))  # stable: query order within
    mach_job = row_job[mach_row]
    mach_root = current[mach_row]
    head = np.ones(num_rows, dtype=bool)
    head[1:] = (mach_root[1:] != mach_root[:-1]) | (mach_job[1:] != mach_job[:-1])
    group_start = np.flatnonzero(head)
    group_size = np.diff(np.append(group_start, num_rows))
    group_job = mach_job[group_start]
    group_root = mach_root[group_start] - job_offset[group_job]
    capacity = np.maximum(row_k - top_count, 0)[mach_row]

    reports = [SearchReport() for _ in jobs]
    for j, report in enumerate(reports):
        report.traversal.queries = int(job_m[j])
        if settings[j].top_height > 0:
            report.top_tree_visits = int(top_visits[j])
            report.traversal.nodes_visited = int(top_visits[j])
    for j, root, size in zip(group_job.tolist(), group_root.tolist(), group_size.tolist()):
        reports[j].queue_occupancy[root] = size
        reports[j].subtrees_loaded += 1

    def search(subset: np.ndarray, conflicts: bool) -> None:
        if len(subset) == 0:
            return
        rows = mach_row[subset]
        args = (allq[rows], mach_root[subset], capacity[subset], row_radius[rows])
        kwargs = dict(jobs=mach_job[subset], num_jobs=num_jobs)
        if conflicts:
            outcome = engine.run(*args, elide_depth=row_elide[rows], **kwargs)
        else:
            outcome = engine.run_free(*args, **kwargs)
        _fold(outcome, reports, conflicts)
        if conflicts:
            batches = np.flatnonzero(simulate[group_job])
            for g, cycles in zip(batches.tolist(), outcome.group_cycles.tolist()):
                reports[group_job[g]].subtree_cycles[int(group_root[g])] = cycles
        hit_rows.append(rows[outcome.hit_machine])
        hit_points.append(outcome.hit_point)

    sim_mach = simulate[mach_job]
    search(np.flatnonzero(sim_mach), True)
    search(np.flatnonzero(~sim_mach), False)

    # Queries that found nothing pad with their nearest point, all in one
    # pass over the forest (each from its own tree's root).
    def nearest(rows: np.ndarray) -> np.ndarray:
        roots = job_root[row_job[rows]]
        return engine.point_id[batched_nearest_node(forest, allq[rows], roots)]

    indices, counts = _assemble(job_m, job_k, row_k, hit_rows, hit_points, nearest)
    return list(zip(indices, counts, reports))


def _fold(outcome: LockstepResult, reports: List[SearchReport], conflicts: bool) -> None:
    """Add one engine run's per-job statistics into the reports."""
    for j, report in enumerate(reports):
        report.traversal.merge(outcome.traversal[j])
        if conflicts:
            report.tree_sram.merge(outcome.sram[j])
            report.lockstep_cycles += int(outcome.cycles[j])
            report.stall_cycles += int(outcome.stalls[j])


def _assemble(job_m, job_k, row_k, hit_rows, hit_points, nearest):
    """Order-preserving dedup, truncation and padding on flat hit arrays.

    ``hit_rows``/``hit_points`` hold the top-tree hits (level order) and
    then the sub-tree hits (visit order); a stable sort by row keeps that
    order within every query.  ``nearest(rows)`` gives the padding of rows
    without hits.  Returns per-job index matrices and counts.
    """
    num_rows = len(row_k)
    rows = np.concatenate(hit_rows)
    points = np.concatenate(hit_points)
    order = np.argsort(rows, kind="stable")
    rows, points = rows[order], points[order]
    # Keep each (row, point)'s first occurrence: a short top-tree branch
    # can queue a query at a node it already passed, re-testing it.
    seen = np.lexsort((np.arange(len(rows)), points, rows))
    dup = np.zeros(len(rows), dtype=bool)
    dup[seen[1:]] = (rows[seen[1:]] == rows[seen[:-1]]) & (
        points[seen[1:]] == points[seen[:-1]]
    )
    rows, points = rows[~dup], points[~dup]
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
    row_start = np.concatenate(([0], np.cumsum(job_m)))
    out_indices, out_counts = [], []
    for lo, hi, k in zip(row_start[:-1], row_start[1:], job_k.tolist()):
        out_indices.append(flat[cell_start[lo] : cell_start[hi]].reshape(hi - lo, k))
        out_counts.append(counts[lo:hi])
    return out_indices, out_counts
