"""Forest lockstep sub-tree search engine.

:func:`repro.core.approx_search.run_subtree_lockstep` is the behavioral
reference for the banked-tree-buffer PE array: it drives one
:class:`~repro.kdtree.SubtreeSearch` machine per queued query, one Python
``advance`` per node visit, one sub-tree batch at a time.

:class:`VectorizedLockstep` computes the *same* simulation with NumPy
array operations, for many searches at once:

* **forest layout** — any number of K-d trees in one
  :class:`~repro.runtime.forest.Forest`: tree ``t``'s node ``i`` is
  forest node ``roots[t] + i``; :meth:`VectorizedLockstep.run` computes
  the forest-wide Euler ``tin``/``tout`` intervals on first use, in one
  level-synchronous pass (:func:`~repro.runtime.forest.euler_tour`);
* every PE slot of every sub-tree batch is one row of a ``(lanes, depth)``
  stack matrix (``lanes = num_batches x num_pes``), so all sub-tree
  batches of all trees advance concurrently — the cycle loop runs as long
  as the longest batch instead of the sum over batches and searches;
* each machine carries its own radius, result capacity and elision depth,
  so searches with different settings share the loop;
* one simulated cycle touches the active lanes only: it gathers each
  one's top-of-stack node and bank, takes its position and its batch's
  active count from ``searchsorted`` over the sorted active batch ids,
  and ranks it by the batch's rotating round-robin priority.  One
  ``np.minimum.at`` of ``rank * num_nodes + node`` into a reused
  ``(batch, bank)`` table names each winner and, modulo ``num_nodes``,
  its node, so same-address losers are served by broadcast.  Served
  lanes visit and push children in place from the gathered top index;
  other losers at or below their elision depth drop their subtree, the
  rest stall.  The refill pops queued machines onto the lanes freed this
  cycle plus those a discarded pop left empty, never scanning all lanes;
* statistics are per-lane event counts, folded after the loop into
  per-job cycles, stalls, traversal and SRAM statistics (a *job* is one
  caller-level search; its machines are tagged with its id).

The randomized equivalence suites (``tests/test_runtime_lockstep.py``,
``tests/test_runtime_forest.py``) pin cycle-, stall-, stat- and
hit-identity to the reference, per job, on mixed forests.

Equivalence notes
-----------------
The reference's observable quirks are reproduced deliberately:

* the pending queue feeds free PE slots one candidate per slot per
  iteration, and a candidate that is already done (its result buffer was
  filled by top-tree hits) leaves the slot empty for that cycle;
* round-robin priority rotates by ``cycles mod len(active)`` *per
  sub-tree batch*, with ``active`` re-evaluated every cycle;
* a machine whose hit buffer fills mid-visit pushes no children for that
  visit (the reference's early return);
* bank slots are the node's *preorder position inside its sub-tree* —
  ``tin[node] - tin[root]``, which equals the reference's
  ``SplitTree.subtree_nodes`` enumeration because a subtree occupies a
  contiguous preorder interval.

The free-running mode (:meth:`run_free`) is the same stack machinery with
the conflict model off — every machine advances every iteration — for
searches where only results and traversal statistics matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..kdtree.stats import TraversalStats
from ..memsim.sram import SramStats
from .forest import Forest, euler_tour

__all__ = ["LockstepResult", "VectorizedLockstep"]

_UNBOUNDED = np.iinfo(np.int64).max


@dataclass
class LockstepResult:
    """Outcome of one forest run, folded per job.

    ``hit_machine``/``hit_point`` list every hit in emission order: cycle
    by cycle, so a stable sort by machine yields each machine's hits in
    visit order.  Points are tree-local ids.  ``group_cycles`` holds one
    entry per sub-tree batch, in machine order (empty for
    :meth:`~VectorizedLockstep.run_free`, which models no cycles).
    """

    hit_machine: np.ndarray
    hit_point: np.ndarray
    cycles: np.ndarray  # per job, summed over its sub-tree batches
    stalls: np.ndarray  # per job
    group_cycles: np.ndarray  # per sub-tree batch
    traversal: List[TraversalStats]  # per job
    sram: List[SramStats]  # per job


class VectorizedLockstep:
    """Array-lockstep simulator of the banked-tree-buffer PE array.

    Parameters
    ----------
    forest:
        The trees to search (a lone tree is ``Forest.of([tree])``).
        Machine roots are forest node ids: ``forest.roots[t] + node`` for
        node ``node`` of tree ``t``, so a lone tree's ids are unchanged.
    banking:
        Object with ``bank_of_slot(slots) -> banks`` (duck-typed to
        :class:`~repro.core.bank_conflict.TreeBufferBanking`).  Only needed
        for :meth:`run`; :meth:`run_free` has no conflict model.
    num_pes:
        Lockstepped PE slots per sub-tree batch.
    elide_policy:
        ``"skip"`` (the shipped design: an elided fetch drops the node and
        its subtree) or ``"descend"`` (Sec. 4.2: continue from the winner's
        node when it lies beneath the requested one).
    """

    def __init__(
        self,
        forest: Forest,
        banking=None,
        num_pes: int = 4,
        elide_policy: str = "skip",
    ):
        if elide_policy not in ("skip", "descend"):
            raise ValueError(f"unknown elide_policy {elide_policy!r}")
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.banking = banking
        self.num_pes = num_pes
        self.elide_policy = elide_policy
        self.forest = forest
        self.tree = forest.tree
        self.point_id = forest.point_id  # tree-local ids
        self.height = forest.tree.height

    # ------------------------------------------------------------------
    def _machines(self, queries, roots, max_hits, radius, jobs, num_jobs):
        """Normalize the per-machine arrays both modes take."""
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        m = len(roots)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if len(queries) != m:
            raise ValueError("queries must hold one row per machine")
        max_hits = np.asarray(max_hits, dtype=np.int64)
        if max_hits.shape != (m,):
            raise ValueError("max_hits must hold one capacity per machine")
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64), (m,))
        jobs = (
            np.zeros(m, dtype=np.int64) if jobs is None
            else np.asarray(jobs, dtype=np.int64)
        )
        if jobs.shape != (m,):
            raise ValueError("jobs must hold one job id per machine")
        if num_jobs is None:
            num_jobs = int(jobs.max()) + 1 if m else 1
        capacity = np.where(max_hits < 0, _UNBOUNDED, max_hits)
        return queries, roots, capacity, radius, jobs, num_jobs

    @staticmethod
    def _stats(num_jobs, machines_per_job, counts, found):
        """Per-job stats from folded event counts.

        ``counts`` is ``(num_jobs, 8)``: accesses, served visits,
        broadcasts, elisions, child/substitute pushes, nodes skipped,
        nodes pruned, cycles.
        """
        traversal, sram = [], []
        for j in range(num_jobs):
            acc, served, bcast, elided, pushes, skipped, pruned, cycles = (
                int(v) for v in counts[j]
            )
            traversal.append(
                TraversalStats(
                    nodes_visited=served,
                    nodes_skipped=skipped,
                    nodes_pruned=pruned,
                    # Every machine pushes its root at creation.
                    stack_pushes=int(machines_per_job[j]) + pushes,
                    stack_pops=served + elided,
                    neighbors_found=int(found[j]),
                )
            )
            reads = served - bcast
            sram.append(
                SramStats(
                    accesses=acc,
                    conflicted=acc - reads,
                    elided=elided,
                    broadcasts=bcast,
                    reads_served=reads,
                    cycles=cycles,
                )
            )
        return traversal, sram

    def _push_children(
        self, stack, width, sp, rows, top, nodes, delta, radius, pruned, log
    ):
        """A served visit's pushes onto the ``rows`` of the flat ``(rows,
        width)`` ``stack``, whose node was popped from position ``top``:
        the far child when the splitting plane lies within ``radius`` (its
        subtree size is added to ``pruned`` otherwise), then the near child
        on top.  ``delta`` is query minus node point; the split value is
        the node point's coordinate, so the plane distance is one of its
        entries.  Sets ``sp[rows]`` and returns it."""
        tree = self.tree
        entry = np.arange(len(rows)) * delta.shape[1] + tree.split_dim.take(nodes)
        diff = delta.take(entry)
        left, right = tree.left.take(nodes), tree.right.take(nodes)
        near = np.where(diff <= 0, left, right)
        far = left + right - near
        far_exists = far >= 0
        within = np.abs(diff) <= radius
        push_far = far_exists & within
        cut = (far_exists & ~within).nonzero()[0]
        if len(cut):
            pruned[rows.take(cut)] += tree.subtree_size.take(far.take(cut))
        pos = rows * width + top
        far_at = push_far.nonzero()[0]
        stack[pos.take(far_at)] = far.take(far_at)
        pos += push_far
        has_near = near >= 0
        near_at = has_near.nonzero()[0]
        stack[pos.take(near_at)] = near.take(near_at)
        top = top + push_far
        top += has_near
        sp[rows] = top
        log.append(rows.take(far_at))
        log.append(rows.take(near_at))
        return top

    # ------------------------------------------------------------------
    def run(
        self,
        queries: np.ndarray,
        roots: np.ndarray,
        max_hits: np.ndarray,
        radius,
        elide_depth=None,
        jobs: Optional[np.ndarray] = None,
        num_jobs: Optional[int] = None,
    ) -> LockstepResult:
        """Simulate every sub-tree batch to completion, all in one loop.

        One machine per entry of ``roots`` (forest node ids), searching
        ``queries[i]`` with ``radius`` (scalar or per machine) and result
        capacity ``max_hits[i]`` (``-1`` means unbounded).  Consecutive
        machines with the same ``(jobs[i], roots[i])`` form one sub-tree
        batch on its own ``num_pes`` PEs, queued in machine order.
        ``elide_depth`` is ``None`` (no elision) or a depth per machine
        (or one for all): a conflicted fetch of a node at that depth or
        deeper is elided — a depth at or past the tree's height never
        elides.  ``jobs`` (default: all zero) tags machines for the
        per-job statistics.
        """
        if self.banking is None:
            raise ValueError("run() needs a banking model; pass banking=")
        queries, roots, capacity, radius, jobs, num_jobs = self._machines(
            queries, roots, max_hits, radius, jobs, num_jobs
        )
        num_machines = len(roots)
        tin, tout = euler_tour(self.forest)
        r2 = radius * radius
        elide = None
        if elide_depth is not None:
            elide = np.broadcast_to(
                np.asarray(elide_depth, dtype=np.int64), (num_machines,)
            )
            if not (elide < self.height).any():
                elide = None  # nothing in the forest is deep enough

        # Sub-tree batches: runs of equal (job, root).
        head = np.ones(num_machines, dtype=bool)
        head[1:] = (roots[1:] != roots[:-1]) | (jobs[1:] != jobs[:-1])
        group_start = np.flatnonzero(head)
        ngroups = len(group_start)
        queue = (group_start.copy(), np.append(group_start[1:], num_machines))
        group_job = jobs[group_start]
        num_pes = self.num_pes
        lanes = ngroups * num_pes
        lane_group = np.repeat(np.arange(ngroups, dtype=np.int64), num_pes)
        lane_tin_root = np.repeat(tin[roots[group_start]], num_pes)
        # The (lanes, width) stack matrix, flat: lane l's slot t is
        # stack[l * width + t], read with take() and written by flat index.
        width = self.height + 2
        stack = np.zeros(lanes * width, dtype=np.int64)
        sp = np.zeros(lanes, dtype=np.int64)
        lane_mach = np.full(lanes, -1, dtype=np.int64)
        room = capacity.copy()  # result-buffer entries left per machine
        g_cycles = np.zeros(ngroups, dtype=np.int64)
        lane_state = (lane_group, queue, capacity, roots, lane_mach, stack, width, sp)

        # Event logs (lane ids per cycle), counted once after the loop.
        access_log: List[np.ndarray] = []
        served_log: List[np.ndarray] = []
        bcast_log: List[np.ndarray] = []
        elided_log: List[np.ndarray] = []
        push_log: List[np.ndarray] = []
        hit_mach_log: List[np.ndarray] = []
        hit_pid_log: List[np.ndarray] = []
        lane_skipped = np.zeros(lanes, dtype=np.int64)
        lane_pruned = np.zeros(lanes, dtype=np.int64)

        # Arbitration table: per (batch, bank), the lowest claim
        # ``rank * num_nodes + node`` of the cycle, reset after each use.
        tree = self.tree
        num_banks = getattr(self.banking, "num_banks", 0)
        num_nodes = tree.num_nodes
        best = np.full(ngroups * num_banks, _UNBOUNDED, dtype=np.int64)
        descend = self.elide_policy == "descend"
        lane_arange = np.arange(lanes, dtype=np.int64)
        popped, retry = _refill(lane_arange, *lane_state)
        pending_left = num_machines - popped  # machines not yet popped
        while True:
            active = (lane_mach >= 0).nonzero()[0]
            num_active = len(active)
            if num_active == 0:
                if pending_left == 0:
                    break
                popped, retry = _refill(retry, *lane_state)
                pending_left -= popped
                continue

            # ---- one lockstep cycle for every batch with active lanes.
            access_log.append(active)
            agroup = lane_group.take(active)  # sorted: lanes are batch-major
            first = agroup.searchsorted(agroup)
            in_group = agroup.searchsorted(agroup, "right") - first
            g_cycles[agroup] += 1  # once per distinct batch
            rank = (lane_arange[:num_active] - first - g_cycles.take(agroup)) % in_group
            top = sp.take(active) - 1
            nodes = stack.take(active * width + top)
            slots = tin.take(nodes) - lane_tin_root.take(active)
            banks = np.asarray(self.banking.bank_of_slot(slots), dtype=np.int64)

            # Winner per (batch, bank) = lowest rotated-priority rank.
            # Ranks are unique within a batch, so the lowest claim names
            # the winner and, modulo num_nodes, its node; a loser that
            # requested the same node is served by broadcast.
            nb = num_banks or int(banks.max()) + 1
            if len(best) < ngroups * nb:
                best = np.full(ngroups * nb, _UNBOUNDED, dtype=np.int64)
            cell = agroup * nb + banks
            claim = rank * num_nodes + nodes
            np.minimum.at(best, cell, claim)
            won = best.take(cell)
            best[cell] = _UNBOUNDED
            winner_node = won % num_nodes
            visit = winner_node == nodes
            bcast_log.append(active[visit & (won != claim)])
            amach = lane_mach.take(active)
            if elide is not None:
                elidable = ~visit & (tree.depth.take(nodes) >= elide.take(amach))
                num_elided = np.count_nonzero(elidable)
            else:
                num_elided = 0

            # ---- served fetches (won or broadcast): the normal visit.
            served = visit.nonzero()[0]
            vlanes = active.take(served)
            vnodes = nodes.take(served)
            vtop = top.take(served)
            served_log.append(vlanes)
            vmach = amach.take(served)
            # take() gathers (n, 3) rows several times faster than [].
            delta = queries.take(vmach, 0) - tree.points.take(vnodes, 0)
            in_ball = np.einsum("ij,ij->i", delta, delta) <= r2.take(vmach)
            freed = []
            hits = in_ball.nonzero()[0]
            if len(hits):
                hit_mach = vmach.take(hits)
                room[hit_mach] -= 1
                hit_mach_log.append(hit_mach)
                hit_pid_log.append(self.point_id.take(vnodes.take(hits)))
                full_now = in_ball & (room.take(vmach) == 0)
                if np.count_nonzero(full_now):
                    # A filling visit ends its machine and pushes no children.
                    freed.append(vlanes[full_now])
                    push = (~full_now).nonzero()[0]
                    vlanes, vnodes = vlanes.take(push), vnodes.take(push)
                    vtop, vmach = vtop.take(push), vmach.take(push)
                    delta = delta.take(push, 0)
            if len(vlanes):
                vsp = self._push_children(
                    stack, width, sp, vlanes, vtop, vnodes, delta, radius.take(vmach),
                    lane_pruned, push_log,
                )
                freed.append(vlanes[vsp == 0])

            # ---- conflicted losers at/below the elision depth.
            if num_elided:
                if descend:
                    # Sec. 4.2: continue from the winner's node when it is
                    # beneath the requested one; drop the subtree otherwise.
                    tin_winner = tin.take(winner_node)
                    sub_ok = (
                        elidable
                        & (tin.take(nodes) <= tin_winner)
                        & (tin_winner < tout.take(nodes))
                    )
                    skip = elidable & ~sub_ok
                    moved = sub_ok.nonzero()[0]
                    if len(moved):
                        dlanes = active.take(moved)
                        dnodes = winner_node.take(moved)
                        elided_log.append(dlanes)
                        push_log.append(dlanes)
                        size = tree.subtree_size
                        lane_skipped[dlanes] += (
                            size.take(nodes.take(moved)) - size.take(dnodes)
                        )
                        # pop + push == replace the top of stack in place
                        stack[dlanes * width + top.take(moved)] = dnodes
                else:
                    skip = elidable
                dropped = skip.nonzero()[0]
                if len(dropped):
                    slanes = active.take(dropped)
                    elided_log.append(slanes)
                    stop = top.take(dropped)
                    sp[slanes] = stop
                    lane_skipped[slanes] += tree.subtree_size.take(nodes.take(dropped))
                    freed.append(slanes[stop == 0])

            # ---- free lanes whose machine finished this cycle; refill
            # them and the lanes a discarded pop left empty in a batch
            # that still has pending machines: every free lane that can pop.
            freed = np.concatenate(freed) if freed else active[:0]
            lane_mach[freed] = -1
            if pending_left and (len(freed) or len(retry)):
                cand = np.sort(np.concatenate((freed, retry)))
                popped, retry = _refill(cand, *lane_state)
                pending_left -= popped

        per_lane = np.stack(
            [
                _count(access_log, lanes),
                _count(served_log, lanes),
                _count(bcast_log, lanes),
                _count(elided_log, lanes),
                _count(push_log, lanes),
                lane_skipped,
                lane_pruned,
            ],
            axis=1,
        )
        per_group = np.concatenate(
            [per_lane.reshape(ngroups, num_pes, 7).sum(axis=1), g_cycles[:, None]],
            axis=1,
        )
        per_job = np.zeros((num_jobs, per_group.shape[1]), dtype=np.int64)
        np.add.at(per_job, group_job, per_group)
        hit_machine, hit_point = _flat(hit_mach_log), _flat(hit_pid_log)
        found = np.bincount(jobs[hit_machine], minlength=num_jobs)
        traversal, sram = self._stats(
            num_jobs, np.bincount(jobs, minlength=num_jobs), per_job, found
        )
        # A stall is a fetch neither served nor elided.
        stalls = per_job[:, 0] - per_job[:, 1] - per_job[:, 3]
        return LockstepResult(
            hit_machine=hit_machine,
            hit_point=hit_point,
            cycles=per_job[:, 7].copy(),
            stalls=stalls,
            group_cycles=g_cycles,
            traversal=traversal,
            sram=sram,
        )

    # ------------------------------------------------------------------
    def run_free(
        self,
        queries: np.ndarray,
        roots: np.ndarray,
        max_hits: np.ndarray,
        radius,
        jobs: Optional[np.ndarray] = None,
        num_jobs: Optional[int] = None,
    ) -> LockstepResult:
        """Run one machine per ``(queries[i], roots[i])`` with no conflicts.

        Equivalent to ``SubtreeSearch.run_to_completion`` per machine —
        identical hits and traversal statistics — but all machines advance
        together, one tree-node visit per machine per iteration.  Same
        arguments as :meth:`run`, minus elision.
        """
        queries, roots, capacity, radius, jobs, num_jobs = self._machines(
            queries, roots, max_hits, radius, jobs, num_jobs
        )
        num_machines = len(roots)
        r2 = radius * radius
        width = self.height + 2
        stack = np.zeros(num_machines * width, dtype=np.int64)  # flat
        sp = np.zeros(num_machines, dtype=np.int64)
        alive = (capacity != 0).nonzero()[0]  # capacity 0: done at creation
        stack[alive * width] = roots.take(alive)
        sp[alive] = 1
        hits_cnt = np.zeros(num_machines, dtype=np.int64)
        visit_log: List[np.ndarray] = []
        push_log: List[np.ndarray] = []
        hit_mach_log: List[np.ndarray] = []
        hit_pid_log: List[np.ndarray] = []
        mach_pruned = np.zeros(num_machines, dtype=np.int64)

        while True:
            act = np.flatnonzero(sp > 0)
            if len(act) == 0:
                break
            top = sp.take(act) - 1
            nodes = stack.take(act * width + top)
            visit_log.append(act)
            delta = queries.take(act, 0) - self.tree.points.take(nodes, 0)
            in_ball = np.einsum("ij,ij->i", delta, delta) <= r2[act]
            push = slice(None)
            if in_ball.any():
                hit_mach = act[in_ball]
                hits_cnt[hit_mach] += 1
                hit_mach_log.append(hit_mach)
                hit_pid_log.append(self.point_id[nodes[in_ball]])
                full_now = in_ball & (hits_cnt[act] >= capacity[act])
                if full_now.any():
                    sp[act[full_now]] = 0  # buffer full: over, no pushes
                    push = ~full_now
            plane = act[push]
            if len(plane):
                self._push_children(
                    stack, width, sp, plane, top[push], nodes[push], delta[push],
                    radius[plane], mach_pruned, push_log,
                )

        zeros = np.zeros(num_machines, dtype=np.int64)
        per_machine = np.stack(
            [zeros, _count(visit_log, num_machines), zeros, zeros,
             _count(push_log, num_machines), zeros, mach_pruned, zeros],
            axis=1,
        )
        per_job = np.zeros((num_jobs, per_machine.shape[1]), dtype=np.int64)
        np.add.at(per_job, jobs, per_machine)
        hit_machine, hit_point = _flat(hit_mach_log), _flat(hit_pid_log)
        found = np.bincount(jobs[hit_machine], minlength=num_jobs)
        traversal, _ = self._stats(
            num_jobs, np.bincount(jobs, minlength=num_jobs), per_job, found
        )
        return LockstepResult(
            hit_machine=hit_machine,
            hit_point=hit_point,
            cycles=np.zeros(num_jobs, dtype=np.int64),
            stalls=np.zeros(num_jobs, dtype=np.int64),
            group_cycles=np.zeros(0, dtype=np.int64),
            traversal=traversal,
            sram=[SramStats() for _ in range(num_jobs)],
        )


def _refill(cand, lane_group, queue, capacity, roots, lane_mach, stack, width, sp):
    """One pop attempt per candidate lane, in lane order (the reference's
    per-iteration refill pass over free PE slots).

    ``cand`` (sorted) must hold every free lane of every batch that still
    has pending machines, so a batch's k-th candidate pops its k-th
    pending machine; ``queue`` is each batch's ``(next, end)`` machine
    pointers.  A popped machine that is already done — its result buffer
    was filled by top-tree hits — is discarded and leaves the lane empty
    for this cycle.  ``stack`` is the flat ``(lanes, width)`` stack
    matrix.  Returns the number of machines popped and the lanes so left
    empty in a batch that still has pending machines (they must be
    candidates of the next refill even if nothing else frees).
    """
    pend, pend_end = queue
    group = lane_group.take(cand)
    mach = pend.take(group) + np.arange(len(cand)) - group.searchsorted(group)
    pop = (mach < pend_end.take(group)).nonzero()[0]
    cand, group, mach = cand.take(pop), group.take(pop), mach.take(pop)
    last = np.ones(len(mach), dtype=bool)  # each batch's last pop
    last[:-1] = group[1:] != group[:-1]
    pend[group[last]] = mach[last] + 1
    live = capacity.take(mach) != 0
    lanes_now, mach_now = cand[live], mach[live]
    lane_mach[lanes_now] = mach_now
    stack[lanes_now * width] = roots.take(mach_now)
    sp[lanes_now] = 1
    dead = ~live
    retry = cand[dead][pend.take(group[dead]) < pend_end.take(group[dead])]
    return len(mach), retry


def _flat(log: List[np.ndarray]) -> np.ndarray:
    """The logged id arrays as one array (empty when nothing was logged)."""
    return np.concatenate(log) if log else np.zeros(0, dtype=np.int64)


def _count(log: List[np.ndarray], n: int) -> np.ndarray:
    """How often each id in ``range(n)`` was logged."""
    return np.bincount(_flat(log), minlength=n)
