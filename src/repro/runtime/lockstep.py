"""Forest lockstep sub-tree search engine.

:func:`repro.core.approx_search.run_subtree_lockstep` is the behavioral
reference for the banked-tree-buffer PE array: it drives one
:class:`~repro.kdtree.SubtreeSearch` machine per queued query, one Python
``advance`` per node visit, one sub-tree batch at a time.

:class:`VectorizedLockstep` computes the *same* simulation with NumPy
array operations, for many searches at once:

* **forest layout** — any number of K-d trees in one
  :class:`~repro.runtime.forest.Forest`: tree ``t``'s node ``i`` is
  forest node ``roots[t] + i``, with forest-wide Euler ``tin``/``tout``
  intervals from one level-synchronous pass;
* every PE slot of every sub-tree batch is one row of a ``(lanes, depth)``
  stack matrix (``lanes = num_batches x num_pes``), so all sub-tree
  batches of all trees advance concurrently — the cycle loop runs as long
  as the longest batch instead of the sum over batches and searches;
* each machine carries its own radius, result capacity and elision depth,
  so searches with different settings share the loop;
* each iteration performs arbitration (rotating round-robin priority, one
  winner per ``(batch, bank)``), broadcast detection (same-address losers
  observe the winner's read), elision (conflicted fetches at or below the
  machine's elision depth drop their subtree) and stall bookkeeping as
  whole-array masks;
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
from .forest import Forest

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

    def _push_children(self, stack, sp, rows, nodes, delta, radius, pruned, log):
        """A served visit's pushes onto the ``rows`` of ``stack``: the far
        child when the splitting plane lies within ``radius`` (its subtree
        size is added to ``pruned`` otherwise), then the near child on
        top.  ``delta`` is query minus node point; the split value is the
        node point's coordinate, so the plane distance is one of its
        entries."""
        diff = delta[np.arange(len(rows)), self.tree.split_dim[nodes]]
        go_left = diff <= 0
        near = np.where(go_left, self.tree.left[nodes], self.tree.right[nodes])
        far = np.where(go_left, self.tree.right[nodes], self.tree.left[nodes])
        far_exists = far >= 0
        within = np.abs(diff) <= radius
        push_far = far_exists & within
        cut = far_exists & ~within
        if cut.any():
            pruned[rows[cut]] += self.tree.subtree_size[far[cut]]
        frows = rows[push_far]
        stack[frows, sp[frows]] = far[push_far]
        sp[frows] += 1
        nrows = rows[near >= 0]
        stack[nrows, sp[nrows]] = near[near >= 0]
        sp[nrows] += 1
        log.append(frows)
        log.append(nrows)

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
        pend = group_start.copy()
        pend_end = np.append(group_start[1:], num_machines)
        group_job = jobs[group_start]
        num_pes = self.num_pes
        lanes = ngroups * num_pes
        lane_group = np.repeat(np.arange(ngroups, dtype=np.int64), num_pes)
        lane_tin_root = np.repeat(self.tree.tin[roots[group_start]], num_pes)
        stack = np.zeros((lanes, self.height + 2), dtype=np.int64)
        sp = np.zeros(lanes, dtype=np.int64)
        lane_mach = np.full(lanes, -1, dtype=np.int64)
        hits_cnt = np.zeros(num_machines, dtype=np.int64)
        g_cycles = np.zeros(ngroups, dtype=np.int64)
        pending_left = num_machines  # machines not yet popped from a queue

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

        def refill() -> bool:
            """One pop attempt per free lane, in PE slot order (the
            reference's per-iteration refill pass).  A popped machine that
            is already done — its result buffer was filled by top-tree
            hits — is discarded and leaves the slot empty for this cycle.
            Returns whether such a lane's batch still has pending machines
            (it needs another refill pass even if nothing else frees)."""
            nonlocal pending_left
            free = (lane_mach < 0).reshape(ngroups, num_pes)
            # The k-th free slot of a batch pops its k-th pending machine.
            mach = np.cumsum(free, axis=1) + (pend - 1)[:, None]
            pop = free & (mach < pend_end[:, None])
            lanes_now = np.flatnonzero(pop)
            if len(lanes_now) == 0:
                return False
            pend[:] += pop.sum(axis=1)
            mach = mach.reshape(-1)[lanes_now]
            pending_left -= len(mach)
            live = capacity[mach] != 0
            retry = False
            if not live.all():
                retry = bool(
                    (~live & (mach + 1 < pend_end[lane_group[lanes_now]])).any()
                )
                lanes_now, mach = lanes_now[live], mach[live]
            lane_mach[lanes_now] = mach
            stack[lanes_now, 0] = roots[mach]
            sp[lanes_now] = 1
            return retry

        num_banks = getattr(self.banking, "num_banks", 0)
        descend = self.elide_policy == "descend"
        lane_arange = np.arange(lanes, dtype=np.int64)
        retry_refill = refill()
        while True:
            active = np.flatnonzero(lane_mach >= 0)
            num_active = len(active)
            if num_active == 0:
                if pending_left == 0:
                    break
                retry_refill = refill()
                continue  # batches with pending machines refill next pass

            # ---- one lockstep cycle for every batch with active lanes.
            access_log.append(active)
            agroup = lane_group[active]
            n_active = np.bincount(agroup, minlength=ngroups)
            g_cycles += n_active > 0
            in_group = n_active[agroup]
            apos = lane_arange[:num_active] - (np.cumsum(n_active) - n_active)[agroup]
            rank = (apos - g_cycles[agroup] % in_group) % in_group
            nodes = stack[active, sp[active] - 1]
            slots = self.tree.tin[nodes] - lane_tin_root[active]
            banks = np.asarray(self.banking.bank_of_slot(slots), dtype=np.int64)

            # Winner per (batch, bank) = lowest rotated-priority rank.
            # Ranks are unique within a batch, so the composite key is
            # unique and a plain (unstable) argsort suffices.
            nb = num_banks or int(banks.max()) + 1
            key = (agroup * nb + banks) * num_pes + rank
            order = np.argsort(key)
            seg = key[order] // num_pes  # (batch, bank) segment id
            new_seg = np.empty(num_active, dtype=bool)
            new_seg[0] = True
            new_seg[1:] = seg[1:] != seg[:-1]
            winner_idx = np.empty(num_active, dtype=np.int64)
            winner_idx[order] = order[new_seg][np.cumsum(new_seg) - 1]
            is_winner = winner_idx == lane_arange[:num_active]
            winner_node = nodes[winner_idx]
            bcast = ~is_winner & (winner_node == nodes)
            bcast_log.append(active[bcast])
            if elide is not None:
                elidable = (
                    ~is_winner & ~bcast
                    & (self.tree.depth[nodes] >= elide[lane_mach[active]])
                )
                num_elided = int(np.count_nonzero(elidable))
            else:
                num_elided = 0

            # ---- served fetches (won or broadcast): the normal visit.
            visit = is_winner | bcast
            vlanes = active[visit]
            vnodes = nodes[visit]
            served_log.append(vlanes)
            sp[vlanes] -= 1
            vmach = lane_mach[vlanes]
            delta = queries[vmach] - self.tree.points[vnodes]
            in_ball = np.einsum("ij,ij->i", delta, delta) <= r2[vmach]
            full_now = None
            if in_ball.any():
                hit_mach = vmach[in_ball]
                hits_cnt[hit_mach] += 1
                hit_mach_log.append(hit_mach)
                hit_pid_log.append(self.point_id[vnodes[in_ball]])
                full_now = in_ball & (hits_cnt[vmach] >= capacity[vmach])
                if not full_now.any():
                    full_now = None
            if full_now is not None:
                push = ~full_now  # a filling visit pushes no children
                plane, pnode, pdelta = vlanes[push], vnodes[push], delta[push]
                pmach = vmach[push]
            else:
                plane, pnode, pdelta, pmach = vlanes, vnodes, delta, vmach
            if len(plane):
                self._push_children(
                    stack, sp, plane, pnode, pdelta, radius[pmach], lane_pruned, push_log
                )

            # ---- conflicted losers at/below the elision depth.
            slanes = ()
            if num_elided:
                if descend:
                    # Sec. 4.2: continue from the winner's node when it is
                    # beneath the requested one; drop the subtree otherwise.
                    sub_ok = elidable & (
                        (self.tree.tin[nodes] <= self.tree.tin[winner_node])
                        & (self.tree.tin[winner_node] < self.tree.tout[nodes])
                    )
                    skip = elidable & ~sub_ok
                    dlanes = active[sub_ok]
                    if len(dlanes):
                        elided_log.append(dlanes)
                        push_log.append(dlanes)
                        size = self.tree.subtree_size
                        lane_skipped[dlanes] += (
                            size[nodes[sub_ok]] - size[winner_node[sub_ok]]
                        )
                        # pop + push == replace the top of stack in place
                        stack[dlanes, sp[dlanes] - 1] = winner_node[sub_ok]
                else:
                    skip = elidable
                slanes = active[skip]
                if len(slanes):
                    elided_log.append(slanes)
                    sp[slanes] -= 1
                    lane_skipped[slanes] += self.tree.subtree_size[nodes[skip]]

            # ---- free lanes whose machine finished this cycle; refill.
            # Only served (stack may be empty / buffer full) and elided
            # (stack may be empty) lanes can finish.
            if full_now is not None:
                vdone = vlanes[(sp[vlanes] == 0) | full_now]
            else:
                vdone = vlanes[sp[vlanes] == 0]
            lane_mach[vdone] = -1
            freed = len(vdone)
            if len(slanes):
                sdone = slanes[sp[slanes] == 0]
                lane_mach[sdone] = -1
                freed += len(sdone)
            if pending_left and (freed or retry_refill):
                retry_refill = refill()

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
        stack = np.zeros((num_machines, self.height + 2), dtype=np.int64)
        sp = np.zeros(num_machines, dtype=np.int64)
        alive = capacity != 0  # capacity-0 machines are done at creation
        stack[alive, 0] = roots[alive]
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
            nodes = stack[act, sp[act] - 1]
            visit_log.append(act)
            sp[act] -= 1
            delta = queries[act] - self.tree.points[nodes]
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
                    stack, sp, plane, nodes[push], delta[push], radius[plane],
                    mach_pruned, push_log,
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


def _flat(log: List[np.ndarray]) -> np.ndarray:
    """The logged id arrays as one array (empty when nothing was logged)."""
    return np.concatenate(log) if log else np.zeros(0, dtype=np.int64)


def _count(log: List[np.ndarray], n: int) -> np.ndarray:
    """How often each id in ``range(n)`` was logged."""
    return np.bincount(_flat(log), minlength=n)
