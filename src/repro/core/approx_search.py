"""Fully-streaming approximate neighbor search (paper Sec. 3 + Sec. 4).

:func:`approximate_ball_query` is the functional model of the Crescent
neighbor search engine: it produces the neighbor index matrix a network
layer consumes, under the approximation setting ``h = <h_t, h_e>``, while
collecting the statistics the evaluation reports (nodes visited/skipped,
bank conflicts, lockstep cycles, sub-tree queue occupancy).

The two serialized phases follow the hardware exactly:

1. **Top-tree phase** — every query descends the top tree (binary-search
   descent, no backtracking, points streamed past are distance-tested) and
   is appended to its sub-tree's queue.
2. **Sub-tree phase** — each sub-tree with a non-empty queue is processed
   by ``num_pes`` lockstepped PEs sharing the banked tree buffer.  A
   bank-conflicted fetch at depth ``>= h_e`` is elided: the PE skips the
   node (and hence its whole subtree) and continues with its stack.
   Conflicts above ``h_e`` stall the losing PE for a cycle.

When elision is disabled the result is bit-identical to running the exact
sub-tree-restricted search per query, and the lockstep machinery is only
engaged if the caller asks for conflict/cycle statistics.

This module is the per-step *reference*: :func:`run_subtree_lockstep`
drives one :class:`~repro.kdtree.SubtreeSearch` machine per query, one
Python call per node visit.  Production searches run through
:func:`repro.runtime.approximate_search`, which batches many searches into
one forest cycle loop and is pinned index-, cycle-, stall- and
stat-identical to this function, job by job, by the forest equivalence
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kdtree.build import KdTree
from ..kdtree.exact import knn_search
from ..kdtree.stats import TraversalStats
from ..kdtree.traversal import SubtreeSearch
from ..memsim.sram import SramStats
from .bank_conflict import TreeBufferBanking
from .config import ApproxSetting
from .split_tree import SplitTree, descend_step

__all__ = ["SearchReport", "approximate_ball_query", "run_subtree_lockstep"]


@dataclass
class SearchReport:
    """Everything the evaluation wants to know about one search batch."""

    traversal: TraversalStats = field(default_factory=TraversalStats)
    tree_sram: SramStats = field(default_factory=SramStats)
    lockstep_cycles: int = 0
    stall_cycles: int = 0
    subtrees_loaded: int = 0
    queue_occupancy: Dict[int, int] = field(default_factory=dict)
    # Lockstep cycles per sub-tree batch (conflict-simulated runs only).
    subtree_cycles: Dict[int, int] = field(default_factory=dict)
    top_tree_visits: int = 0

    @property
    def nodes_visited(self) -> int:
        return self.traversal.nodes_visited

    @property
    def nodes_skipped(self) -> int:
        return self.traversal.nodes_skipped


def run_subtree_lockstep(
    machines: List[SubtreeSearch],
    local_slot: Dict[int, int],
    banking: TreeBufferBanking,
    num_pes: int,
    sram: SramStats,
    elide_policy: str = "skip",
) -> Tuple[int, int]:
    """Drive ``machines`` to completion on ``num_pes`` lockstepped PEs.

    Each cycle, every occupied PE attempts to fetch its machine's
    top-of-stack node from the banked tree buffer.  Round-robin arbitration
    (priority rotates by one PE per cycle, the standard fair arbiter) picks
    one winner per bank; losers either elide when the machine permits it,
    or stall and retry next cycle.

    ``elide_policy`` selects what an elided loser does: ``"skip"`` drops
    the requested node and its whole subtree (the paper's shipped design);
    ``"descend"`` additionally continues from the *winner's* node whenever
    that node lies beneath the requested one (the Sec. 4.2 future-work
    optimization — fewer nodes lost, same termination guarantee).

    Returns ``(cycles, stall_cycles)`` and accumulates SRAM stats.
    """
    if elide_policy not in ("skip", "descend"):
        raise ValueError(f"unknown elide_policy {elide_policy!r}")
    pending = list(reversed(machines))  # pop() from the end = FIFO order
    slots: List[Optional[SubtreeSearch]] = [None] * num_pes
    cycles = 0
    stalls = 0
    while True:
        # Refill free PE slots.
        for i in range(num_pes):
            if slots[i] is not None and slots[i].done:
                slots[i] = None
            if slots[i] is None and pending:
                candidate = pending.pop()
                if not candidate.done:
                    slots[i] = candidate
        active = [(i, m) for i, m in enumerate(slots) if m is not None and not m.done]
        if not active:
            if not pending:
                break
            continue
        cycles += 1
        nodes = np.array([m.peek() for _, m in active], dtype=np.int64)
        slot_idx = np.array([local_slot[int(n)] for n in nodes], dtype=np.int64)
        banks = banking.bank_of_slot(slot_idx)
        # Round-robin arbitration: the PE with top priority rotates each
        # cycle so no port can starve the others.
        start = cycles % len(active)
        order = list(range(start, len(active))) + list(range(start))
        served_banks: Dict[int, int] = {}
        served_node: Dict[int, int] = {}
        for j in order:
            (pe, machine), node, bank = active[j], nodes[j], banks[j]
            sram.accesses += 1
            if int(bank) not in served_banks:
                served_banks[int(bank)] = pe
                served_node[int(bank)] = int(node)
                sram.reads_served += 1
                machine.advance(elide=False)
            else:
                sram.conflicted += 1
                winner_node = served_node[int(bank)]
                if winner_node == int(node):
                    # Same address: the winner's read is broadcast and the
                    # loser's fetch is *served* — an ordinary visit in the
                    # traversal stats, never an elision.
                    sram.broadcasts += 1
                    machine.advance(elide=False)
                elif machine.would_elide(int(node)):
                    sram.elided += 1
                    if elide_policy == "descend" and machine.tree.is_descendant(
                        winner_node, int(node)
                    ):
                        machine.advance(elide=True, substitute=winner_node)
                    else:
                        machine.advance(elide=True)
                else:
                    stalls += 1  # retry next cycle
    sram.cycles += cycles
    return cycles, stalls


def approximate_ball_query(
    tree: KdTree,
    queries: np.ndarray,
    radius: float,
    max_neighbors: int,
    setting: ApproxSetting,
    banking: TreeBufferBanking = TreeBufferBanking(),
    num_pes: int = 4,
    simulate_conflicts: Optional[bool] = None,
    record_trace: bool = False,
    elide_policy: str = "skip",
) -> Tuple[np.ndarray, np.ndarray, SearchReport]:
    """Approximate neighbor search over a query batch (per-step reference).

    Same contract as :func:`repro.kdtree.ball_query` — an ``(M, K)`` padded
    index matrix plus true-hit counts — with the Crescent approximations
    applied.  ``simulate_conflicts`` defaults to "on iff the setting uses
    elision" (without elision, conflicts change timing but not results).

    Phase 2 drives one :class:`~repro.kdtree.SubtreeSearch` machine per
    query through :func:`run_subtree_lockstep` (``elide_policy`` as
    there); ``record_trace`` keeps each machine's visit trace.

    With ``setting = ApproxSetting(0, None)`` the output is exactly the
    exact ball query (the baseline), which the tests pin down.
    """
    if max_neighbors <= 0:
        raise ValueError("max_neighbors must be positive")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    setting = setting.scaled_to(tree.height)
    if simulate_conflicts is None:
        simulate_conflicts = setting.uses_elision

    report = SearchReport()
    m = len(queries)

    # ------------------------------------------------------------------
    # Phase 1: top-tree descent (vectorized), collecting streamed-past hits.
    # A query whose branch runs out of children before ``top_height``
    # levels parks at that leaf: it is distance-tested against the leaf
    # once (the fetch that discovered the dead end), not once per
    # remaining level — re-testing inflated ``nodes_visited`` and
    # ``top_tree_visits`` (and the distance-energy term derived from
    # them).
    # ------------------------------------------------------------------
    top_hits: List[List[int]] = [[] for _ in range(m)]
    if setting.top_height > 0:
        current = np.full(m, tree.root, dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        r2 = radius * radius
        visits = 0
        for _ in range(setting.top_height):
            act = np.nonzero(alive)[0]
            if len(act) == 0:
                break
            cur = current[act]
            visits += len(act)
            pts = tree.points[tree.point_id[cur]]
            d2 = ((queries[act] - pts) ** 2).sum(axis=1)
            for k in np.nonzero(d2 <= r2)[0]:
                top_hits[act[k]].append(int(tree.point_id[cur[k]]))
            nxt, parked = descend_step(tree, queries[act], cur)
            if parked.any():
                alive[act[parked]] = False
            current[act[~parked]] = nxt[~parked]
        assigned = current
        report.top_tree_visits = visits
        report.traversal.nodes_visited += visits
    else:
        assigned = np.full(m, tree.root, dtype=np.int64)
    report.traversal.queries += m

    # Queue occupancy (per sub-tree).
    uniq_roots, inverse = np.unique(assigned, return_inverse=True)
    report.queue_occupancy = {
        int(r): int((inverse == i).sum()) for i, r in enumerate(uniq_roots)
    }
    report.subtrees_loaded = len(uniq_roots)

    # ------------------------------------------------------------------
    # Phase 2: per-sub-tree search.
    # ------------------------------------------------------------------
    hits_per_query: List[List[int]] = [list(h) for h in top_hits]
    group_q_ids = [
        np.nonzero(inverse == root_pos)[0] for root_pos in range(len(uniq_roots))
    ]
    split = SplitTree(tree, setting.top_height)
    for root, q_ids in zip(uniq_roots, group_q_ids):
        machines: List[SubtreeSearch] = []
        for qi in q_ids:
            remaining = max_neighbors - len(hits_per_query[qi])
            machines.append(
                SubtreeSearch(
                    tree,
                    queries[qi],
                    radius,
                    root=int(root),
                    max_neighbors=remaining if remaining > 0 else 0,
                    elide_depth=setting.elision_height,
                    stats=report.traversal,
                    record_trace=record_trace,
                )
            )
        if simulate_conflicts:
            nodes = split.subtree_nodes(int(root))
            slot_map = {int(n): i for i, n in enumerate(nodes)}
            cycles, stalls = run_subtree_lockstep(
                machines, slot_map, banking, num_pes, report.tree_sram,
                elide_policy=elide_policy,
            )
            report.lockstep_cycles += cycles
            report.stall_cycles += stalls
            report.subtree_cycles[int(root)] = cycles
        else:
            for machine in machines:
                machine.run_to_completion()
        for qi, machine in zip(q_ids, machines):
            hits_per_query[qi].extend(machine.hits)

    # ------------------------------------------------------------------
    # Assemble the padded index matrix (the ball_query contract).
    # ------------------------------------------------------------------
    indices = np.zeros((m, max_neighbors), dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)
    for qi in range(m):
        # Order-preserving dedup: a short top-tree branch can assign a
        # query to a node it already passed, re-testing those points in
        # phase 2.
        found = list(dict.fromkeys(hits_per_query[qi]))[:max_neighbors]
        counts[qi] = len(found)
        if not found:
            found = knn_search(tree, queries[qi], 1)
        row = found + [found[0]] * (max_neighbors - len(found))
        indices[qi] = row
    return indices, counts, report
