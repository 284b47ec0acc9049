"""The Crescent neighbor search engine (paper Sec. 3.2, Fig. 7).

Combines the functional approximate search
(:func:`repro.runtime.approximate_search`) with cycle and energy
accounting.  :meth:`NeighborSearchEngine.run_batch` searches every job of
a batch in one forest pass — a whole Fig. 14 suite's layers at once — and
then accounts each job on its own; :meth:`NeighborSearchEngine.run` is the
one-job case.  Per job:

* **Phase 1 (top tree)** — queries stream through the PEs in groups of
  ``num_pes``, descending level-synchronously.  Fetches of the *same* node
  by several PEs are broadcast (one bank read serves all ports); fetches of
  different nodes in the same bank stall, since elision is not applied in
  the top-tree phase (a dropped fetch would leave the query unrouted).
* **Phase 2 (sub-trees)** — the forest lockstep simulation provides
  per-sub-tree visit cycles and stalls; the five-stage-PE timing
  contract (verified in :mod:`repro.accel.pe`) converts them to cycles.
* **DRAM** — every transfer is a streaming DMA by construction of the
  split-tree layout: queries in, top tree in, staged queries out/in, each
  needed sub-tree in exactly once, neighbor indices out.  Double-buffering
  overlaps DMA with compute, so phase time is ``max(compute, dma)``.

Jobs in one batch share the engine's hardware (banking, PE count), so
their cycle counts equal those of separate runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.session import SearchSession

from ..core.approx_search import SearchReport
from ..core.bank_conflict import TreeBufferBanking
from ..core.config import ApproxSetting, CrescentHardwareConfig
from ..core.split_tree import SplitTree
from ..kdtree.build import NODE_BYTES, KdTree
from ..memsim.dram import DramModel, DramUsage
from ..memsim.energy import EnergyBreakdown
from ..runtime.approx import SearchJob, approximate_search
from ..runtime.topphase import vectorized_top_phase
from ..runtime.treebuild import VectorizedSplitTree
from .pe import PIPELINE_DEPTH

__all__ = ["SearchEngineResult", "NeighborSearchEngine", "QUERY_BYTES", "INDEX_BYTES"]

QUERY_BYTES = 16  # x, y, z (float32) + query id
INDEX_BYTES = 4  # one neighbor index


@dataclass
class SearchEngineResult:
    """Timing, memory, and energy outcome of one search batch."""

    cycles: int
    compute_cycles: int
    dram_cycles: int
    report: SearchReport = field(default_factory=SearchReport)
    dram: DramUsage = field(default_factory=DramUsage)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    top_phase_cycles: int = 0
    sub_phase_cycles: int = 0
    top_phase_stalls: int = 0


class NeighborSearchEngine:
    """Batch-level model of the Crescent search engine.

    ``session`` (optional) pools K-d split-tree layouts across calls —
    a sweep that reruns the same tree under many settings lays the memory
    image out once per ``h_t``; see
    :meth:`repro.runtime.SearchSession.split_tree_for`.
    """

    def __init__(
        self,
        hw: CrescentHardwareConfig = CrescentHardwareConfig(),
        session: Optional["SearchSession"] = None,
    ):
        self.hw = hw
        self.banking = TreeBufferBanking(num_banks=hw.tree_buffer.num_banks)
        self.session = session

    def _split_for(self, tree: KdTree, top_height: int) -> SplitTree:
        if self.session is not None:
            return self.session.split_tree_for(tree, top_height)
        return VectorizedSplitTree(tree, top_height)

    # ------------------------------------------------------------------
    def _top_phase(
        self, split: SplitTree, queries: np.ndarray
    ) -> Tuple[int, int]:
        """Cycles and stalls of the level-synchronous top-tree descent.

        Fetches go through the *top-tree buffer slot* (the node's position
        in the streamed top-tree image) — the same record-interleaved
        layout convention the sub-tree phase banks on, not the global node
        id.  Stall accounting is per losing PE: every PE whose node is not
        the bank's first-served request waits out the serialization, so a
        bank serving ``c`` distinct nodes for ``p`` PEs charges ``p``
        minus the first-served node's PE count stalls (PEs fetching the
        same node share one broadcast read and are served together).  A
        query whose branch runs out of children early parks: it issues no
        further fetches, matching the functional phase-1 accounting — and
        a group whose queries all park before issuing any fetch is not
        charged the pipeline fill/drain.  All groups advance together
        through :func:`repro.runtime.vectorized_top_phase`; the per-group
        loop survives as :func:`repro.runtime.reference_top_phase`,
        pinned identical by the randomized equivalence suite.
        """
        return vectorized_top_phase(
            split,
            queries,
            self.hw.num_pes,
            self.banking,
            fill_cycles=PIPELINE_DEPTH - 1,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        tree: KdTree,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
        setting: ApproxSetting,
    ) -> Tuple[np.ndarray, np.ndarray, SearchEngineResult]:
        """Search ``queries`` and account cycles/energy for the whole batch."""
        job = SearchJob(tree, queries, radius, max_neighbors, setting)
        return self.run_batch([job])[0]

    def run_batch(
        self, jobs: Sequence[SearchJob]
    ) -> List[Tuple[np.ndarray, np.ndarray, SearchEngineResult]]:
        """Search every job in one forest pass; account each job alone.

        Returns ``(indices, counts, result)`` per job, each equal to
        ``run(job.tree, job.queries, job.radius, job.max_neighbors,
        job.setting)``.  Conflicts are always simulated (the engine
        reports lockstep cycles), whatever ``job.simulate_conflicts`` says.
        """
        jobs = [
            SearchJob(
                job.tree,
                np.atleast_2d(np.asarray(job.queries, dtype=np.float64)),
                job.radius,
                job.max_neighbors,
                job.setting.scaled_to(job.tree.height),
                True,
            )
            for job in jobs
        ]
        outcomes = approximate_search(
            jobs, banking=self.banking, num_pes=self.hw.num_pes
        )
        return [
            (indices, counts, self._account(job, report))
            for job, (indices, counts, report) in zip(jobs, outcomes)
        ]

    def _account(self, job: SearchJob, report: SearchReport) -> SearchEngineResult:
        """Cycles, DRAM and energy of one searched job (setting scaled)."""
        hw = self.hw
        queries, setting = job.queries, job.setting
        split = self._split_for(job.tree, setting.top_height)
        m = len(queries)

        # ---------------- compute cycles ----------------
        top_cycles, top_stalls = self._top_phase(split, queries)
        # Lockstep cycles count one visit slot per PE-cycle including
        # arbitration; add the pipeline fill per sub-tree batch.
        sub_cycles = report.lockstep_cycles + report.subtrees_loaded * (
            PIPELINE_DEPTH - 1
        )
        compute_cycles = top_cycles + sub_cycles

        # ---------------- DRAM (all streaming) ----------------
        dram = DramModel(hw.dram)
        dram.stream(m * QUERY_BYTES)  # queries in (phase 1)
        dram.stream(split.top_tree_bytes())  # top tree in
        if setting.top_height > 0:
            dram.stream(m * QUERY_BYTES)  # staged queries out
            dram.stream(m * QUERY_BYTES)  # staged queries back in (phase 2)
        for root, occupancy in report.queue_occupancy.items():
            if occupancy > 0:
                dram.stream(split.subtree_bytes(int(root)))
        dram.stream(m * job.max_neighbors * INDEX_BYTES)  # index matrix out

        dram_cycles = dram.usage.cycles
        cycles = max(compute_cycles, dram_cycles)  # double-buffered overlap

        # ---------------- energy ----------------
        energy = EnergyBreakdown()
        em = hw.energy
        energy.add("dram_streaming", em.dram_streaming(dram.usage.streaming_bytes))
        energy.add("dram_random", em.dram_random(dram.usage.random_bytes))
        tree_reads = report.tree_sram.reads_served + report.top_tree_visits
        energy.add("sram_search", em.sram(tree_reads * NODE_BYTES))
        energy.add("sram_search", em.sram(m * QUERY_BYTES))  # query buffer reads
        visits = report.traversal.nodes_visited
        energy.add("search_datapath", em.distances(visits))
        energy.add(
            "search_datapath",
            em.stack_ops(report.traversal.stack_pushes + report.traversal.stack_pops),
        )

        return SearchEngineResult(
            cycles=cycles,
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            report=report,
            dram=dram.usage,
            energy=energy,
            top_phase_cycles=top_cycles,
            sub_phase_cycles=sub_cycles,
            top_phase_stalls=top_stalls,
        )
