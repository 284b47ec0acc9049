"""Baseline accelerators and prior neighbor-search engines.

Three baselines frame the paper's evaluation (Sec. 6):

* **Mesorasi** — a point cloud accelerator using a Tigris-style neighbor
  search engine plus the same systolic array / aggregation unit as
  Crescent, but with neither approximate search nor bank-conflict elision.
  Modeled as :class:`PointCloudAccelerator` with
  :class:`ExhaustiveSplitSearchEngine` and stall-mode aggregation.
* **Tigris+GPU** — Tigris search engine, feature computation on a mobile
  (Jetson TX2 class) GPU.
* **GPU** — everything on the mobile GPU.

Tigris and QuickNN share the split-tree idea but (a) search sub-trees
*exhaustively* and (b) reload a sub-tree from DRAM whenever its query
buffer fills, instead of staging all queries first.  Both behaviours are
modeled here and ablated in the Fig. 24 bench.

:meth:`ExhaustiveSplitSearchEngine.run_batch` takes a batch of jobs, as
the Crescent engine does, and searches them one by one; each search
assembles its neighbor rows — top-tree hits, then scan hits, truncated
at ``K``, padded, nearest point for rows without hits — in flat array
passes (:func:`repro.runtime.batched.pack_rows`).

The GPU is modeled analytically from workload counters (node visits, MACs,
bytes) with coefficients calibrated so the *relative* gaps match the
paper's published ratios (GPU ≈ 38× Mesorasi's energy, Tigris+GPU ≈ 25×).
Absolute GPU latencies are not meaningful; only bar ordering is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.session import SearchSession

from ..core.config import ApproxSetting, CrescentHardwareConfig, valid_top_heights
from ..core.split_tree import descend_step
from ..kdtree.build import NODE_BYTES, KdTree
from ..memsim.dram import DramModel
from ..memsim.energy import EnergyBreakdown
from ..runtime.approx import SearchJob
from ..runtime.batched import pack_rows, squared_distances
from ..runtime.treebuild import VectorizedSplitTree
from .accelerator import NetworkResult, PointCloudAccelerator
from .pe import PIPELINE_DEPTH
from .search_engine import INDEX_BYTES, QUERY_BYTES, SearchEngineResult
from ..core.approx_search import SearchReport

__all__ = [
    "ExhaustiveSplitSearchEngine",
    "make_mesorasi",
    "GpuCoefficients",
    "GpuModel",
    "gpu_network_result",
    "tigris_gpu_network_result",
]


@functools.lru_cache(maxsize=256)
def _staggered_scan_cost(
    num_nodes: int, num_pes: int, num_banks: int
) -> Tuple[int, int]:
    """Cycles and conflicted accesses for one staggered exhaustive scan.

    ``num_pes`` PEs walk the ``num_nodes`` buffer slots concurrently at
    offsets ``i * (num_nodes // num_pes)``; each cycle the group serializes
    to the worst per-bank occupancy (stall-and-retry, no elision).  A pure
    function of three ints, memoized: a Fig. 14 suite asks for a handful
    of distinct sub-tree sizes hundreds of times.
    """
    if num_nodes == 0 or num_pes == 0:
        return 0, 0
    steps = np.arange(num_nodes)[:, None]
    offsets = (np.arange(num_pes) * max(1, num_nodes // num_pes))[None, :]
    slots = (steps + offsets) % num_nodes
    banks = slots % num_banks
    counts = (banks[:, :, None] == np.arange(num_banks)[None, None, :]).sum(axis=1)
    cycles = int(counts.max(axis=1).sum())
    distinct = (counts > 0).sum(axis=1)
    conflicts = int((num_pes - distinct).sum())
    return cycles, conflicts


class ExhaustiveSplitSearchEngine:
    """Tigris/QuickNN-style neighbor search.

    Splits the tree so each sub-tree fits the tree buffer (choosing the
    *smallest* feasible top height — prior work splits only as much as
    capacity forces), routes queries by top-tree descent, then **scans
    every node of the sub-tree** per query.  PEs pick up queries from the
    queue asynchronously, so their scan positions through the tree buffer
    are staggered; concurrent reads of different slots conflict on banks
    and serialize (the baseline has no elision).  Together with the extra
    work itself — every sub-tree node distance-tested by every query —
    this is the trade Crescent rejects (Sec. 3.4).

    ``reload_on_full_queue=True`` reproduces the prior accelerators' DRAM
    behaviour: a sub-tree is re-fetched for every query-buffer batch.
    ``False`` gives them Crescent's staging (used for ablation).
    """

    def __init__(
        self,
        hw: CrescentHardwareConfig = CrescentHardwareConfig(),
        reload_on_full_queue: bool = True,
    ):
        self.hw = hw
        self.reload_on_full_queue = reload_on_full_queue
        self.query_buffer_capacity = max(1, hw.query_buffer.size_bytes // QUERY_BYTES)

    def _split_height(self, tree: KdTree) -> int:
        lo, hi = valid_top_heights(tree.height, self.hw.tree_buffer_nodes)
        if lo > hi:
            # Tree buffer can't hold any sub-tree split; fall back to the
            # tallest possible split (prior work would recurse here).
            return max(tree.height - 1, 0)
        return min(lo, tree.height - 1)

    def run_batch(
        self, jobs: Sequence[SearchJob]
    ) -> List[Tuple[np.ndarray, np.ndarray, SearchEngineResult]]:
        """Search and account each job in turn."""
        return [
            self.run(job.tree, job.queries, job.radius, job.max_neighbors, job.setting)
            for job in jobs
        ]

    def run(
        self,
        tree: KdTree,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
        setting: ApproxSetting,  # ignored: prior work has no approximation knobs
    ) -> Tuple[np.ndarray, np.ndarray, SearchEngineResult]:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = len(queries)
        ht = self._split_height(tree)
        split = VectorizedSplitTree(tree, ht)
        report = SearchReport()
        report.traversal.queries = m
        r2 = radius * radius

        # One top-tree descent routes every query to its sub-tree and
        # collects its hits as flat (query, point) pairs: the top-tree hits
        # (points streamed past during descent are tested) in level order,
        # then the sub-tree scan hits in buffer order.  Nothing is
        # deduplicated: a branch that runs out of children parks and
        # re-tests its node.
        empty = np.zeros(0, dtype=np.int64)
        hit_rows: List[np.ndarray] = [empty]
        hit_points: List[np.ndarray] = [empty]
        current = np.full(m, tree.root, dtype=np.int64)
        for _ in range(ht):
            point = tree.point_id[current]
            d2 = squared_distances(queries, tree.points[point])
            hit = np.flatnonzero(d2 <= r2)
            hit_rows.append(hit)
            hit_points.append(point[hit])
            nxt, parked = descend_step(tree, queries, current)
            current = np.where(parked, current, nxt)
        top_found = np.bincount(np.concatenate(hit_rows), minlength=m)

        uniq_roots, inverse = np.unique(current, return_inverse=True)
        occupancy = np.bincount(inverse, minlength=len(uniq_roots))
        report.queue_occupancy = dict(zip(uniq_roots.tolist(), occupancy.tolist()))
        report.subtrees_loaded = len(uniq_roots)
        report.top_tree_visits = m * ht
        report.traversal.nodes_visited += m * ht

        compute_cycles = (m // self.hw.num_pes + 1) * ht
        dram = DramModel(self.hw.dram)
        dram.stream(m * QUERY_BYTES)
        dram.stream(split.top_tree_bytes())

        nearest = np.zeros(m, dtype=np.int64)  # the pad of hitless queries
        by_root = np.argsort(inverse, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(occupancy)))
        for pos, root in enumerate(uniq_roots.tolist()):
            q_ids = by_root[bounds[pos] : bounds[pos + 1]]
            nodes = split.subtree_nodes(root)
            node_points = tree.points[tree.point_id[nodes]]
            sub_queries = queries[q_ids]
            # (Q, S) exhaustive distance scan.
            d2 = squared_distances(sub_queries[:, None, :], node_points[None, :, :])
            within = d2 <= r2
            local, slot = np.nonzero(within)
            hit_rows.append(q_ids[local])
            hit_points.append(tree.point_id[nodes[slot]])
            lonely = np.flatnonzero((top_found[q_ids] == 0) & ~within.any(axis=1))
            nearest[q_ids[lonely]] = tree.point_id[nodes[d2[lonely].argmin(axis=1)]]
            visits = len(q_ids) * len(nodes)
            report.traversal.nodes_visited += visits
            # Each PE handles one query, scanning one node per cycle.  PE
            # scan positions are staggered (queries start asynchronously),
            # so each cycle the active PEs read different slots and pay the
            # bank serialization of the worst-hit bank.
            rounds = -(-len(q_ids) // self.hw.num_pes)
            scan_cycles, scan_conflicts = _staggered_scan_cost(
                len(nodes),
                min(self.hw.num_pes, len(q_ids)),
                self.hw.tree_buffer.num_banks,
            )
            compute_cycles += rounds * scan_cycles + PIPELINE_DEPTH - 1
            report.tree_sram.accesses += visits
            report.tree_sram.reads_served += visits
            report.tree_sram.conflicted += rounds * scan_conflicts
            report.stall_cycles += rounds * (scan_cycles - len(nodes))
            # DRAM: reload per query-buffer batch, or load once if staging.
            if self.reload_on_full_queue:
                loads = -(-len(q_ids) // self.query_buffer_capacity)
            else:
                loads = 1
                dram.stream(len(q_ids) * QUERY_BYTES)  # staging writeback
            for _ in range(loads):
                dram.stream(split.subtree_bytes(root))
        dram.stream(m * max_neighbors * INDEX_BYTES)

        # Every query keeps its first K hits, padded with its first hit
        # (the nearest scanned point when it has none).
        (indices, counts), = pack_rows(
            np.concatenate(hit_rows),
            np.concatenate(hit_points),
            [m],
            [max_neighbors],
            lambda rows: nearest[rows],
        )
        report.traversal.neighbors_found += int(counts.sum())

        energy = EnergyBreakdown()
        em = self.hw.energy
        energy.add("dram_streaming", em.dram_streaming(dram.usage.streaming_bytes))
        energy.add("dram_random", em.dram_random(dram.usage.random_bytes))
        energy.add(
            "sram_search",
            em.sram(report.tree_sram.reads_served * NODE_BYTES + m * QUERY_BYTES),
        )
        energy.add("search_datapath", em.distances(report.traversal.nodes_visited))

        cycles = max(compute_cycles, dram.usage.cycles)
        return indices, counts, SearchEngineResult(
            cycles=cycles,
            compute_cycles=compute_cycles,
            dram_cycles=dram.usage.cycles,
            report=report,
            dram=dram.usage,
            energy=energy,
        )


def make_mesorasi(
    hw: CrescentHardwareConfig = CrescentHardwareConfig(),
    session: Optional["SearchSession"] = None,
) -> PointCloudAccelerator:
    """The Mesorasi baseline: Tigris search + stall-mode aggregation.

    ``session`` optionally pools K-d trees with other accelerators in a
    sweep (the search engine itself lays out its own splits).
    """
    return PointCloudAccelerator(
        hw=hw,
        search_engine=ExhaustiveSplitSearchEngine(hw),
        elide_aggregation=False,
        session=session,
    )


# ----------------------------------------------------------------------
# Mobile GPU analytic model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GpuCoefficients:
    """Jetson-TX2-class coefficients, relative to the accelerator's units.

    Calibration targets (paper Sec. 7.2): GPU ≈ 38× and Tigris+GPU ≈ 25×
    Mesorasi's energy; both are substantially slower end-to-end.  The
    coefficients below encode the standard reasons: ~20× worse MAC energy
    (general-purpose datapath + SIMT overheads vs a 16 nm systolic array),
    divergence-limited tree traversal, and random (non-streaming) DRAM for
    gather-heavy stages.
    """

    cycles_per_visit: float = 4.0  # SIMT divergence on tree traversal
    macs_per_cycle: float = 64.0  # effective, memory-bound shared MLP
    e_mac: float = 10.0  # pJ per MAC (vs 0.5 on the accelerator)
    e_visit: float = 30.0  # pJ per traversal step incl. cache traffic
    dram_bytes_per_visit: float = 24.0  # poor locality in neighbor search
    dram_bytes_per_mac: float = 0.25  # activation/weight re-fetch


@dataclass
class GpuModel:
    coeffs: GpuCoefficients = field(default_factory=GpuCoefficients)
    hw: CrescentHardwareConfig = field(default_factory=CrescentHardwareConfig)

    def feature_computation(self, macs: int) -> Tuple[int, EnergyBreakdown]:
        cycles = int(macs / self.coeffs.macs_per_cycle)
        energy = EnergyBreakdown()
        energy.add("gpu_mlp", self.coeffs.e_mac * macs)
        energy.add(
            "dram_random",
            self.hw.energy.dram_random(self.coeffs.dram_bytes_per_mac * macs),
        )
        return cycles, energy

    def neighbor_search(self, visits: int) -> Tuple[int, EnergyBreakdown]:
        cycles = int(visits * self.coeffs.cycles_per_visit)
        energy = EnergyBreakdown()
        energy.add("gpu_search", self.coeffs.e_visit * visits)
        energy.add(
            "dram_random",
            self.hw.energy.dram_random(self.coeffs.dram_bytes_per_visit * visits),
        )
        return cycles, energy


def _workload_counters(result: NetworkResult) -> Tuple[int, int]:
    """Extract (search visits, MLP MACs) from an accelerator run."""
    visits = result.nodes_visited
    macs = 0
    for layer in result.layers:
        # Recover MACs from the energy breakdown (mlp_macs = 0.5 pJ/MAC).
        macs += int(layer.energy.components.get("mlp_macs", 0.0) / 0.5)
    return visits, macs


def gpu_network_result(reference: NetworkResult, gpu: Optional[GpuModel] = None) -> Tuple[int, float]:
    """(cycles, energy pJ) of running the reference workload fully on GPU.

    ``reference`` should be an exact-search accelerator run (it supplies
    the workload counters: exact node visits and MLP MACs).
    """
    gpu = gpu or GpuModel()
    visits, macs = _workload_counters(reference)
    sc, se = gpu.neighbor_search(visits)
    fc, fe = gpu.feature_computation(macs)
    return sc + fc, se.total + fe.total


def tigris_gpu_network_result(
    mesorasi_result: NetworkResult, gpu: Optional[GpuModel] = None
) -> Tuple[int, float]:
    """(cycles, energy pJ) of Tigris search + GPU feature computation."""
    gpu = gpu or GpuModel()
    _, macs = _workload_counters(mesorasi_result)
    fc, fe = gpu.feature_computation(macs)
    search_cycles = mesorasi_result.search_cycles
    search_energy = sum(
        l.search.energy.total for l in mesorasi_result.layers
    )
    return search_cycles + fc, search_energy + fe.total
