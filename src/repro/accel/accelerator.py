"""End-to-end point cloud DNN accelerator model (paper Fig. 12).

The accelerator couples three engines per network layer:

1. the **neighbor search engine** (Crescent's, or a baseline's),
2. the **aggregation unit** gathering neighbors through the point buffer,
3. the **systolic array** running the layer's shared MLP.

Workloads are described by :class:`LayerSpec`/:class:`NetworkSpec` — the
same abstraction the paper uses ("a point cloud network layer = neighbor
search + feature computation") — and driven over concrete point clouds so
the search behaviour is real, not statistical.  Layer stages are
serialized, as in the paper's pipeline (search produces the neighbor index
matrix that aggregation consumes, which feeds the MLP).

The sampling plan (:func:`~repro.runtime.network.layer_sampling_plan`)
fixes every layer's search before the first one runs, so
:func:`run_networks` simulates a layer in three steps — plan it, search
all planned layers with one ``run_batch`` call per engine, then account
it — at the widest scope its caller allows: a whole Fig. 14 suite,
:meth:`PointCloudAccelerator.run_many`'s settings-by-clouds grid, or one
:meth:`~PointCloudAccelerator.run_network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.config import ApproxSetting, CrescentHardwareConfig
from ..memsim.energy import EnergyBreakdown
from ..runtime.approx import SearchJob
from ..runtime.network import LayerPlan, layer_sampling_plan, plan_for
from ..runtime.session import SearchSession
from .aggregation import AggregationUnit
from .search_engine import NeighborSearchEngine, SearchEngineResult
from .systolic import SystolicArray

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "LayerResult",
    "NetworkResult",
    "PointCloudAccelerator",
    "SearchEngineProtocol",
    "run_networks",
]


@dataclass(frozen=True)
class LayerSpec:
    """One set-abstraction layer: search + aggregate + shared MLP."""

    name: str
    num_queries: int  # centroids searched this layer
    radius: float
    max_neighbors: int  # K
    mlp_channels: Tuple[int, ...]  # (C_in, ..., C_out), applied per neighbor

    def __post_init__(self) -> None:
        if self.num_queries <= 0 or self.max_neighbors <= 0:
            raise ValueError("num_queries and max_neighbors must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if len(self.mlp_channels) < 2:
            raise ValueError("mlp_channels needs input and output widths")


@dataclass(frozen=True)
class NetworkSpec:
    """A point cloud network as a sequence of search layers."""

    name: str
    layers: Tuple[LayerSpec, ...]
    # Fraction of MLP work outside search layers (classifier head, feature
    # propagation):  modeled as extra MLP rows on the last layer's widths.
    head_mlp_rows: int = 0
    head_mlp_channels: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a network needs at least one layer")


class SearchEngineProtocol(Protocol):
    """Anything that can search a batch of jobs with engine-style accounting.

    ``run_batch`` returns ``(indices, counts, result)`` per job, in order.
    """

    def run_batch(
        self, jobs: Sequence[SearchJob]
    ) -> List[Tuple[np.ndarray, np.ndarray, SearchEngineResult]]:
        ...


@dataclass
class LayerResult:
    name: str
    search_cycles: int
    aggregation_cycles: int
    mlp_cycles: int
    energy: EnergyBreakdown
    search: SearchEngineResult
    aggregation_sram_conflicted: int
    dram_bytes: int

    @property
    def cycles(self) -> int:
        return self.search_cycles + self.aggregation_cycles + self.mlp_cycles


@dataclass
class NetworkResult:
    name: str
    layers: List[LayerResult] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return sum(l.cycles for l in self.layers)

    @property
    def search_cycles(self) -> int:
        return sum(l.search_cycles for l in self.layers)

    @property
    def aggregation_cycles(self) -> int:
        return sum(l.aggregation_cycles for l in self.layers)

    @property
    def mlp_cycles(self) -> int:
        return sum(l.mlp_cycles for l in self.layers)

    @property
    def energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for l in self.layers:
            total.merge(l.energy)
        return total

    @property
    def dram_bytes(self) -> int:
        return sum(l.dram_bytes for l in self.layers)

    @property
    def nodes_visited(self) -> int:
        return sum(l.search.report.traversal.nodes_visited for l in self.layers)


class PointCloudAccelerator:
    """A full accelerator: search engine + aggregation + systolic array.

    ``elide_aggregation`` selects the point-buffer service discipline
    (Crescent's BCE vs the baseline's stall-and-retry).

    ``session`` owns the K-d tree (and, for the default Crescent engine,
    split-tree) caches, so sweeps that revisit the same clouds —
    ``run_many``, the Fig. 22/23 drivers, repeated ``run_network`` calls —
    stop rebuilding trees per layer call.  One private session per
    accelerator by default; pass a shared one to pool across accelerators.
    """

    def __init__(
        self,
        hw: CrescentHardwareConfig = CrescentHardwareConfig(),
        search_engine: Optional[SearchEngineProtocol] = None,
        elide_aggregation: bool = False,
        session: Optional[SearchSession] = None,
    ):
        self.hw = hw
        self.session = session if session is not None else SearchSession()
        self.search_engine = search_engine or NeighborSearchEngine(
            hw, session=self.session
        )
        self.aggregation = AggregationUnit(hw)
        self.systolic = SystolicArray(hw.systolic_rows, hw.systolic_cols)
        self.elide_aggregation = elide_aggregation

    # ------------------------------------------------------------------
    def _account(
        self,
        spec: NetworkSpec,
        plan: LayerPlan,
        searched: Sequence[Tuple[np.ndarray, np.ndarray, SearchEngineResult]],
    ) -> NetworkResult:
        """Aggregation, MLP and head of one network whose layers are searched."""
        result = NetworkResult(name=spec.name)
        for layer, (points, _), searched_layer in zip(spec.layers, plan, searched):
            indices, _, search = searched_layer
            agg = self.aggregation.run(
                indices, num_points=len(points), elide=self.elide_aggregation
            )
            mlp_rows = layer.num_queries * layer.max_neighbors
            mlp = self.systolic.shared_mlp(mlp_rows, list(layer.mlp_channels))
            energy = EnergyBreakdown()
            energy.merge(search.energy)
            energy.merge(agg.energy)
            energy.merge(self.systolic.energy(mlp, self.hw.energy))
            result.layers.append(
                LayerResult(
                    name=layer.name,
                    search_cycles=search.cycles,
                    aggregation_cycles=agg.cycles,
                    mlp_cycles=mlp.cycles,
                    energy=energy,
                    search=search,
                    aggregation_sram_conflicted=agg.sram.conflicted,
                    dram_bytes=search.dram.total_bytes + agg.dram.total_bytes,
                )
            )
        if spec.head_mlp_rows > 0 and spec.head_mlp_channels:
            head = self.systolic.shared_mlp(
                spec.head_mlp_rows, list(spec.head_mlp_channels)
            )
            energy = self.systolic.energy(head, self.hw.energy)
            result.layers.append(
                LayerResult(
                    name=f"{spec.name}/head",
                    search_cycles=0,
                    aggregation_cycles=0,
                    mlp_cycles=head.cycles,
                    energy=energy,
                    search=SearchEngineResult(0, 0, 0),
                    aggregation_sram_conflicted=0,
                    dram_bytes=head.weight_dram_bytes,
                )
            )
        return result

    # ------------------------------------------------------------------
    def run_network(
        self,
        spec: NetworkSpec,
        points: np.ndarray,
        setting: ApproxSetting,
        seed: int = 0,
        plan: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> NetworkResult:
        """Execute every layer of ``spec`` starting from ``points``.

        Each layer's query set (the sampled centroids) becomes the next
        layer's point population, mirroring hierarchical set abstraction.
        ``plan`` optionally supplies the per-layer ``(points, queries)``
        chain pre-sampled by
        :func:`~repro.runtime.network.layer_sampling_plan` — bit-identical
        to sampling here, so sweeps draw each cloud's centroids once and
        replay them under every setting.  The one-run case of
        :func:`run_networks`.
        """
        if plan is None:
            plan = layer_sampling_plan(spec, points, seed)
        return run_networks([(self, spec, setting, plan)])[0]

    # ------------------------------------------------------------------
    def run_many(
        self,
        spec: NetworkSpec,
        clouds: Sequence[np.ndarray],
        settings: Sequence[ApproxSetting],
        seed: int = 0,
    ) -> List[List[NetworkResult]]:
        """Run ``spec`` for every ``settings x clouds`` combination.

        The network-level sweep entry: ``results[i][j]`` is
        ``run_network(spec, clouds[j], settings[i], seed)``, so a figure
        driver gets its whole settings-by-clouds grid in one call.  Each
        cloud is sampled once (:func:`~repro.runtime.network.plan_for`)
        and the plan replayed under every setting through this
        accelerator's shared session, which reuses each cloud's trees and
        split-tree layouts across the grid; the grid is one
        :func:`run_networks` call, so every layer search of it runs in one
        engine batch.
        """
        settings = list(settings)
        plans = [plan_for(self.session, spec, cloud, seed) for cloud in clouds]
        flat = run_networks(
            [(self, spec, setting, plan) for setting in settings for plan in plans]
        )
        n = len(plans)
        return [flat[i * n : (i + 1) * n] for i in range(len(settings))]


NetworkRun = Tuple[PointCloudAccelerator, NetworkSpec, ApproxSetting, LayerPlan]


def run_networks(runs: Sequence[NetworkRun]) -> List[NetworkResult]:
    """Simulate every run, each search engine searching all its layers at once.

    A run is ``(accelerator, spec, setting, plan)``: ``spec`` on
    ``accelerator`` under ``setting``, over ``plan``'s per-layer
    ``(points, queries)`` chain (:func:`~repro.runtime.network.layer_sampling_plan`;
    its first layer's points are the input cloud).  Three steps:

    1. **plan** — every layer of every run becomes a
       :class:`~repro.runtime.SearchJob` on its accelerator's session tree,
       each session's trees coming from one ``trees_for`` call;
    2. **search** — each search-engine object gets all of its jobs in one
       ``run_batch``, so accelerators that share an engine (ANS and
       ANS+BCE of a suite) share one forest pass;
    3. **account** — aggregation, MLP and the head run per layer on the
       run's own accelerator.

    ``results[i]`` equals ``accelerator.run_network(spec, cloud, setting,
    plan=plan)`` of ``runs[i]`` alone, bit for bit.
    """
    clouds: Dict[int, Tuple[SearchSession, List[np.ndarray]]] = {}
    for acc, spec, _, plan in runs:
        layer_clouds = clouds.setdefault(id(acc.session), (acc.session, []))[1]
        layer_clouds.extend(points for _, (points, _) in zip(spec.layers, plan))
    trees = {
        key: iter(session.trees_for(layer_clouds))
        for key, (session, layer_clouds) in clouds.items()
    }
    batches: Dict[int, Tuple[SearchEngineProtocol, List[SearchJob]]] = {}
    spans = []  # each run's slice of its engine's jobs
    for acc, spec, setting, plan in runs:
        engine = acc.search_engine
        jobs = batches.setdefault(id(engine), (engine, []))[1]
        start = len(jobs)
        for layer, (_, queries), tree in zip(spec.layers, plan, trees[id(acc.session)]):
            jobs.append(
                SearchJob(tree, queries, layer.radius, layer.max_neighbors, setting)
            )
        spans.append((start, len(jobs)))
    searched = {key: engine.run_batch(jobs) for key, (engine, jobs) in batches.items()}
    return [
        acc._account(spec, plan, searched[id(acc.search_engine)][start:stop])
        for (acc, spec, _, plan), (start, stop) in zip(runs, spans)
    ]
