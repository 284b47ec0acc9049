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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.config import ApproxSetting, CrescentHardwareConfig
from ..kdtree.build import KdTree
from ..memsim.dram import DramUsage
from ..memsim.energy import EnergyBreakdown
from ..runtime.network import layer_sampling_plan, plan_for
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
    """Anything that can run a search batch with engine-style accounting."""

    def run(
        self,
        tree: KdTree,
        queries: np.ndarray,
        radius: float,
        max_neighbors: int,
        setting: ApproxSetting,
    ) -> Tuple[np.ndarray, np.ndarray, SearchEngineResult]:
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
    def run_layer(
        self,
        points: np.ndarray,
        spec: LayerSpec,
        setting: ApproxSetting,
        rng: Optional[np.random.Generator] = None,
        queries: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, LayerResult]:
        """Execute one layer over ``points``; returns the next layer's points.

        Centroids are either sampled from ``rng`` or passed pre-sampled as
        ``queries`` (the shared-plan path of :meth:`run_many`, where one
        draw serves every setting of a sweep).
        """
        points = np.asarray(points, dtype=np.float64)
        if spec.num_queries > len(points):
            raise ValueError(
                f"layer {spec.name!r} wants {spec.num_queries} queries from "
                f"{len(points)} points"
            )
        if queries is None:
            if rng is None:
                raise ValueError("run_layer needs either rng or queries")
            queries = points[rng.choice(len(points), spec.num_queries, replace=False)]
        tree = self.session.tree_for(points)
        indices, counts, search = self.search_engine.run(
            tree, queries, spec.radius, spec.max_neighbors, setting
        )
        agg = self.aggregation.run(
            indices, num_points=len(points), elide=self.elide_aggregation
        )
        mlp_rows = spec.num_queries * spec.max_neighbors
        mlp = self.systolic.shared_mlp(mlp_rows, list(spec.mlp_channels))

        energy = EnergyBreakdown()
        energy.merge(search.energy)
        energy.merge(agg.energy)
        energy.merge(self.systolic.energy(mlp, self.hw.energy))
        result = LayerResult(
            name=spec.name,
            search_cycles=search.cycles,
            aggregation_cycles=agg.cycles,
            mlp_cycles=mlp.cycles,
            energy=energy,
            search=search,
            aggregation_sram_conflicted=agg.sram.conflicted,
            dram_bytes=search.dram.total_bytes + agg.dram.total_bytes,
        )
        return queries, result

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
        replay them under every setting.
        """
        if plan is None:
            plan = layer_sampling_plan(spec, points, seed)
        result = NetworkResult(name=spec.name)
        for layer, (layer_points, layer_queries) in zip(spec.layers, plan):
            _, layer_result = self.run_layer(
                layer_points, layer, setting, queries=layer_queries
            )
            result.layers.append(layer_result)
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
        split-tree layouts across the grid.
        """
        settings = list(settings)
        grid: List[List[NetworkResult]] = [[] for _ in settings]
        for cloud in clouds:
            plan = plan_for(self.session, spec, cloud, seed)
            for i, setting in enumerate(settings):
                grid[i].append(
                    self.run_network(spec, cloud, setting, seed=seed, plan=plan)
                )
        return grid
