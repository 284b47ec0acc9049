"""Design-space and trade-off drivers (Figs. 8, 9, 22, 23).

These sweep Crescent's two knobs (``h_t``, ``h_e``) and the hardware
configuration (#PEs × #banks), reporting the series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.accelerator import NetworkResult, NetworkSpec, PointCloudAccelerator
from ..accel.baselines import make_mesorasi
from ..accel.search_engine import NeighborSearchEngine
from ..core.config import ApproxSetting, CrescentHardwareConfig
from ..kdtree.build import build_kdtree
from ..memsim.sram import BankedSramConfig
from ..runtime.approx import SearchJob, approximate_search
from ..runtime.network import plan_for, worker_session
from ..runtime.session import SearchSession

__all__ = [
    "nodes_visited_vs_top_height",
    "nodes_skipped_vs_elision_height",
    "hw_sensitivity",
    "knob_performance_sweep",
]


def nodes_visited_vs_top_height(
    points: np.ndarray,
    queries: np.ndarray,
    radius: float,
    max_neighbors: int,
    heights: Sequence[int],
) -> Dict[int, float]:
    """Fig. 8: normalized nodes visited per query vs ``h_t``.

    Normalized to the exact search (``h_t = 0``); monotonically
    non-increasing because a taller top tree shrinks the backtracking
    scope.
    """
    tree = build_kdtree(points)
    searched = approximate_search(
        [
            SearchJob(tree, queries, radius, max_neighbors, ApproxSetting(ht, None))
            for ht in heights
        ]
    )
    results: Dict[int, float] = {}
    base: Optional[float] = None
    for ht, (_, _, report) in zip(heights, searched):
        per_query = report.traversal.nodes_visited / max(report.traversal.queries, 1)
        if base is None:
            base = per_query
        results[int(ht)] = per_query / base
    return results


def nodes_skipped_vs_elision_height(
    points: np.ndarray,
    queries: np.ndarray,
    radius: float,
    max_neighbors: int,
    top_height: int,
    elision_heights: Sequence[int],
    num_pes: int = 8,
) -> Dict[int, float]:
    """Fig. 9: normalized nodes skipped per query vs ``h_e``.

    Normalized to the most aggressive elision height swept; decreases as
    ``h_e`` grows (fewer levels are elidable).
    """
    tree = build_kdtree(points)
    searched = approximate_search(
        [
            SearchJob(tree, queries, radius, max_neighbors, ApproxSetting(top_height, he))
            for he in elision_heights
        ],
        num_pes=num_pes,
    )
    skipped: Dict[int, float] = {}
    for he, (_, _, report) in zip(elision_heights, searched):
        skipped[int(he)] = report.traversal.nodes_skipped / max(
            report.traversal.queries, 1
        )
    peak = max(skipped.values()) or 1.0
    return {he: v / peak for he, v in skipped.items()}


@dataclass
class SensitivityCell:
    num_pes: int
    num_banks: int
    speedup: float
    norm_energy: float


def _sensitivity_cell(
    spec: NetworkSpec,
    points: np.ndarray,
    setting: ApproxSetting,
    pes: int,
    banks: int,
    base_hw: CrescentHardwareConfig,
) -> SensitivityCell:
    """One Fig. 22 grid cell.

    K-d trees and split-tree layouts are geometry-only, so every cell of
    the #PE × #banks grid shares them through the process-wide session
    (:func:`~repro.runtime.worker_session`) — the hardware override
    changes arbitration and timing, not layout.  The sampling plan is
    shared the same way.
    """
    session = worker_session()
    hw = base_hw.with_overrides(
        num_pes=pes,
        tree_buffer=BankedSramConfig(
            size_bytes=base_hw.tree_buffer.size_bytes, num_banks=banks
        ),
    )
    plan = plan_for(session, spec, points, 0)
    baseline = make_mesorasi(hw, session=session).run_network(
        spec, points, ApproxSetting(0, None), plan=plan
    )
    crescent = PointCloudAccelerator(
        hw, NeighborSearchEngine(hw, session=session),
        elide_aggregation=True, session=session,
    ).run_network(spec, points, setting, plan=plan)
    return SensitivityCell(
        num_pes=pes,
        num_banks=banks,
        speedup=baseline.cycles / crescent.cycles,
        norm_energy=crescent.energy.total / baseline.energy.total,
    )


def hw_sensitivity(
    spec: NetworkSpec,
    points: np.ndarray,
    setting: ApproxSetting,
    pes_list: Sequence[int],
    banks_list: Sequence[int],
    base_hw: CrescentHardwareConfig = CrescentHardwareConfig(),
) -> List[SensitivityCell]:
    """Fig. 22: speedup and normalized energy over #PE × #banks.

    Each cell compares Crescent (ANS+BCE) against the Mesorasi baseline
    *on the same hardware configuration*, as the paper does.  Cells run
    bank-major and share trees, split-tree layouts, and centroid plans,
    since none of them depend on the swept hardware.
    """
    points = np.asarray(points, dtype=np.float64)
    return [
        _sensitivity_cell(spec, points, setting, pes, banks, base_hw)
        for banks in banks_list
        for pes in pes_list
    ]


def knob_performance_sweep(
    spec: NetworkSpec,
    points: np.ndarray,
    settings: Sequence[ApproxSetting],
    hw: CrescentHardwareConfig = CrescentHardwareConfig(),
) -> Dict[Tuple[int, Optional[int]], Tuple[float, float]]:
    """Fig. 23 support: speedup and normalized energy per ``<h_t, h_e>``.

    Returns ``{(ht, he): (speedup, norm_energy)}`` against the Mesorasi
    baseline; the accuracy axis comes from the trained models.  The
    settings grid goes through :meth:`PointCloudAccelerator.run_many`
    (one call per elision mode, since BCE flips the aggregation
    discipline), so trees and split-trees are laid out once per cloud.
    """
    session = SearchSession()
    baseline = make_mesorasi(hw, session=session).run_network(
        spec, points, ApproxSetting(0, None),
        plan=plan_for(session, spec, points, 0),
    )
    settings = list(settings)
    runs: Dict[Tuple[int, Optional[int]], "NetworkResult"] = {}
    for elide in (False, True):
        subset = [s for s in settings if s.uses_elision == elide]
        if not subset:
            continue
        # Default-constructed engine: it shares the accelerator's session
        # (shared in turn with the baseline), so trees *and* split-tree
        # layouts pool across the baseline and both elision-mode subsets.
        acc = PointCloudAccelerator(hw, elide_aggregation=elide, session=session)
        for setting, row in zip(subset, acc.run_many(spec, [points], subset)):
            runs[(setting.top_height, setting.elision_height)] = row[0]
    out: Dict[Tuple[int, Optional[int]], Tuple[float, float]] = {}
    for setting in settings:  # preserve the caller's settings order
        run = runs[(setting.top_height, setting.elision_height)]
        out[(setting.top_height, setting.elision_height)] = (
            baseline.cycles / run.cycles,
            run.energy.total / baseline.energy.total,
        )
    return out
