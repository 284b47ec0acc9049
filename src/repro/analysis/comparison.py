"""Evaluation comparisons (Figs. 14–17, 24): Crescent vs baselines.

One shared runner executes the whole Table-1 suite on every accelerator
variant so the benches for Figs. 14, 15, 16, 17, and 24 all read from a
consistent set of results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..accel.accelerator import NetworkResult, PointCloudAccelerator
from ..accel.baselines import (
    ExhaustiveSplitSearchEngine,
    gpu_network_result,
    make_mesorasi,
    tigris_gpu_network_result,
)
from ..accel.search_engine import NeighborSearchEngine
from ..accel.workloads import evaluation_hardware, evaluation_networks, workload_points
from ..core.config import ApproxSetting, CrescentHardwareConfig
from ..runtime.network import plan_for, worker_session

__all__ = ["SuiteResult", "run_evaluation_suite", "energy_saving_contributions"]

# The settings the paper's headline results use (Fig. 13/14): h_t = 4 and
# h_e = 12 on trees of height ~14–21; our workload trees are height 11–12,
# so the equivalent elision height sits ~3 levels below the leaves.
HEADLINE_SETTING_ANS = ApproxSetting(4, None)
HEADLINE_SETTING_BCE = ApproxSetting(4, 8)


@dataclass
class SuiteResult:
    """All variants' results for one network."""

    name: str
    mesorasi: NetworkResult
    ans: NetworkResult
    ans_bce: NetworkResult
    gpu_cycles: int
    gpu_energy: float
    tigris_gpu_cycles: int
    tigris_gpu_energy: float

    @property
    def speedup_ans(self) -> float:
        return self.mesorasi.cycles / self.ans.cycles

    @property
    def speedup_bce(self) -> float:
        return self.mesorasi.cycles / self.ans_bce.cycles

    @property
    def norm_energy_ans(self) -> float:
        return self.ans.energy.total / self.mesorasi.energy.total

    @property
    def norm_energy_bce(self) -> float:
        return self.ans_bce.energy.total / self.mesorasi.energy.total


def _suite_point(
    hw: CrescentHardwareConfig,
    name: str,
    setting_ans: ApproxSetting,
    setting_bce: ApproxSetting,
    seed: int,
) -> SuiteResult:
    """All variants' results for one network.

    One :class:`~repro.runtime.SearchSession` serves every variant — the
    Mesorasi baseline, ANS, and ANS+BCE all query the same layer clouds,
    so trees are built once per layer, split-tree layouts once per
    ``h_t`` — and one sampling plan fixes the centroids for all three.
    It is the process-wide :func:`~repro.runtime.worker_session`, so it
    pools across networks and across calls too.
    """
    session = worker_session()
    spec = evaluation_networks()[name]
    points = workload_points(name, seed=seed)
    plan = plan_for(session, spec, points, seed)
    mesorasi = make_mesorasi(hw, session=session)
    ans_acc = PointCloudAccelerator(
        hw, NeighborSearchEngine(hw, session=session),
        elide_aggregation=False, session=session,
    )
    bce_acc = PointCloudAccelerator(
        hw, NeighborSearchEngine(hw, session=session),
        elide_aggregation=True, session=session,
    )
    base = mesorasi.run_network(spec, points, ApproxSetting(0, None), seed=seed, plan=plan)
    ans = ans_acc.run_network(spec, points, setting_ans, seed=seed, plan=plan)
    bce = bce_acc.run_network(spec, points, setting_bce, seed=seed, plan=plan)
    gpu_cycles, gpu_energy = gpu_network_result(base)
    tg_cycles, tg_energy = tigris_gpu_network_result(base)
    return SuiteResult(
        name=name,
        mesorasi=base,
        ans=ans,
        ans_bce=bce,
        gpu_cycles=gpu_cycles,
        gpu_energy=gpu_energy,
        tigris_gpu_cycles=tg_cycles,
        tigris_gpu_energy=tg_energy,
    )


def run_evaluation_suite(
    hw: Optional[CrescentHardwareConfig] = None,
    setting_ans: ApproxSetting = HEADLINE_SETTING_ANS,
    setting_bce: ApproxSetting = HEADLINE_SETTING_BCE,
    seed: int = 0,
) -> Dict[str, SuiteResult]:
    """Run all four networks on Mesorasi, ANS, ANS+BCE, and the GPU models,
    in Table-1 order through one shared session."""
    hw = hw or evaluation_hardware()
    return {
        name: _suite_point(hw, name, setting_ans, setting_bce, seed)
        for name in evaluation_networks()
    }


def energy_saving_contributions(result: SuiteResult) -> Dict[str, float]:
    """Fig. 16: decompose the memory-energy saving into four components.

    Components (fractions of the total memory-energy saving):

    * ``dram_traffic``   — fewer DRAM bytes moved,
    * ``dram_streaming`` — remaining bytes moved at streaming (not random)
      cost,
    * ``sram_search``    — fewer tree-buffer reads (K-d in sub-tree + BCE),
    * ``sram_aggregation`` — fewer point-buffer reads (BCE replication).
    """
    base = result.mesorasi.energy.components
    ours = result.ans_bce.energy.components

    def get(components: Dict[str, float], key: str) -> float:
        return components.get(key, 0.0)

    em_rand = 25.0
    em_stream = 8.33
    base_dram_bytes = (
        get(base, "dram_streaming") / em_stream + get(base, "dram_random") / em_rand
    )
    ours_dram_bytes = (
        get(ours, "dram_streaming") / em_stream + get(ours, "dram_random") / em_rand
    )
    # Traffic reduction valued at streaming cost; conversion of the
    # remaining traffic from random to streaming valued at the cost delta.
    traffic_saving = max(base_dram_bytes - ours_dram_bytes, 0.0) * em_stream
    base_random_bytes = get(base, "dram_random") / em_rand
    ours_random_bytes = get(ours, "dram_random") / em_rand
    streaming_saving = max(base_random_bytes - ours_random_bytes, 0.0) * (
        em_rand - em_stream
    )
    sram_search_saving = max(get(base, "sram_search") - get(ours, "sram_search"), 0.0)
    sram_agg_saving = max(
        get(base, "sram_aggregation") - get(ours, "sram_aggregation"), 0.0
    )
    total = traffic_saving + streaming_saving + sram_search_saving + sram_agg_saving
    if total == 0:
        return {k: 0.0 for k in ("dram_traffic", "dram_streaming", "sram_search", "sram_aggregation")}
    return {
        "dram_traffic": traffic_saving / total,
        "dram_streaming": streaming_saving / total,
        "sram_search": sram_search_saving / total,
        "sram_aggregation": sram_agg_saving / total,
    }
