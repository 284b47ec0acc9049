"""Motivation-study drivers (paper Sec. 2, Figs. 2–5).

These quantify the memory irregularities of *baseline* (exact K-d tree)
neighbor search and of neighbor aggregation, using our substrates: the
K-d tree with visit tracing, the fully-associative cache, and the banked
SRAM models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..accel.workloads import evaluation_networks, workload_points
from ..core.bank_conflict import PointBufferBanking, aggregation_conflict_rate
from ..core.bank_conflict import TreeBufferBanking
from ..core.config import ApproxSetting
from ..kdtree.build import NODE_BYTES, build_kdtree
from ..memsim.cache import FullyAssociativeCache
from ..runtime.approx import SearchJob, approximate_search
from ..runtime.batched import BatchedBallQuery
from ..runtime.traced import TracedBallQuery
from ..memsim.trace import fraction_noncontiguous, interleave_round_robin
from .reporting import format_table

__all__ = [
    "layer_search_traces",
    "nonstreaming_fraction",
    "dram_traffic_study",
    "search_conflict_rate_vs_banks",
    "aggregation_conflict_by_network",
]


def _network_layer_queries(spec_name: str, seed: int = 0):
    """Yield (points, queries, radius, K) per layer of an evaluation network."""
    spec = evaluation_networks()[spec_name]
    points = workload_points(spec_name, seed=seed)
    rng = np.random.default_rng(seed)
    current = points
    for layer in spec.layers:
        queries = current[rng.choice(len(current), layer.num_queries, replace=False)]
        yield current, queries, layer.radius, layer.max_neighbors
        current = queries


def layer_search_traces(
    spec_name: str, max_queries_per_layer: int = 128, seed: int = 0
) -> List[List[int]]:
    """Per-query DRAM byte-address traces of exact neighbor search.

    Routed through the trace-capable batched engine
    (:class:`~repro.runtime.TracedBallQuery`): each layer's queries sweep
    the tree together as frontier arrays, and the per-query DFS visit
    traces — identical to running ``radius_search(...,
    record_trace=True)`` per query, which the traced equivalence suite
    pins — are recovered by rank ordering.  Node ids become byte
    addresses via the ``i * NODE_BYTES`` memory image layout.
    """
    traces: List[List[int]] = []
    for points, queries, radius, k in _network_layer_queries(spec_name, seed):
        tree = build_kdtree(points)
        result = TracedBallQuery(tree).query(
            queries[:max_queries_per_layer], radius, k
        )
        traces.extend((trace * NODE_BYTES).tolist() for trace in result.traces)
    return traces


def nonstreaming_fraction(spec_name: str, num_parallel: int = 8, seed: int = 0) -> float:
    """Fig. 2: fraction of non-continuous DRAM accesses in neighbor search.

    Per-query traces are interleaved round-robin in groups of
    ``num_parallel`` (concurrent PEs sharing the memory controller).
    """
    traces = layer_search_traces(spec_name, seed=seed)
    merged: List[np.ndarray] = []
    for start in range(0, len(traces), num_parallel):
        merged.append(interleave_round_robin(traces[start : start + num_parallel]))
    addresses = np.concatenate(merged) if merged else np.empty(0, dtype=np.int64)
    return fraction_noncontiguous(addresses, NODE_BYTES)


@dataclass
class DramTrafficResult:
    traffic_ratio: float  # actual DRAM bytes / theoretical minimum
    miss_rate: float


def dram_traffic_study(
    spec_name: str,
    cache_fraction: float = 0.01,
    num_parallel: int = 8,
    seed: int = 0,
) -> DramTrafficResult:
    """Fig. 3: DRAM traffic vs theoretical minimum + cache miss rate.

    The paper simulates a 10 MB fully-associative cache against a ~29 MB
    scene (cache ≈ 1/3 of data, misses still >85%).  We scale the cache to
    ``cache_fraction`` of the tree image to stay in the same regime for
    the smaller synthetic scenes.
    """
    traces = layer_search_traces(spec_name, seed=seed)
    merged = []
    for start in range(0, len(traces), num_parallel):
        merged.append(interleave_round_robin(traces[start : start + num_parallel]))
    addresses = np.concatenate(merged) if merged else np.empty(0, dtype=np.int64)
    if addresses.size == 0:
        # No traces (e.g. zero queries per layer): no traffic, no misses —
        # mirror nonstreaming_fraction's guard instead of crashing on
        # np.concatenate([]) / max() of an empty address stream.
        return DramTrafficResult(traffic_ratio=0.0, miss_rate=0.0)
    image_bytes = int(addresses.max()) + NODE_BYTES
    cache = FullyAssociativeCache(
        capacity_bytes=max(int(image_bytes * cache_fraction), NODE_BYTES),
        line_bytes=64,
    )
    cache.access_trace(addresses)
    # Theoretical minimum: each tree node and each query read exactly once.
    minimum = image_bytes
    ratio = cache.dram_bytes_fetched / minimum
    return DramTrafficResult(traffic_ratio=ratio, miss_rate=cache.stats.miss_rate)


def search_conflict_rate_vs_banks(
    banks_list: Sequence[int],
    num_parallel: int = 8,
    num_points: int = 2048,
    num_queries: int = 256,
    radius: float = 0.1,
    seed: int = 0,
) -> Dict[int, float]:
    """Fig. 4: tree-buffer conflict rate of K-d search vs bank count.

    Runs ``num_parallel`` concurrent exact sub-tree searches (whole tree =
    one sub-tree) in lockstep, stall-only (no elision), and reports the
    conflicted-access fraction.
    """
    pts = workload_points("PointNet++ (c)", seed=seed)[:num_points]
    tree = build_kdtree(pts)
    rng = np.random.default_rng(seed)
    queries = pts[rng.choice(len(pts), num_queries, replace=False)]
    # No top tree and no elision: the whole tree is one sub-tree searched
    # by every query, stall-only, with 16-neighbor result buffers.
    job = SearchJob(tree, queries, radius, 16, ApproxSetting(0, None), True)
    rates: Dict[int, float] = {}
    for banks in banks_list:
        ((_, _, report),) = approximate_search(
            [job], banking=TreeBufferBanking(banks), num_pes=num_parallel
        )
        rates[int(banks)] = report.tree_sram.conflict_rate
    return rates


def aggregation_conflict_by_network(
    num_banks: int = 16, num_ports: int = 16, seed: int = 0
) -> Dict[str, float]:
    """Fig. 5: point-buffer conflict rate during aggregation per network."""
    banking = PointBufferBanking(num_banks)
    out: Dict[str, float] = {}
    for name in evaluation_networks():
        rates = []
        weights = []
        for points, queries, radius, k in _network_layer_queries(name, seed):
            tree = build_kdtree(points)
            # Batched engine: bit-identical indices (parity-suite-pinned),
            # no per-query Python loop — Fig. 5 needs no visit traces.
            indices, _ = BatchedBallQuery(tree).query(queries, radius, k)
            rates.append(aggregation_conflict_rate(indices, banking, num_ports))
            weights.append(indices.size)
        out[name] = float(np.average(rates, weights=weights))
    return out
