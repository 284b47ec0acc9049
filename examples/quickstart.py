"""Quickstart: Crescent's approximate neighbor search in five minutes.

Builds a synthetic point cloud, runs exact vs approximate (split-tree +
bank-conflict-elision) neighbor search, and shows what the approximation
buys (fewer node visits, streaming DRAM) and costs (missed neighbors).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.accel import NeighborSearchEngine
from repro.core import ApproxSetting
from repro.geometry import sample_shape
from repro.kdtree import ball_query, build_kdtree
from repro.runtime import SearchJob, approximate_search


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. A point cloud and a K-d tree over it.
    cloud = sample_shape("torus", rng, num_points=2048, noise=0.02)
    tree = build_kdtree(cloud.points)
    print(f"cloud: {len(cloud)} points, K-d tree height {tree.height}")

    # 2. Exact ball query: the baseline every point cloud network runs.
    queries = cloud.points[rng.choice(len(cloud), 256, replace=False)]
    exact_idx, exact_cnt = ball_query(tree, queries, radius=0.1, max_neighbors=16)
    print(f"exact search: {exact_cnt.mean():.1f} neighbors/query on average")

    # 3. Crescent's approximate search: split tree (h_t) + elision (h_e).
    setting = ApproxSetting(top_height=4, elision_height=8)
    ((approx_idx, approx_cnt, report),) = approximate_search(
        [SearchJob(tree, queries, radius=0.1, max_neighbors=16, setting=setting)]
    )
    recall = sum(
        len(set(a[:ca]) & set(e[:ce])) / max(ce, 1)
        for a, ca, e, ce in zip(approx_idx, approx_cnt, exact_idx, exact_cnt)
    ) / len(queries)
    print(f"approximate search under h = <{setting.top_height}, "
          f"{setting.elision_height}>:")
    print(f"  neighbors/query : {approx_cnt.mean():.1f}")
    print(f"  recall vs exact : {recall:.1%}")
    print(f"  nodes visited   : {report.nodes_visited} "
          f"(skipped {report.nodes_skipped} via conflict elision)")
    print(f"  sub-trees loaded: {report.subtrees_loaded}, "
          f"each streamed from DRAM exactly once")

    # 4. The same search on the cycle-level engine: cycles + energy.
    engine = NeighborSearchEngine()
    _, _, exact_run = engine.run(tree, queries, 0.1, 16, ApproxSetting(0, None))
    _, _, approx_run = engine.run(tree, queries, 0.1, 16, setting)
    print("\ncycle-level engine (same hardware, exact vs approximate):")
    print(f"  cycles : {exact_run.cycles:>8} -> {approx_run.cycles:>8} "
          f"({exact_run.cycles / approx_run.cycles:.2f}x faster)")
    print(f"  energy : {exact_run.energy.total:>10.0f} -> "
          f"{approx_run.energy.total:>10.0f} pJ")
    print(f"  DRAM   : all transfers streaming "
          f"(random bytes: {approx_run.dram.random_bytes})")


if __name__ == "__main__":
    main()
