"""Batched query runtime: the performance layer under the network-facing API.

Four pieces, composable but independently usable:

- :class:`BatchedBallQuery` — all M queries of a layer advance together as
  NumPy frontier arrays, each stopping at its K-th hit as the per-query
  reference searcher (:func:`repro.kdtree.exact.ball_query`) does, so a
  dense batch costs O(K) per query and never falls back to the reference;
  bit-identical to it, which the parity suite enforces.  Both batched
  engines pack their rows through :func:`~repro.runtime.batched.pack_rows`.
- :class:`TracedBallQuery` — the trace-capable variant: the same batched
  frontier sweep and early stop, plus per-query DFS visit traces and
  reconstructed :class:`~repro.kdtree.stats.TraversalStats`, visit-trace- and
  stats-identical to ``radius_search(..., record_trace=True)`` (pinned by
  the traced equivalence suite); what the Sec. 2 motivation studies run.
- :mod:`~repro.runtime.epoch` — epoch-batched training materialization:
  the whole ``(sample, setting)`` schedule drawn up front
  (RNG-stream-compatible), and the :class:`QueryRequest` that carries a
  planned query's digests into the pipeline's one resolver, so an epoch's
  neighbor matrices are computed by one forest search before the
  gradient loop runs against a warm cache.
- :class:`VectorizedLockstep` — the accelerator model's lockstep sub-tree
  search as NumPy stack arrays over a *forest* of K-d trees: arbitration,
  broadcast, elision, and stall decisions per cycle as array ops for every
  sub-tree batch of every search at once, cycle- and stat-identical per
  search to the per-step reference
  (:func:`repro.core.approx_search.run_subtree_lockstep`), which the
  lockstep and forest equivalence suites enforce.
- :func:`approximate_search` — the production approximate search: a batch
  of :class:`SearchJob` searches through one top-tree descent, one forest
  lockstep run and one flat result assembly; job-by-job identical to the
  per-step :func:`repro.core.approx_search.approximate_ball_query`.
- :func:`vectorized_top_phase` — the engine's phase-1 top-tree descent
  with **all** PE groups advancing level-synchronously as stacked arrays;
  cycle- and stall-identical to the per-group loop (kept as
  :func:`reference_top_phase`), which the equivalence suite enforces.
- :class:`SearchSession` — owns K-d tree / split-tree construction and
  result memoization behind geometry-digested LRU caches (no stale hits
  when a caller reuses a cache key with mutated points; sentinel-based
  misses so cached falsy values are never recomputed).
- :mod:`~repro.runtime.treebuild` — level-synchronous vectorized K-d
  tree and split-tree construction: bit-identical to
  :func:`repro.kdtree.build.build_kdtree` / :class:`SplitTree`, built in
  O(log N) NumPy passes instead of per-node Python, any number of clouds
  in one forest pass; what sessions use to fill cache misses.
- :class:`WorkerProcess` — one long-lived, respawnable worker process
  (mailbox + heartbeat + in-place respawn); what the sharded serving tier
  builds its workers on.
- :mod:`~repro.runtime.network` — the helpers behind
  ``PointCloudAccelerator.run_many`` and the figure drivers: per-cloud
  sampling plans shared across settings, and the process-wide
  :func:`worker_session` they and the sharded serving workers share.

The step-machines in :mod:`repro.kdtree.traversal` remain the behavioral
reference for hardware statistics; this package accelerates both the
result-only paths (training, accuracy sweeps) and the cycle-accounted
simulation the figure benchmarks run.
"""

from .batched import BatchedBallQuery, batched_nearest_node, frontier_sweep
from .epoch import EpochPlan, EpochSchedule, QueryRequest
from .lockstep import LockstepResult, VectorizedLockstep
from .traced import TracedBallQuery, TracedBatchResult
from .session import (
    CacheStats,
    LruCache,
    SearchSession,
    geometry_digest,
    tree_digest,
)
from .network import layer_sampling_plan, worker_session
from .sweep import WorkerProcess
from .topphase import reference_top_phase, vectorized_top_phase

# Imported last: treebuild pulls in repro.core (for the SplitTree base),
# whose pipeline module imports .session from this package — everything
# it needs is already bound above by the time that re-entrant import runs.
from .treebuild import (
    VectorizedSplitTree,
    euler_tour,
    vectorized_build_forest,
    vectorized_build_kdtree,
)
from .approx import SearchJob, approximate_search

__all__ = [
    "layer_sampling_plan",
    "worker_session",
    "BatchedBallQuery",
    "batched_nearest_node",
    "frontier_sweep",
    "TracedBallQuery",
    "TracedBatchResult",
    "EpochPlan",
    "EpochSchedule",
    "QueryRequest",
    "LockstepResult",
    "VectorizedLockstep",
    "SearchJob",
    "approximate_search",
    "CacheStats",
    "LruCache",
    "SearchSession",
    "geometry_digest",
    "tree_digest",
    "WorkerProcess",
    "reference_top_phase",
    "vectorized_top_phase",
    "VectorizedSplitTree",
    "euler_tour",
    "vectorized_build_forest",
    "vectorized_build_kdtree",
]
