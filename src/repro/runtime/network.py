"""Network-level sweep helpers: sampling plans and the process-wide session.

The figure drivers (Figs. 14–17, 22, 23) all reduce to the same shape of
work: run a :class:`~repro.accel.NetworkSpec` over a grid of approximation
settings and point clouds.  Two pieces keep that from repeating work per
grid point:

* :func:`layer_sampling_plan` — the canonical per-layer ``(points,
  queries)`` chain of one network run.  Centroid sampling depends only on
  ``(spec, cloud, seed)``, never on the approximation setting, so a sweep
  samples once per cloud and shares the plan across every setting —
  *the* invariant that makes a settings grid array-parallel.
  :func:`plan_for` memoizes plans in a :class:`SearchSession`, keyed by
  ``(spec, seed)`` plus the cloud's geometry digest.
* :func:`worker_session` — the process-wide :class:`SearchSession` the
  figure drivers (:func:`~repro.analysis.run_evaluation_suite`,
  :func:`~repro.analysis.hw_sensitivity`) and the sharded serving workers
  share, so trees, split-tree layouts and plans pool across every call a
  process makes.

The ``settings x clouds`` grid itself is
:meth:`~repro.accel.PointCloudAccelerator.run_many`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .session import SearchSession

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..accel.accelerator import NetworkSpec

__all__ = ["layer_sampling_plan", "plan_for", "worker_session"]

LayerPlan = List[Tuple[np.ndarray, np.ndarray]]


def layer_sampling_plan(
    spec: "NetworkSpec", points: np.ndarray, seed: int = 0
) -> LayerPlan:
    """Per-layer ``(points, queries)`` chain of one network run.

    Reproduces exactly the centroid draws
    :meth:`~repro.accel.PointCloudAccelerator.run_network` makes — each
    layer samples ``num_queries`` centroids without replacement from the
    previous layer's centroids (hierarchical set abstraction) — so every
    consumer of a shared plan is bit-identical to an unshared run.
    """
    rng = np.random.default_rng(seed)
    plan: LayerPlan = []
    current = np.asarray(points, dtype=np.float64)
    for layer in spec.layers:
        if layer.num_queries > len(current):
            raise ValueError(
                f"layer {layer.name!r} wants {layer.num_queries} queries from "
                f"{len(current)} points"
            )
        queries = current[rng.choice(len(current), layer.num_queries, replace=False)]
        plan.append((current, queries))
        current = queries
    return plan


def plan_for(
    session: SearchSession, spec: "NetworkSpec", points: np.ndarray, seed: int = 0
) -> LayerPlan:
    """The :func:`layer_sampling_plan` for ``(spec, points, seed)``, memoized.

    Every grid path — :meth:`~repro.accel.PointCloudAccelerator.run_many`
    and the analysis drivers — shares plans through this one helper,
    keyed by ``(spec, seed)`` plus the cloud's geometry digest so mutated
    clouds recompute instead of hitting a stale plan.
    """
    points = np.asarray(points, dtype=np.float64)
    return session.memoize(
        ("layer_plan", spec, seed),
        (points,),
        lambda: layer_sampling_plan(spec, points, seed),
    )


_WORKER_SESSION: Optional[SearchSession] = None


def worker_session() -> SearchSession:
    """The process-wide :class:`SearchSession`.

    The figure drivers in one process and each sharded serving worker
    share it, so trees, split-tree layouts, and memoized sampling plans
    pool across every call the process makes.  Callers that need cold
    caches (a benchmark timing a fresh figure run) ``clear()`` it.
    """
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        _WORKER_SESSION = SearchSession()
    return _WORKER_SESSION
