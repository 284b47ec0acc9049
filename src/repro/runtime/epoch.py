"""Epoch-batched training materialization.

The Sec. 5 trainers used to materialize neighbor index matrices one cloud
at a time from inside the gradient loop: each training step called
:meth:`~repro.core.pipeline.ApproximationPipeline.query` for each layer of
its one input, interleaving cheap Python bookkeeping with the actual
search work, one small search at a time.  This module pulls the whole
epoch's search work out in front:

* :class:`EpochPlan` draws the **entire** ``(sample, setting)`` schedule —
  every epoch's permutation and per-input :class:`SettingSampler` draw —
  up front, in exactly the RNG order the per-step loop used, so losses
  stay bit-identical seed for seed.
* :func:`materialize_requests` dedupes the scheduled neighbor queries by
  memoization key, drops the ones the shared
  :class:`~repro.runtime.SearchSession` already holds, and computes the
  rest in one forest search (:func:`~repro.runtime.approximate_search`)
  filed straight into the session cache, so the gradient loop then runs
  against a warm cache.

Bit-identity is by construction: materialization calls the exact same
:meth:`~repro.core.pipeline.ApproximationPipeline.compute_many` path the
forward pass's :meth:`~repro.core.pipeline.ApproximationPipeline.query_with_counts`
would, just earlier and for many requests at once; a forest search is
job-by-job identical to searching alone, so the forward pass then hits
the cache — or, after an LRU eviction, deterministically recomputes the
same matrix.

What a model must expose to ride this path: a ``query_plan(points,
cache_keys)`` method that takes stacked ``(B, N, 3)`` clouds with one
cache key per row and returns, per row, the :class:`QueryRequest` list its
forward pass will issue (geometry only — settings are scheduled per
input).  The trainer plans every dataset position in one such call before
the first epoch, so farthest point sampling runs one lockstep loop per
layer, and each epoch's materialization builds all of its trees in one
forest pass (:meth:`~repro.runtime.SearchSession.trees_for`).  The
:class:`~repro.models.layers.SetAbstraction` plan samples with the same
stacked sampler as its forward; the epoch suite's pure-cache-hit test
pins every model's plan against the geometry its forward queries.  Models
without ``query_plan`` simply train through the per-step path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from .session import geometry_digest

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..core.config import ApproxSetting
    from ..core.pipeline import ApproximationPipeline
    from ..training.sampling import SettingSampler

__all__ = [
    "QueryRequest",
    "MaterializeRequest",
    "MaterializeReport",
    "EpochSchedule",
    "EpochPlan",
    "materialize_requests",
]


@dataclass
class QueryRequest:
    """One neighbor query a model's forward pass will issue.

    Geometry plus the call-site ``cache_key`` only — the approximation
    setting is scheduled per training input and bound later with
    :meth:`with_setting`.
    """

    points: np.ndarray
    queries: np.ndarray
    radius: float
    max_neighbors: int
    cache_key: Hashable

    def with_setting(self, setting: "ApproxSetting") -> "MaterializeRequest":
        return MaterializeRequest(
            points=self.points,
            queries=self.queries,
            radius=self.radius,
            max_neighbors=self.max_neighbors,
            setting=setting,
            cache_key=self.cache_key,
        )


@dataclass
class MaterializeRequest:
    """A :class:`QueryRequest` bound to a concrete approximation setting."""

    points: np.ndarray
    queries: np.ndarray
    radius: float
    max_neighbors: int
    setting: "ApproxSetting"
    cache_key: Hashable


@dataclass
class MaterializeReport:
    """What one materialization pass did (observability for tests/benches)."""

    scheduled: int = 0  # requests submitted (cacheable ones)
    deduped: int = 0  # distinct memoization keys among them
    already_cached: int = 0  # keys the session already held
    computed: int = 0  # keys actually computed this pass
    cache_grown_to: int = 0  # result-cache capacity after the pass


@dataclass
class EpochSchedule:
    """One epoch's visit order and the setting drawn for each visit.

    ``settings[i]`` is the draw for the ``i``-th *processed* input, i.e.
    the sample at dataset position ``order[i]`` — matching the per-step
    loop, which drew a setting per iteration of its shuffled order.
    """

    order: np.ndarray
    settings: List["ApproxSetting"]


class EpochPlan:
    """The whole training run's ``(sample, setting)`` schedule, drawn up front.

    RNG-stream-compatible with the retired per-step loop: that loop drew,
    per epoch, one permutation followed by one sampler draw per input,
    with no other consumption of the trainer RNG in between — so drawing
    the same sequence eagerly consumes the stream identically and every
    downstream draw (and therefore every loss) is unchanged seed for seed.
    """

    def __init__(self, schedules: List[EpochSchedule]):
        self.schedules = schedules

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        sampler: "SettingSampler",
        num_items: int,
        epochs: int,
    ) -> "EpochPlan":
        schedules = []
        for _ in range(epochs):
            order = rng.permutation(num_items)
            settings = [sampler.sample(rng) for _ in range(num_items)]
            schedules.append(EpochSchedule(order=order, settings=settings))
        return cls(schedules)

    def epoch_requests(
        self,
        epoch: int,
        plan_fn: Callable[[int], Sequence[QueryRequest]],
    ) -> List[MaterializeRequest]:
        """Bind one epoch's scheduled settings to per-sample query plans.

        ``plan_fn(position)`` returns the :class:`QueryRequest` list for
        the dataset item at ``position``.  An epoch's order is a
        permutation (each position visited once), so callers whose plans
        are expensive should plan every position once for the whole run —
        as :meth:`repro.training.trainer._BaseTrainer.train` does — rather
        than expect caching here.
        """
        schedule = self.schedules[epoch]
        out: List[MaterializeRequest] = []
        for i, pos in enumerate(schedule.order):
            out.extend(
                req.with_setting(schedule.settings[i]) for req in plan_fn(int(pos))
            )
        return out


# ----------------------------------------------------------------------
# The materialization engine
# ----------------------------------------------------------------------
def materialize_requests(
    pipeline: "ApproximationPipeline",
    requests: Sequence[MaterializeRequest],
) -> MaterializeReport:
    """Warm ``pipeline.session`` with every request's neighbor matrix.

    Requests with ``cache_key=None`` are uncacheable and skipped (the
    forward pass will compute them per step, as before).  The rest are
    deduped by full memoization key, and every miss is computed in one
    :meth:`~repro.core.pipeline.ApproximationPipeline.compute_many` call
    (one forest search) and filed into the cache.
    """
    report = MaterializeReport()
    session = pipeline.session
    # Geometry digests cached by array identity: a settings grid reuses
    # each (points, queries) pair object once per setting, and training
    # epochs reuse the plan-cached pairs every epoch — one blake2b pass
    # per pair is enough.  Cached tuples pin the arrays they hash, so an
    # ``id`` cannot be recycled mid-call.
    pair_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, str]] = {}

    def pair_digest(req: MaterializeRequest) -> str:
        ckey = (id(req.points), id(req.queries))
        cached = pair_cache.get(ckey)
        if cached is None or cached[0] is not req.points or cached[1] is not req.queries:
            points = np.asarray(req.points, dtype=np.float64)
            queries = np.atleast_2d(np.asarray(req.queries, dtype=np.float64))
            cached = (req.points, req.queries, geometry_digest(points, queries))
            pair_cache[ckey] = cached
        return cached[2]

    unique: Dict[Hashable, MaterializeRequest] = {}
    for req in requests:
        if req.cache_key is None:
            continue
        report.scheduled += 1
        key = pipeline.memo_key(
            req.points, req.queries, req.radius, req.max_neighbors,
            req.setting, req.cache_key, digest=pair_digest(req),
        )
        unique.setdefault(key, req)
    report.deduped = len(unique)
    # One lookup per working-set key.  A hit refreshes its recency — the
    # upcoming inserts must evict unrelated old entries, never the cached
    # half of the very grid being materialized — and a miss is counted
    # like the forward pass's own lookup would have been.
    missing = object()
    todo = {
        key: req
        for key, req in unique.items()
        if session.results.get(key, missing) is missing
    }
    report.already_cached = report.deduped - len(todo)
    report.computed = len(todo)
    # The warm-cache guarantee requires the whole deduped working set to
    # survive until the gradient/eval loop consumes it.  A grid larger
    # than the session's LRU bound would otherwise evict its own oldest
    # entries before first use — the loop would then recompute every
    # evicted search per step and the materialization pass would be pure
    # overhead.  Grow the bound to the working set instead: it is sized
    # by one epoch's schedule (not unbounded), which is exactly the
    # memory the caller asked to materialize.
    if report.deduped > session.results.max_entries:
        session.results.max_entries = report.deduped
    report.cache_grown_to = session.results.max_entries
    if not todo:
        return report

    # One forest search for every approximate miss of the epoch.
    values = pipeline.compute_many(
        [
            (req.points, req.queries, req.radius, req.max_neighbors, req.setting)
            for req in todo.values()
        ]
    )
    for key, value in zip(todo, values):
        session.results.put(key, value)
    return report
