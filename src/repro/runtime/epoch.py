"""Epoch-batched training materialization.

The Sec. 5 trainers fix all of a run's geometry before the first step: a
layer's neighbor matrix depends only on geometry and ``h``, never on
weights.  This module holds the two pieces that make that possible:

* :class:`EpochPlan` draws the **entire** ``(sample, setting)`` schedule —
  every epoch's permutation and per-input :class:`SettingSampler` draw —
  up front, in exactly the RNG order the per-step loop used, so losses
  stay bit-identical seed for seed.
* :class:`QueryRequest` is one neighbor query under one setting, carrying
  the digests that key it.
  :meth:`~repro.core.pipeline.ApproximationPipeline.resolve` takes any
  number of them: it dedupes them by memoization key, looks each key up
  once in the shared :class:`~repro.runtime.SearchSession`, computes the
  misses in one forest search and returns the matrices.

A network's ``plan(points)`` samples and digests a ``(B, N, 3)`` stack
once (:func:`repro.models.layers.plan_chain`), and its ``requests(plan,
settings, cache_keys)`` lists the queries its forward over that plan will
issue, carrying the plan's digests.  The trainer plans every dataset
position before the first epoch; each epoch's materialization is one
``resolve`` over that epoch's requests, which files the results into the
session, and each training chunk's forward then resolves its own rows
against the warm cache.  Nothing is sampled or hashed inside the
gradient loop.

Bit-identity is by construction: materialization and the forward pass go
through the same resolver, a forest search is job-by-job identical to
searching alone, and the forward pass then hits the cache — or, after an
LRU eviction, deterministically recomputes the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Optional

import numpy as np

from .session import geometry_digest

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from ..core.config import ApproxSetting
    from ..training.sampling import SettingSampler

__all__ = ["QueryRequest", "EpochSchedule", "EpochPlan"]


@dataclass
class QueryRequest:
    """One neighbor query under one approximation setting.

    ``digest`` (of ``points`` and ``queries``) keys the result cache and
    ``cloud_digest`` (of ``points``) the tree cache.  A planner that has
    already hashed the geometry passes both.  Otherwise a cached request
    (``cache_key`` not ``None``) is digested here, once, and a missing
    ``cloud_digest`` is hashed by the tree-cache lookup.  ``cache_key``
    names the call site (e.g. ``(sample_id, layer_name)``); ``None``
    marks the request uncached.
    """

    points: np.ndarray
    queries: np.ndarray
    radius: float
    max_neighbors: int
    setting: "ApproxSetting"
    cache_key: Hashable = None
    digest: Optional[str] = None
    cloud_digest: Optional[str] = None

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.queries = np.atleast_2d(np.asarray(self.queries, dtype=np.float64))
        if self.cache_key is not None and self.digest is None:
            self.digest = geometry_digest(self.points, self.queries)


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
