"""Point cloud network building blocks.

Geometry is planned before any weight is touched.  :func:`plan_chain`
threads a stacked ``(B, N, 3)`` batch through a chain of set-abstraction
stages once: per stage it samples centroids by farthest point sampling
(this module is the one place that calls the samplers), gathers them, and
digests every row.  The resulting :class:`GeometryPlan` holds each
stage's points, FPS ids and centroids as private read-only arrays next to
the digests that key their trees and neighbor matrices, so a digest taken
at plan time stays the digest of the bytes later searched.

:class:`PointNetwork` is the base of the four networks.  A network names
its chain of :class:`SetAbstraction` stages; its ``plan(points)`` is
:func:`plan_chain` over that chain, ``requests`` lists the neighbor
queries a forward over a plan issues, and ``forward_plan`` is the forward
that consumes a plan.  ``forward_batch(points, ...)`` is ``forward_plan``
over ``plan(points)``, and ``forward`` is the one-cloud ``B == 1`` stack.

:class:`SetAbstraction` is the canonical PointNet++ layer over one
planned stage: search each centroid's neighborhood (through an
:class:`~repro.core.pipeline.ApproximationPipeline`, which is where all
of Crescent's approximation enters), gather the neighbors, run a shared
MLP on relative coordinates + features, and max-pool per centroid.

:class:`FeaturePropagation` is the PointNet++ upsampling layer used by the
segmentation and detection heads: features are interpolated back onto a
denser point set by inverse-distance-weighted 3-NN, concatenated with skip
features, and refined by a per-point MLP.

Neither neighbor search nor interpolation weights participate in gradient
flow (paper Sec. 5, Fig. 11): they are computed in NumPy and enter the
graph as constants; gradients flow through gathers and MLPs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ApproxSetting
from ..core.pipeline import ApproximationPipeline
from ..nn.layers import MLP
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..runtime.batched import squared_distances
from ..runtime.epoch import QueryRequest
from ..runtime.session import geometry_digest

__all__ = [
    "farthest_point_sampling",
    "farthest_point_sampling_batched",
    "interpolation_plan",
    "StagePlan",
    "GeometryPlan",
    "plan_chain",
    "PointNetwork",
    "SetAbstraction",
    "FeaturePropagation",
    "GlobalMaxPool",
    "drop_batch_axis",
]


def _fps_greedy_batched(pts: np.ndarray, num_samples: int, start: int) -> np.ndarray:
    """The greedy max-min iteration, in lockstep over a ``(B, N, 3)`` stack.

    Row ``b`` is bit-identical to the historical per-sample loop: every
    per-row operation (squared-distance sum, first-argmax, elementwise
    minimum) matches the per-sample arithmetic exactly (``squared_distances``
    is the per-sample ``((a - b) ** 2).sum(axis=-1)`` bit for bit).
    """
    rows = np.arange(pts.shape[0])
    chosen = np.empty((pts.shape[0], num_samples), dtype=np.int64)
    chosen[:, 0] = start
    dist = squared_distances(pts, pts[:, start][:, None, :])  # (B, N)
    for i in range(1, num_samples):
        nxt = dist.argmax(axis=1)
        chosen[:, i] = nxt
        np.minimum(dist, squared_distances(pts, pts[rows, nxt][:, None, :]), out=dist)
    return chosen


def farthest_point_sampling(points: np.ndarray, num_samples: int, start: int = 0) -> np.ndarray:
    """Deterministic farthest point sampling of one ``(N, 3)`` cloud.

    Greedy max-min selection starting from ``points[start]``: the ``B == 1``
    view of :func:`farthest_point_sampling_batched`.  Determinism matters:
    it keeps layer geometry (and therefore the cached neighbor matrices)
    stable across training epochs.  The returned array is read-only.
    """
    return farthest_point_sampling_batched(np.asarray(points)[None], num_samples, start)[0]


def farthest_point_sampling_batched(
    points: np.ndarray, num_samples: int, start: int = 0
) -> np.ndarray:
    """Farthest point sampling of every cloud of a stacked ``(B, N, 3)`` array.

    Row ``b`` of the read-only ``(B, num_samples)`` result is the greedy
    max-min selection over ``points[b]`` alone, starting from point
    ``start``; every row runs in one lockstep loop.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3:
        raise ValueError(f"expected stacked (B, N, 3) points, got shape {pts.shape}")
    n = pts.shape[1]
    if not 0 < num_samples <= n:
        raise ValueError(f"num_samples must be in (0, {n}], got {num_samples}")
    if isinstance(start, bool) or not isinstance(start, Integral) or not 0 <= start < n:
        raise ValueError(f"start must be an integer in [0, {n}), got {start!r}")
    chosen = _fps_greedy_batched(pts, num_samples, int(start))
    chosen.setflags(write=False)
    return chosen


def interpolation_plan(
    dense_points: np.ndarray, coarse_points: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized 3-NN inverse-distance plan: ``(indices, weights)``.

    ``dense_points`` is ``(..., N, 3)`` and ``coarse_points`` ``(..., M, 3)``
    with matching leading axes; the result is ``(..., N, k)`` neighbor ids
    into the coarse set plus normalized inverse-distance weights.  Per dense
    point this reproduces :func:`repro.kdtree.brute.brute_knn_search`
    (introselect partition, then a stable distance sort) and the weight
    arithmetic of the historical per-point loop bit for bit — the plan is
    pure geometry and never enters the autograd graph.
    """
    dense = np.asarray(dense_points, dtype=np.float64)
    coarse = np.asarray(coarse_points, dtype=np.float64)
    if dense.shape[:-2] != coarse.shape[:-2]:
        raise ValueError(
            f"leading axes of dense {dense.shape} and coarse {coarse.shape} must match"
        )
    k = min(k, coarse.shape[-2])
    lead = dense.shape[:-2]
    flat_dense = dense.reshape((-1,) + dense.shape[-2:])
    flat_coarse = coarse.reshape((-1,) + coarse.shape[-2:])
    d2 = squared_distances(flat_dense[:, :, None, :], flat_coarse[:, None, :, :])
    part = np.argpartition(d2, k - 1, axis=-1)[..., :k]
    order = np.argsort(np.take_along_axis(d2, part, axis=-1), kind="stable", axis=-1)
    idx = np.take_along_axis(part, order, axis=-1)  # (L, N, k)
    neighbors = flat_coarse[np.arange(flat_coarse.shape[0])[:, None, None], idx]
    d = np.linalg.norm(neighbors - flat_dense[:, :, None, :], axis=-1)
    inv = 1.0 / np.maximum(d, 1e-8)
    w = inv / inv.sum(axis=-1, keepdims=True)
    return idx.reshape(lead + idx.shape[-2:]), w.reshape(lead + w.shape[-2:])


def drop_batch_axis(stacked: Tensor) -> Tensor:
    """The one-cloud view of a ``B == 1`` stacked output.

    A network's ``forward(points, setting, cache_key)`` is
    ``forward_batch(points[None], [setting], [cache_key])`` read through
    this differentiable reshape, so a single cloud runs the stacked path.
    """
    return stacked.reshape(*stacked.shape[1:])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _take(array: Optional[np.ndarray], rows: np.ndarray) -> Optional[np.ndarray]:
    return None if array is None else _frozen(array[rows])


@dataclass(frozen=True)
class StagePlan:
    """One set-abstraction stage of a :class:`GeometryPlan`.

    ``points`` ``(B, N, 3)`` is the cloud the stage searches, ``centroids``
    ``(B, M, 3)`` the queries and ``ids`` ``(B, M)`` their FPS ids in
    ``points``; all three are private read-only arrays.  ``digests[b]`` is
    row ``b``'s ``(tree key, result key)``: the
    :func:`~repro.runtime.session.geometry_digest` of ``points[b]`` and of
    ``(points[b], centroids[b])``.  A group-all stage (one pseudo-centroid
    at the cloud's mean, every point its neighbor) searches nothing: its
    ``ids`` and ``digests`` are ``None``.
    """

    points: np.ndarray
    centroids: np.ndarray
    ids: Optional[np.ndarray] = None
    digests: Optional[Tuple[Tuple[str, str], ...]] = None

    def take(self, rows: np.ndarray) -> "StagePlan":
        """The stage restricted to ``rows``, in that order."""
        return StagePlan(
            _take(self.points, rows),
            _take(self.centroids, rows),
            _take(self.ids, rows),
            None if self.digests is None else tuple(self.digests[r] for r in rows),
        )


@dataclass(frozen=True)
class GeometryPlan:
    """Every stage's geometry for a forward over one ``(B, N, 3)`` stack."""

    stages: Tuple[StagePlan, ...]

    @property
    def points(self) -> np.ndarray:
        """The network's input stack (the first stage's points)."""
        return self.stages[0].points

    def __len__(self) -> int:
        return len(self.points)

    def take(self, rows: Sequence[int]) -> "GeometryPlan":
        """The plan of rows ``rows`` (e.g. one training chunk), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        return GeometryPlan(tuple(stage.take(rows) for stage in self.stages))


def plan_chain(points: np.ndarray, num_centroids: Sequence[Optional[int]]) -> GeometryPlan:
    """Plan a chain of set-abstraction stages over a ``(B, N, 3)`` stack.

    Stage ``i`` samples ``num_centroids[i]`` centroids of the previous
    stage's centroids (of a private copy of ``points`` for the first
    stage) with :func:`farthest_point_sampling_batched`, one lockstep loop
    for the whole stack, and digests every row once.  ``None`` is a
    group-all stage.
    """
    current = _frozen(np.array(points, dtype=np.float64))
    if current.ndim != 3:
        raise ValueError(f"expected stacked (B, N, 3) points, got shape {current.shape}")
    stages = []
    for count in num_centroids:
        if count is None:
            stage = StagePlan(current, _frozen(current.mean(axis=1, keepdims=True)))
        else:
            ids = farthest_point_sampling_batched(current, count)
            centroids = _frozen(current[np.arange(len(current))[:, None], ids])
            digests = tuple(
                (geometry_digest(row), geometry_digest(row, queries))
                for row, queries in zip(current, centroids)
            )
            stage = StagePlan(current, centroids, ids, digests)
        stages.append(stage)
        current = stage.centroids
    return GeometryPlan(tuple(stages))


def _batch_settings(settings, batch: int) -> Sequence[ApproxSetting]:
    """Broadcast a single setting to the batch; validate sequence length."""
    if isinstance(settings, ApproxSetting):
        return [settings] * batch
    if len(settings) != batch:
        raise ValueError(f"expected {batch} settings, got {len(settings)}")
    return settings


def _stage_keys(
    cache_keys: Optional[Sequence[Optional[int]]], name: str, batch: int
) -> Optional[List[Optional[tuple]]]:
    """Per-sample cache keys for one SA stage: ``(cache_key, stage_name)``,
    or ``None`` when uncached."""
    if cache_keys is None:
        return None
    if len(cache_keys) != batch:
        raise ValueError(f"expected {batch} cache keys, got {len(cache_keys)}")
    return [(k, name) if k is not None else None for k in cache_keys]


class SetAbstraction(Module):
    """One PointNet++ set-abstraction layer over one planned stage.

    Parameters
    ----------
    num_centroids:
        Points the stage's plan samples by FPS (``None`` = group-all: a
        single pseudo-centroid at the centroid of the cloud covering every
        point, used as the global pooling stage of classifiers).
    radius, max_neighbors:
        Ball-query parameters.
    mlp_channels:
        Shared-MLP widths; input width must be ``3 + in_features``
        (relative coordinates concatenated with point features).
    pipeline:
        The approximation pipeline; one instance is usually shared by all
        layers of a network so caching and banking stay consistent.
    """

    def __init__(
        self,
        num_centroids: Optional[int],
        radius: float,
        max_neighbors: int,
        in_features: int,
        mlp_widths: Sequence[int],
        pipeline: ApproximationPipeline,
        rng: np.random.Generator,
    ):
        super().__init__()
        if num_centroids is not None and num_centroids <= 0:
            raise ValueError("num_centroids must be positive or None")
        self.num_centroids = num_centroids
        self.radius = radius
        self.max_neighbors = max_neighbors
        self.in_features = in_features
        self.pipeline = pipeline
        # batch_norm off: a training chunk holds batch_size clouds (one by
        # default), so batch statistics would be per-chunk and eval-time
        # running stats would mismatch them.  The reference implementations
        # normalize across large cross-cloud batches, which we do not form.
        self.mlp = MLP([3 + in_features, *mlp_widths], rng, batch_norm=False)
        self.out_features = mlp_widths[-1]

    def requests(
        self,
        stage: StagePlan,
        settings: Sequence[ApproxSetting],
        cache_keys: Optional[Sequence[Optional[tuple]]] = None,
    ) -> List[QueryRequest]:
        """Row ``b``'s neighbor query under ``settings[b]``, cached under
        ``cache_keys[b]`` and carrying the stage's digests; empty for the
        group-all stage, which never touches the pipeline."""
        batch = len(stage.points)
        if cache_keys is None:
            cache_keys = [None] * batch
        if len(settings) != batch or len(cache_keys) != batch:
            raise ValueError("settings and cache_keys must match the batch size")
        if self.num_centroids is None:
            return []
        return [
            QueryRequest(
                stage.points[b],
                stage.centroids[b],
                self.radius,
                self.max_neighbors,
                settings[b],
                cache_keys[b],
                digest=stage.digests[b][1],
                cloud_digest=stage.digests[b][0],
            )
            for b in range(batch)
        ]

    def forward(
        self,
        stage: StagePlan,
        features: Optional[Tensor],
        settings: Sequence[ApproxSetting],
        cache_keys: Optional[Sequence[Optional[tuple]]] = None,
    ) -> Tensor:
        """``(B, M, C_out)`` centroid features of a planned stage.

        The stage's ``B`` neighbor queries go to the pipeline in one
        :meth:`~repro.core.pipeline.ApproximationPipeline.resolve` call
        (each row carries its own setting and cache key), and gathering,
        the shared MLP and the pooling run stacked, so a single tape replay
        covers the whole mini-batch.  Row ``b`` does not depend on the
        other rows.
        """
        pts, centroids = stage.points, stage.centroids
        batch, m = centroids.shape[:2]
        if m != (self.num_centroids or 1):
            raise ValueError(f"stage plans {m} centroids, layer samples {self.num_centroids}")
        requests = self.requests(stage, settings, cache_keys)
        if self.num_centroids is None:
            k = pts.shape[1]
            indices = np.broadcast_to(np.arange(k, dtype=np.int64), (batch, 1, k))
        else:
            k = self.max_neighbors
            indices = np.stack([idx for idx, _counts in self.pipeline.resolve(requests)])
        rel = pts[np.arange(batch)[:, None, None], indices] - centroids[:, :, None, :]
        grouped = Tensor(rel)  # (B, M, K, 3)
        if features is not None:
            gathered = features.gather_rows(indices.reshape(batch, m * k)).reshape(
                batch, m, k, self.in_features
            )
            grouped = grouped.concat([gathered], axis=-1)
        elif self.in_features:
            raise ValueError("layer expects features but received none")
        out = self.mlp(grouped)  # (B, M, K, C_out)
        return out.max(axis=-2)


class PointNetwork(Module):
    """A network whose geometry is one chain of set-abstraction stages.

    Subclasses name their chain in :meth:`sa_chain` and implement
    :meth:`forward_plan`; planning, the query list and the point-array
    forwards follow from those two.
    """

    def sa_chain(self) -> List[Tuple[str, SetAbstraction]]:
        """The ``(name, layer)`` SA stages in forward order; ``name`` keys
        the stage's cache entries."""
        raise NotImplementedError

    def plan(self, points: np.ndarray) -> GeometryPlan:
        """The geometry a forward over ``(B, N, 3)`` clouds consumes."""
        return plan_chain(points, [sa.num_centroids for _name, sa in self.sa_chain()])

    def requests(
        self,
        plan: GeometryPlan,
        settings,
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> List[QueryRequest]:
        """Every neighbor query :meth:`forward_plan` over ``plan`` issues,
        stage by stage; row ``b`` of stage ``name`` is cached under
        ``(cache_keys[b], name)``."""
        batch = len(plan)
        settings = _batch_settings(settings, batch)
        return [
            request
            for (name, sa), stage in zip(self.sa_chain(), plan.stages)
            for request in sa.requests(stage, settings, _stage_keys(cache_keys, name, batch))
        ]

    def forward_plan(
        self,
        plan: GeometryPlan,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ):
        """The stacked output over a planned batch."""
        raise NotImplementedError

    def forward_batch(
        self,
        points: np.ndarray,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ):
        """:meth:`forward_plan` over ``plan(points)`` for ``(B, N, 3)`` clouds."""
        return self.forward_plan(self.plan(points), settings, cache_keys)

    def forward(
        self,
        points: np.ndarray,
        setting: ApproxSetting = ApproxSetting(),
        cache_key: Optional[int] = None,
    ):
        """The output for one ``(N, 3)`` cloud: the ``B == 1`` case of
        :meth:`forward_batch`."""
        return drop_batch_axis(
            self.forward_batch(np.asarray(points)[None], [setting], [cache_key])
        )


class FeaturePropagation(Module):
    """PointNet++ feature propagation (3-NN inverse-distance upsampling)."""

    def __init__(
        self,
        coarse_features: int,
        skip_features: int,
        mlp_widths: Sequence[int],
        rng: np.random.Generator,
        k: int = 3,
    ):
        super().__init__()
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.coarse_features = coarse_features
        self.skip_features = skip_features
        # batch_norm off: see SetAbstraction.
        self.mlp = MLP([coarse_features + skip_features, *mlp_widths], rng, batch_norm=False)
        self.out_features = mlp_widths[-1]

    def forward(
        self,
        dense_points: np.ndarray,
        coarse_points: np.ndarray,
        coarse_features: Tensor,
        skip_features: Optional[Tensor],
    ) -> Tensor:
        """``(B, N, C_out)`` features for stacked ``(B, N, 3)`` dense and
        ``(B, M, 3)`` coarse point arrays; one cloud is the ``B == 1`` stack."""
        dense = np.asarray(dense_points, dtype=np.float64)
        coarse = np.asarray(coarse_points, dtype=np.float64)
        if dense.ndim != 3 or coarse.ndim != 3:
            raise ValueError("expected stacked (B, N, 3) point arrays")
        batch, n = dense.shape[0], dense.shape[1]
        idx, w = interpolation_plan(dense, coarse, self.k)
        k = idx.shape[-1]
        gathered = coarse_features.gather_rows(idx.reshape(batch, n * k)).reshape(
            batch, n, k, self.coarse_features
        )
        interpolated = (gathered * Tensor(w[..., None])).sum(axis=-2)
        if skip_features is not None:
            interpolated = interpolated.concat([skip_features], axis=-1)
        elif self.skip_features:
            raise ValueError("layer expects skip features but received none")
        return self.mlp(interpolated)


class GlobalMaxPool(Module):
    """Max over the point axis: ``(..., N, C)`` features → ``(..., 1, C)``."""

    def forward(self, features: Tensor) -> Tensor:
        return features.max(axis=-2, keepdims=True)
