"""Point cloud network building blocks.

:class:`SetAbstraction` is the canonical PointNet++ layer: sample
centroids (farthest point sampling), search each centroid's neighborhood
(through an :class:`~repro.core.pipeline.ApproximationPipeline`, which is
where all of Crescent's approximation enters), gather the neighbors,
run a shared MLP on relative coordinates + features, and max-pool per
centroid.

:class:`FeaturePropagation` is the PointNet++ upsampling layer used by the
segmentation and detection heads: features are interpolated back onto a
denser point set by inverse-distance-weighted 3-NN, concatenated with skip
features, and refined by a per-point MLP.

Both layers take stacked ``(B, N, 3)`` clouds and have one ``forward``;
a single cloud is the ``B == 1`` stack.  :func:`drop_batch_axis` is how
every network's single-cloud ``forward`` reads its ``forward_batch``.

Neither neighbor search nor interpolation weights participate in gradient
flow (paper Sec. 5, Fig. 11): they are computed in NumPy and enter the
graph as constants; gradients flow through gathers and MLPs only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ApproxSetting
from ..core.pipeline import ApproximationPipeline
from ..nn.layers import MLP
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..runtime.epoch import QueryRequest
from ..runtime.session import geometry_digest

__all__ = [
    "farthest_point_sampling",
    "farthest_point_sampling_batched",
    "interpolation_plan",
    "SetAbstraction",
    "FeaturePropagation",
    "GlobalMaxPool",
    "drop_batch_axis",
]


# FPS is pure geometry: the same cloud yields the same centroid ids every
# epoch and every planning pass, so results are memoized by content digest.
# Bounded LRU; stored arrays are frozen read-only since callers only index
# with them.
_FPS_CACHE_LIMIT = 4096
_FPS_CACHE: "OrderedDict[Tuple[str, int, int], np.ndarray]" = OrderedDict()
_FPS_MISS = object()


def _fps_cache_get(key):
    hit = _FPS_CACHE.get(key, _FPS_MISS)
    if hit is not _FPS_MISS:
        _FPS_CACHE.move_to_end(key)
    return hit


def _fps_cache_put(key, chosen: np.ndarray) -> np.ndarray:
    frozen = chosen.copy()
    frozen.setflags(write=False)
    _FPS_CACHE[key] = frozen
    if len(_FPS_CACHE) > _FPS_CACHE_LIMIT:
        _FPS_CACHE.popitem(last=False)
    return frozen


def _fps_greedy_batched(pts: np.ndarray, num_samples: int, start: int) -> np.ndarray:
    """The greedy max-min iteration, in lockstep over a ``(B, N, 3)`` stack.

    Row ``b`` is bit-identical to the historical per-sample loop: every
    per-row operation (squared-distance sum, first-argmax, elementwise
    minimum) matches the per-sample arithmetic exactly.
    """
    rows = np.arange(pts.shape[0])
    chosen = np.empty((pts.shape[0], num_samples), dtype=np.int64)
    chosen[:, 0] = start
    dist = ((pts - pts[:, start][:, None, :]) ** 2).sum(axis=-1)  # (B, N)
    for i in range(1, num_samples):
        nxt = dist.argmax(axis=1)
        chosen[:, i] = nxt
        dist = np.minimum(dist, ((pts - pts[rows, nxt][:, None, :]) ** 2).sum(axis=-1))
    return chosen


def farthest_point_sampling(points: np.ndarray, num_samples: int, start: int = 0) -> np.ndarray:
    """Deterministic farthest point sampling of one ``(N, 3)`` cloud.

    Greedy max-min selection starting from ``points[start]``: the ``B == 1``
    view of :func:`farthest_point_sampling_batched`, so both share one memo.
    Determinism matters: it keeps layer geometry (and therefore the cached
    neighbor matrices) stable across training epochs — and is what makes
    the digest memoization safe.  The returned array is read-only.
    """
    return farthest_point_sampling_batched(np.asarray(points)[None], num_samples, start)[0]


def farthest_point_sampling_batched(
    points: np.ndarray, num_samples: int, start: int = 0
) -> np.ndarray:
    """Farthest point sampling of every cloud of a stacked ``(B, N, 3)`` array.

    Row ``b`` of the read-only ``(B, num_samples)`` result is the greedy
    max-min selection over ``points[b]`` alone.  Results are memoized by
    cloud digest: rows already in the memo are served from it, and the
    missing rows run the greedy iteration in one lockstep loop.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3:
        raise ValueError(f"expected stacked (B, N, 3) points, got shape {pts.shape}")
    batch, n = pts.shape[0], pts.shape[1]
    if not 0 < num_samples <= n:
        raise ValueError(f"num_samples must be in (0, {n}], got {num_samples}")
    chosen = np.empty((batch, num_samples), dtype=np.int64)
    misses = []
    keys = []
    for b in range(batch):
        key = (geometry_digest(pts[b]), num_samples, start)
        keys.append(key)
        hit = _fps_cache_get(key)
        if hit is _FPS_MISS:
            misses.append(b)
        else:
            chosen[b] = hit
    if misses:
        computed = _fps_greedy_batched(pts[misses], num_samples, start)
        for j, b in enumerate(misses):
            chosen[b] = _fps_cache_put(keys[b], computed[j])
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
    d2 = ((flat_dense[:, :, None, :] - flat_coarse[:, None, :, :]) ** 2).sum(axis=-1)
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


class SetAbstraction(Module):
    """One PointNet++ set-abstraction layer.

    Parameters
    ----------
    num_centroids:
        Points sampled by FPS this layer (``None`` = group-all: a single
        pseudo-centroid at the centroid of the cloud covering every point,
        used as the global pooling stage of classifiers).
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
        # batch_norm off: training feeds one cloud at a time, so batch
        # statistics would be per-input (and eval-time running stats would
        # mismatch them).  The reference implementations normalize across
        # large cross-cloud batches, which we cannot form here.
        self.mlp = MLP([3 + in_features, *mlp_widths], rng, batch_norm=False)
        self.out_features = mlp_widths[-1]

    def query_plan(
        self,
        points: np.ndarray,
        cache_keys: Optional[Sequence[Optional[tuple]]] = None,
    ) -> Tuple[List[QueryRequest], np.ndarray]:
        """The neighbor queries this layer's forward pass will issue.

        Takes stacked ``(B, N, 3)`` clouds with one cache key per row and
        returns ``(requests, centroids)``: row ``b``'s :class:`QueryRequest`
        and the stacked ``(B, M, 3)`` centroids the next layer plans on.
        ``requests`` is empty for the group-all stage, which never touches
        the pipeline.  Centroids come from the forward's own sampler,
        :func:`farthest_point_sampling_batched`, so a whole stack samples
        in one lockstep loop and the forward's sampling then hits the memo.
        :meth:`forward` samples and queries on its own rather than calling
        this method; the epoch suite's pure-cache-hit test
        (``TestWarmCache``) keeps the two in step, so that epoch-batched
        materialization (:mod:`repro.runtime.epoch`) warms exactly the
        entries the training forward pass will look up.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 3:
            raise ValueError(f"expected stacked (B, N, 3) points, got shape {pts.shape}")
        batch = pts.shape[0]
        if cache_keys is None:
            cache_keys = [None] * batch
        if len(cache_keys) != batch:
            raise ValueError("cache_keys must match the batch size")
        if self.num_centroids is None:
            return [], pts.mean(axis=1, keepdims=True)
        fps = farthest_point_sampling_batched(pts, self.num_centroids)
        centroids = pts[np.arange(batch)[:, None], fps]
        requests = [
            QueryRequest(
                points=pts[b],
                queries=centroids[b],
                radius=self.radius,
                max_neighbors=self.max_neighbors,
                cache_key=cache_keys[b],
            )
            for b in range(batch)
        ]
        return requests, centroids

    def forward(
        self,
        points: np.ndarray,
        features: Optional[Tensor],
        settings: Sequence[ApproxSetting],
        cache_keys: Optional[Sequence[Optional[tuple]]] = None,
    ) -> Tuple[np.ndarray, Tensor]:
        """``(centroid_points, centroid_features)`` for stacked ``(B, N, 3)``
        clouds: ``(B, M, 3)`` centroids and ``(B, M, C_out)`` features.

        Neighbor queries go through the pipeline one cloud at a time (each
        cloud carries its own approximation setting and cache key, which is
        what epoch-batched materialization warms), but sampling, gathering,
        the shared MLP and the pooling run stacked, so a single tape replay
        covers the whole mini-batch.  One cloud is the ``B == 1`` stack, and
        row ``b`` does not depend on the other rows.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 3:
            raise ValueError(f"expected stacked (B, N, 3) points, got shape {pts.shape}")
        batch = pts.shape[0]
        if cache_keys is None:
            cache_keys = [None] * batch
        if len(settings) != batch or len(cache_keys) != batch:
            raise ValueError("settings and cache_keys must match the batch size")
        if self.num_centroids is None:
            centroids = pts.mean(axis=1, keepdims=True)  # (B, 1, 3)
            k = pts.shape[1]
            indices = np.broadcast_to(np.arange(k, dtype=np.int64), (batch, 1, k))
        else:
            k = self.max_neighbors
            fps = farthest_point_sampling_batched(pts, self.num_centroids)
            centroids = pts[np.arange(batch)[:, None], fps]  # (B, M, 3)
            indices = np.stack(
                [
                    self.pipeline.query(
                        pts[i],
                        centroids[i],
                        self.radius,
                        self.max_neighbors,
                        settings[i],
                        cache_key=cache_keys[i],
                    )
                    for i in range(batch)
                ]
            )
        m = centroids.shape[1]
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
        return centroids, out.max(axis=-2)


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
