"""PointNet++ classification and segmentation models (Qi et al., NeurIPS'17).

Scaled-down single-scale-grouping (SSG) variants sized for the synthetic
datasets: the architecture — hierarchical set abstraction, global pooling
for classification, feature propagation for segmentation — matches the
originals; widths and point counts are reduced so CPU training converges
in seconds.

Every forward takes an :class:`~repro.core.config.ApproxSetting`, which is
how both inference-time approximation and approximation-aware training
(sampling ``h`` per input) are expressed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ApproxSetting
from ..core.pipeline import ApproximationPipeline
from ..nn.layers import MLP, Dropout
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..runtime.epoch import QueryRequest
from .layers import FeaturePropagation, GlobalMaxPool, SetAbstraction, drop_batch_axis


def _chain_query_plan(
    stages: Sequence[Tuple[str, SetAbstraction]],
    points: np.ndarray,
    cache_keys: Optional[Sequence[Optional[int]]],
) -> List[List[QueryRequest]]:
    """Thread a ``(B, N, 3)`` stack through a chain of SA stages; returns
    each row's :class:`QueryRequest` list, in stage order, under the cache
    keys its forward pass will use (``(cache_key, stage_name)``, or
    ``None`` when uncached)."""
    current = np.asarray(points, dtype=np.float64)
    batch = len(current)
    rows: List[List[QueryRequest]] = [[] for _ in range(batch)]
    for name, stage in stages:
        requests, current = stage.query_plan(
            current, _stage_keys(cache_keys, name, batch)
        )
        for row, request in zip(rows, requests):
            row.append(request)
    return rows

__all__ = ["PointNetPPClassifier", "PointNetPPSegmenter"]


def _batch_settings(
    settings, batch: int
) -> Sequence[ApproxSetting]:
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
    the convention :func:`_chain_query_plan` plans under."""
    if cache_keys is None:
        return None
    if len(cache_keys) != batch:
        raise ValueError(f"expected {batch} cache keys, got {len(cache_keys)}")
    return [(k, name) if k is not None else None for k in cache_keys]


class PointNetPPClassifier(Module):
    """PointNet++ (c): SA ×2 → group-all SA → classifier head."""

    def __init__(
        self,
        num_classes: int,
        rng: np.random.Generator,
        pipeline: Optional[ApproximationPipeline] = None,
        num_centroids: Tuple[int, int] = (64, 16),
        radii: Tuple[float, float] = (0.25, 0.5),
        max_neighbors: int = 8,
    ):
        super().__init__()
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        self.pipeline = pipeline or ApproximationPipeline()
        self.sa1 = SetAbstraction(
            num_centroids[0], radii[0], max_neighbors,
            in_features=0, mlp_widths=(32, 32), pipeline=self.pipeline, rng=rng,
        )
        self.sa2 = SetAbstraction(
            num_centroids[1], radii[1], max_neighbors,
            in_features=32, mlp_widths=(64, 64), pipeline=self.pipeline, rng=rng,
        )
        self.sa3 = SetAbstraction(
            None, 1.0, max_neighbors,
            in_features=64, mlp_widths=(128,), pipeline=self.pipeline, rng=rng,
        )
        self.pool = GlobalMaxPool()
        self.dropout = Dropout(0.3, rng=np.random.default_rng(rng.integers(2**31)))
        # batch_norm off: the head sees a single pooled row per cloud, and
        # normalizing a batch of one zeroes it.
        self.head = MLP([128, 64, num_classes], rng, batch_norm=False, final_activation=False)

    def query_plan(
        self, points: np.ndarray, cache_keys: Optional[Sequence[Optional[int]]] = None
    ) -> List[List[QueryRequest]]:
        """The neighbor queries a forward pass over ``(B, N, 3)`` clouds
        will issue, one list per row (sa3 is group-all and never queries
        the pipeline)."""
        return _chain_query_plan(
            [("sa1", self.sa1), ("sa2", self.sa2)], points, cache_keys
        )

    def forward(
        self,
        points: np.ndarray,
        setting: ApproxSetting = ApproxSetting(),
        cache_key: Optional[int] = None,
    ) -> Tensor:
        """Logits of shape ``(1, num_classes)`` for one cloud (the
        ``B == 1`` case of :meth:`forward_batch`)."""
        return drop_batch_axis(
            self.forward_batch(np.asarray(points)[None], [setting], [cache_key])
        )

    def forward_batch(
        self,
        points: np.ndarray,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> Tensor:
        """Logits of shape ``(B, 1, num_classes)`` for ``(B, N, 3)`` clouds.

        In eval mode row ``b`` does not depend on the other rows; in
        training mode the dropout mask is drawn for the whole stack.
        """
        pts = np.asarray(points, dtype=np.float64)
        batch = len(pts)
        settings = _batch_settings(settings, batch)
        p1, f1 = self.sa1(pts, None, settings, _stage_keys(cache_keys, "sa1", batch))
        p2, f2 = self.sa2(p1, f1, settings, _stage_keys(cache_keys, "sa2", batch))
        _, f3 = self.sa3(p2, f2, settings)
        return self.head(self.dropout(f3))


class PointNetPPSegmenter(Module):
    """PointNet++ (s): SA encoder + FP decoder → per-point logits."""

    def __init__(
        self,
        num_classes: int,
        rng: np.random.Generator,
        pipeline: Optional[ApproximationPipeline] = None,
        num_centroids: Tuple[int, int] = (64, 16),
        radii: Tuple[float, float] = (0.25, 0.5),
        max_neighbors: int = 8,
    ):
        super().__init__()
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        self.pipeline = pipeline or ApproximationPipeline()
        self.sa1 = SetAbstraction(
            num_centroids[0], radii[0], max_neighbors,
            in_features=0, mlp_widths=(32, 32), pipeline=self.pipeline, rng=rng,
        )
        self.sa2 = SetAbstraction(
            num_centroids[1], radii[1], max_neighbors,
            in_features=32, mlp_widths=(64, 64), pipeline=self.pipeline, rng=rng,
        )
        self.fp2 = FeaturePropagation(64, 32, (64,), rng)  # coarse→sa1 level
        self.fp1 = FeaturePropagation(64, 0, (32,), rng)  # sa1→input level
        self.head = MLP([32, 32, num_classes], rng, batch_norm=False, final_activation=False)

    def query_plan(
        self, points: np.ndarray, cache_keys: Optional[Sequence[Optional[int]]] = None
    ) -> List[List[QueryRequest]]:
        """The neighbor queries a forward pass over ``(B, N, 3)`` clouds
        will issue, one list per row (the FP decoder interpolates with
        brute-force 3-NN, not the pipeline)."""
        return _chain_query_plan(
            [("sa1", self.sa1), ("sa2", self.sa2)], points, cache_keys
        )

    def forward(
        self,
        points: np.ndarray,
        setting: ApproxSetting = ApproxSetting(),
        cache_key: Optional[int] = None,
    ) -> Tensor:
        """Per-point logits of shape ``(N, num_classes)`` for one cloud (the
        ``B == 1`` case of :meth:`forward_batch`)."""
        return drop_batch_axis(
            self.forward_batch(np.asarray(points)[None], [setting], [cache_key])
        )

    def forward_batch(
        self,
        points: np.ndarray,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> Tensor:
        """Per-point logits of shape ``(B, N, num_classes)`` for
        ``(B, N, 3)`` clouds; row ``b`` does not depend on the other rows."""
        pts = np.asarray(points, dtype=np.float64)
        batch = len(pts)
        settings = _batch_settings(settings, batch)
        p1, f1 = self.sa1(pts, None, settings, _stage_keys(cache_keys, "sa1", batch))
        p2, f2 = self.sa2(p1, f1, settings, _stage_keys(cache_keys, "sa2", batch))
        up1 = self.fp2(p1, p2, f2, f1)  # features at sa1 resolution
        up0 = self.fp1(pts, p1, up1, None)
        return self.head(up0)
