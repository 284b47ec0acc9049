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
from ..nn.tensor import Tensor
from .layers import (
    FeaturePropagation,
    GeometryPlan,
    GlobalMaxPool,
    PointNetwork,
    SetAbstraction,
    _batch_settings,
    _stage_keys,
)

__all__ = ["PointNetPPClassifier", "PointNetPPSegmenter"]


class PointNetPPClassifier(PointNetwork):
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

    def sa_chain(self) -> List[Tuple[str, SetAbstraction]]:
        return [("sa1", self.sa1), ("sa2", self.sa2), ("sa3", self.sa3)]

    def forward_plan(
        self,
        plan: GeometryPlan,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> Tensor:
        """Logits of shape ``(B, 1, num_classes)`` for a planned batch
        (``forward`` drops the batch axis: ``(1, num_classes)``).

        In eval mode row ``b`` does not depend on the other rows; in
        training mode the dropout mask is drawn for the whole stack.
        """
        batch = len(plan)
        settings = _batch_settings(settings, batch)
        s1, s2, s3 = plan.stages
        f1 = self.sa1(s1, None, settings, _stage_keys(cache_keys, "sa1", batch))
        f2 = self.sa2(s2, f1, settings, _stage_keys(cache_keys, "sa2", batch))
        f3 = self.sa3(s3, f2, settings)
        return self.head(self.dropout(f3))


class PointNetPPSegmenter(PointNetwork):
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

    def sa_chain(self) -> List[Tuple[str, SetAbstraction]]:
        # The FP decoder interpolates with brute-force 3-NN, not the pipeline.
        return [("sa1", self.sa1), ("sa2", self.sa2)]

    def forward_plan(
        self,
        plan: GeometryPlan,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> Tensor:
        """Per-point logits of shape ``(B, N, num_classes)`` for a planned
        batch; row ``b`` does not depend on the other rows."""
        batch = len(plan)
        settings = _batch_settings(settings, batch)
        s1, s2 = plan.stages
        f1 = self.sa1(s1, None, settings, _stage_keys(cache_keys, "sa1", batch))
        f2 = self.sa2(s2, f1, settings, _stage_keys(cache_keys, "sa2", batch))
        up1 = self.fp2(s1.centroids, s2.centroids, f2, f1)  # features at sa1 resolution
        up0 = self.fp1(s1.points, s1.centroids, up1, None)
        return self.head(up0)
