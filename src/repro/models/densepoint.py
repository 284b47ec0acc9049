"""DensePoint classifier (Liu et al., ICCV'19), scaled down.

DensePoint's signature is *dense connectivity*: each stage's narrow
"PPool/PConv" output is concatenated with the features entering it, so
late stages see early features directly.  This produces many
search-and-aggregate stages with narrow MLPs — the reason DensePoint is
neighbor-search-bound and shows Crescent's largest gains.

Our variant keeps that structure (several narrow stages, dense feature
concatenation, shared hierarchical downsampling) at synthetic-dataset
scale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ApproxSetting
from ..core.pipeline import ApproximationPipeline
from ..nn.layers import MLP, Dropout
from ..nn.module import Module
from ..nn.tensor import Tensor
from .layers import (
    GlobalMaxPool,
    SetAbstraction,
    drop_batch_axis,
    farthest_point_sampling_batched,
)

__all__ = ["DensePointClassifier"]


class DensePointClassifier(Module):
    """A densely-connected stack of narrow set-abstraction stages."""

    def __init__(
        self,
        num_classes: int,
        rng: np.random.Generator,
        pipeline: Optional[ApproximationPipeline] = None,
        stage_centroids: Sequence[int] = (96, 64, 32, 16),
        growth: int = 16,
        max_neighbors: int = 8,
    ):
        super().__init__()
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        self.pipeline = pipeline or ApproximationPipeline()
        self.stages: List[SetAbstraction] = []
        in_features = 0
        radius = 0.2
        for i, m in enumerate(stage_centroids):
            stage = SetAbstraction(
                m,
                radius,
                max_neighbors,
                in_features=in_features,
                mlp_widths=(growth,),
                pipeline=self.pipeline,
                rng=rng,
            )
            self.stages.append(stage)
            # Dense connectivity: the next stage consumes the concatenation
            # of this stage's output with the features that entered it.
            in_features = in_features + growth
            radius *= 1.5
        self.pool = GlobalMaxPool()
        self.dropout = Dropout(0.3, rng=np.random.default_rng(rng.integers(2**31)))
        # batch_norm off: single pooled row per cloud (see pointnetpp.py).
        self.head = MLP([in_features, 64, num_classes], rng, batch_norm=False, final_activation=False)

    def query_plan(
        self, points: np.ndarray, cache_keys: Optional[Sequence[Optional[int]]] = None
    ):
        """The neighbor queries a forward pass over ``(B, N, 3)`` clouds
        will issue, one list per row, in stage order."""
        from .pointnetpp import _chain_query_plan

        return _chain_query_plan(
            [(f"stage{i}", stage) for i, stage in enumerate(self.stages)],
            points,
            cache_keys,
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
        """Logits of shape ``(B, 1, num_classes)`` for ``(B, N, 3)`` clouds
        (dropout as in :meth:`PointNetPPClassifier.forward_batch`)."""
        from .pointnetpp import _batch_settings, _stage_keys

        pts = np.asarray(points, dtype=np.float64)
        batch = len(pts)
        settings = _batch_settings(settings, batch)
        current_points = pts
        features: Optional[Tensor] = None
        for i, stage in enumerate(self.stages):
            new_points, new_features = stage(
                current_points,
                features,
                settings,
                _stage_keys(cache_keys, f"stage{i}", batch),
            )
            if features is None:
                dense = new_features
            else:
                # Gather the incoming features at the surviving centroids
                # (FPS indices are deterministic, so recompute them).
                fps = farthest_point_sampling_batched(
                    current_points, stage.num_centroids
                )
                carried = features.gather_rows(fps)
                dense = new_features.concat([carried], axis=-1)
            current_points = new_points
            features = dense
        pooled = self.pool(features)
        return self.head(self.dropout(pooled))
