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
from ..nn.tensor import Tensor
from .layers import (
    GeometryPlan,
    GlobalMaxPool,
    PointNetwork,
    SetAbstraction,
    _batch_settings,
    _stage_keys,
)

__all__ = ["DensePointClassifier"]


class DensePointClassifier(PointNetwork):
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

    def sa_chain(self) -> List[Tuple[str, SetAbstraction]]:
        return [(f"stage{i}", stage) for i, stage in enumerate(self.stages)]

    def forward_plan(
        self,
        plan: GeometryPlan,
        settings=ApproxSetting(),
        cache_keys: Optional[Sequence[Optional[int]]] = None,
    ) -> Tensor:
        """Logits of shape ``(B, 1, num_classes)`` for a planned batch
        (dropout as in :meth:`PointNetPPClassifier.forward_plan`)."""
        batch = len(plan)
        settings = _batch_settings(settings, batch)
        features: Optional[Tensor] = None
        for (name, layer), stage in zip(self.sa_chain(), plan.stages):
            new_features = layer(stage, features, settings, _stage_keys(cache_keys, name, batch))
            if features is not None:
                # Carry the incoming features at the stage's centroids.
                carried = features.gather_rows(stage.ids)
                new_features = new_features.concat([carried], axis=-1)
            features = new_features
        pooled = self.pool(features)
        return self.head(self.dropout(pooled))
