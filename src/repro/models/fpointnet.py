"""F-PointNet detection model (Qi et al., CVPR'18), scaled down.

The original pipeline lifts 2D detections into frustums, segments the
frustum's points into object vs clutter, and regresses an amodal 3D box
with a PointNet on the segmented points.  We reproduce the point cloud
side: given a frustum crop of a LiDAR scene around a proposal, the model

1. segments frustum points (PointNet++-style encoder + propagation),
2. regresses the box: center offset (from the segmented centroid),
   log-size residuals against a car-class anchor, and yaw (sin/cos).

Training uses cross-entropy for segmentation and Huber loss for the box,
as in the original.  The detection metric (paper Tbl. 1) is BEV IoU on
the car class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import ApproxSetting
from ..core.pipeline import ApproximationPipeline
from ..geometry.scenes import Box3D
from ..nn.layers import MLP
from ..nn.tensor import Tensor
from .layers import (
    FeaturePropagation,
    GeometryPlan,
    GlobalMaxPool,
    PointNetwork,
    SetAbstraction,
    _batch_settings,
    _stage_keys,
    drop_batch_axis,
)

__all__ = ["FrustumPointNet", "BoxPrediction", "frustum_crop", "CAR_ANCHOR"]

# Anchor box (length, width, height) for the car class, meters.
CAR_ANCHOR = np.array([4.2, 1.8, 1.55])


@dataclass
class BoxPrediction:
    """Decoded detection output.

    :meth:`FrustumPointNet.forward_batch` returns one instance holding
    stacked ``(B, N, 2)`` / ``(B, 1, 8)`` tensors; use :meth:`sample` to
    slice out a per-frustum prediction before decoding.
    """

    segmentation_logits: Tensor  # (N, 2)
    box_params: Tensor  # (1, 7): dx, dy, dz, dlogl, dlogw, dlogh, yaw_sin, yaw_cos

    def sample(self, index: int) -> "BoxPrediction":
        """Per-sample view of a stacked prediction (forward values only —
        the slices are detached constants, fine for decoding/metrics)."""
        return BoxPrediction(
            segmentation_logits=Tensor(self.segmentation_logits.data[index]),
            box_params=Tensor(self.box_params.data[index]),
        )

    def decode(self, points: np.ndarray) -> Box3D:
        """Turn network outputs into a world-frame box."""
        points = np.asarray(points, dtype=np.float64)
        seg = self.segmentation_logits.data.argmax(axis=1).astype(bool)
        base = points[seg].mean(axis=0) if seg.any() else points.mean(axis=0)
        params = self.box_params.data[0]
        center = base + params[:3]
        size = CAR_ANCHOR * np.exp(np.clip(params[3:6], -1.5, 1.5))
        yaw = float(np.arctan2(params[6], params[7]))
        return Box3D(center, size, yaw)


def frustum_crop(
    points: np.ndarray,
    center_xy: np.ndarray,
    half_angle: float = 0.25,
    max_points: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Crop the scene to an angular frustum around a proposal direction.

    Emulates lifting a 2D detection into 3D: keep points whose bearing is
    within ``half_angle`` radians of the proposal's bearing, re-sampled to
    a fixed size.
    """
    points = np.asarray(points, dtype=np.float64)
    bearing = np.arctan2(points[:, 1], points[:, 0])
    target = np.arctan2(center_xy[1], center_xy[0])
    diff = np.angle(np.exp(1j * (bearing - target)))
    mask = np.abs(diff) <= half_angle
    crop = points[mask]
    if len(crop) == 0:
        crop = points
    rng = rng or np.random.default_rng(0)
    idx = rng.choice(len(crop), size=max_points, replace=len(crop) < max_points)
    return crop[idx]


class FrustumPointNet(PointNetwork):
    """Frustum segmentation + box regression."""

    def __init__(
        self,
        rng: np.random.Generator,
        pipeline: Optional[ApproximationPipeline] = None,
        num_centroids: Tuple[int, int] = (64, 16),
        radii: Tuple[float, float] = (1.5, 3.0),
        max_neighbors: int = 8,
    ):
        super().__init__()
        self.pipeline = pipeline or ApproximationPipeline()
        self.sa1 = SetAbstraction(
            num_centroids[0], radii[0], max_neighbors,
            in_features=0, mlp_widths=(32, 32), pipeline=self.pipeline, rng=rng,
        )
        self.sa2 = SetAbstraction(
            num_centroids[1], radii[1], max_neighbors,
            in_features=32, mlp_widths=(64, 64), pipeline=self.pipeline, rng=rng,
        )
        self.fp2 = FeaturePropagation(64, 32, (64,), rng)
        self.fp1 = FeaturePropagation(64, 0, (32,), rng)
        self.seg_head = MLP([32, 32, 2], rng, batch_norm=False, final_activation=False)
        self.pool = GlobalMaxPool()
        # batch_norm off: single pooled row per frustum.
        self.box_head = MLP([64, 64, 8], rng, batch_norm=False, final_activation=False)

    def sa_chain(self) -> List[Tuple[str, SetAbstraction]]:
        return [("sa1", self.sa1), ("sa2", self.sa2)]

    def plan(self, frustum_points: np.ndarray) -> GeometryPlan:
        """The geometry of a forward over ``(B, N, 3)`` frustum crops, each
        centred on its centroid so the MLPs see local scale (box decoding
        adds the centroid back through the segmented mean)."""
        pts = np.asarray(frustum_points, dtype=np.float64)
        return super().plan(pts - pts.mean(axis=1, keepdims=True))

    def forward(
        self,
        frustum_points: np.ndarray,
        setting: ApproxSetting = ApproxSetting(),
        cache_key: Optional[int] = None,
    ) -> BoxPrediction:
        """Prediction for one frustum crop: segmentation logits ``(N, 2)``
        and box params ``(1, 8)`` (the ``B == 1`` case of
        :meth:`forward_batch`)."""
        pred = self.forward_batch(np.asarray(frustum_points)[None], [setting], [cache_key])
        return BoxPrediction(
            segmentation_logits=drop_batch_axis(pred.segmentation_logits),
            box_params=drop_batch_axis(pred.box_params),
        )

    def forward_plan(
        self,
        plan: GeometryPlan,
        settings=ApproxSetting(),
        cache_keys=None,
    ) -> BoxPrediction:
        """Stacked prediction for a planned batch of frustum crops:
        segmentation logits ``(B, N, 2)`` and box params ``(B, 1, 8)``.
        Row ``b`` does not depend on the other rows."""
        batch = len(plan)
        settings = _batch_settings(settings, batch)
        s1, s2 = plan.stages
        f1 = self.sa1(s1, None, settings, _stage_keys(cache_keys, "sa1", batch))
        f2 = self.sa2(s2, f1, settings, _stage_keys(cache_keys, "sa2", batch))
        up1 = self.fp2(s1.centroids, s2.centroids, f2, f1)
        up0 = self.fp1(s1.points, s1.centroids, up1, None)
        seg_logits = self.seg_head(up0)
        box = self.box_head(self.pool(f2))
        return BoxPrediction(segmentation_logits=seg_logits, box_params=box)
