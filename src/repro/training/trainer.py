"""Approximation-aware training loops (paper Sec. 5, Fig. 11).

The trainer is generic over the three tasks via small adapters; what makes
it *approximation-aware* is two lines: a :class:`SettingSampler` draws an
``h = <h_t, h_e>`` per training input, and the model's forward pass runs
its neighbor pipeline under that ``h`` (bank conflicts included, through
:class:`~repro.core.pipeline.ApproximationPipeline`).  Neighbor search and
aggregation construct MLP inputs and carry no gradient, exactly as in the
paper, so end-to-end differentiability is untouched.

:class:`_BaseTrainer` owns the one step loop and the one ``evaluate``; both
run the model's stacked ``forward_batch`` (a training step of one input is
the ``B == 1`` stack).  Each task supplies three hooks: ``_loss_batch``
(per-sample losses of a stacked chunk), ``_eval_batch`` (the stacked
evaluation inputs and their targets) and ``_metric`` (the task metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import ApproxSetting
from ..runtime.epoch import EpochPlan, QueryRequest
from ..geometry.datasets import (
    LidarDetectionDataset,
    PartSegmentationDataset,
    ShapeClassificationDataset,
)
from ..geometry.scenes import Box3D, LidarScene
from ..models.fpointnet import CAR_ANCHOR, FrustumPointNet, frustum_crop
from ..nn.losses import huber_loss, softmax_cross_entropy
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import no_grad
from .metrics import detection_iou_geomean, mean_iou, overall_accuracy
from .sampling import FixedSetting, SettingSampler

__all__ = [
    "TrainReport",
    "ClassificationTrainer",
    "SegmentationTrainer",
    "DetectionTrainer",
]


@dataclass
class TrainReport:
    epoch_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class _BaseTrainer:
    def __init__(
        self,
        model: Module,
        sampler: SettingSampler = FixedSetting(ApproxSetting()),
        lr: float = 5e-3,
        seed: int = 0,
    ):
        self.model = model
        self.sampler = sampler
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.rng = np.random.default_rng(seed)

    def _loss_batch(self, samples, settings, cache_keys):
        """Per-sample loss vector ``(B,)`` for a stacked mini-batch; one
        training input is the ``B == 1`` case."""
        raise NotImplementedError

    def _dataset_items(self, dataset):
        return [(i, dataset[i]) for i in range(len(dataset))]

    # -- epoch-batched materialization hooks ---------------------------
    @property
    def _pipeline(self):
        return getattr(self.model, "pipeline", None)

    def _model_points(self, idx: int, sample) -> Optional[np.ndarray]:
        """The point array ``_loss_batch`` will feed the model for this
        sample (``None`` disables materialization for the sample)."""
        return None

    def _neighbor_requests(self, idx: int, sample) -> List[QueryRequest]:
        """The neighbor queries training this sample will issue."""
        plan_fn = getattr(self.model, "query_plan", None)
        if plan_fn is None:
            return []
        points = self._model_points(idx, sample)
        if points is None:
            return []
        return list(plan_fn(points, cache_key=idx))

    # ------------------------------------------------------------------
    def train(self, dataset, epochs: int = 5, batch_size: int = 1) -> TrainReport:
        """Run ``epochs`` passes; samples a fresh ``h`` per input.

        Epoch-batched: the whole schedule (per-epoch shuffles and the
        per-input setting draws) is taken from the RNG up front —
        stream-compatible with the retired per-step loop, so losses are
        bit-identical seed for seed — and each epoch's neighbor matrices
        are materialized into the pipeline's session before its gradient
        loop runs.  Models without a ``query_plan`` skip materialization
        and compute their searches in the gradient loop.

        Each chunk of ``batch_size`` scheduled inputs (same sample order,
        per-sample settings and cache keys for every size) is stacked
        through ``_loss_batch``: one tape replay and one optimizer step per
        chunk.  The default ``batch_size=1`` is the per-sample optimizer
        step; larger sizes change the optimization trajectory exactly as
        mini-batching classically does, while each recorded per-sample
        loss is the one that sample would score under the same parameters.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        report = TrainReport()
        items = self._dataset_items(dataset)
        self.model.train()
        plan = EpochPlan.draw(self.rng, self.sampler, len(items), epochs)
        pipeline = self._pipeline
        # Query plans depend only on sample geometry (FPS and frustum
        # crops are deterministic), so plan each position once for the
        # whole run, not once per epoch.
        plan_cache: Dict[int, List[QueryRequest]] = {}

        def plan_for(pos: int) -> List[QueryRequest]:
            if pos not in plan_cache:
                plan_cache[pos] = self._neighbor_requests(*items[pos])
            return plan_cache[pos]

        for epoch in range(epochs):
            schedule = plan.schedules[epoch]
            if pipeline is not None:
                requests = plan.epoch_requests(epoch, plan_for)
                if requests:
                    pipeline.materialize(requests)
            losses: List[float] = []
            steps = list(zip(schedule.settings, schedule.order))
            for lo in range(0, len(steps), batch_size):
                chunk = steps[lo : lo + batch_size]
                settings = [setting for setting, _pos in chunk]
                keys = [items[pos][0] for _setting, pos in chunk]
                samples = [items[pos][1] for _setting, pos in chunk]
                self.optimizer.zero_grad()
                per_sample = self._loss_batch(samples, settings, keys)
                per_sample.mean().backward()
                self.optimizer.step()
                losses.extend(float(x) for x in per_sample.data)
            report.epoch_losses.append(float(np.mean(losses)))
        return report

    def evaluate(self, dataset, setting: ApproxSetting) -> float:
        """The task metric under a fixed inference-time setting.

        One stacked forward over the whole dataset in eval mode with no
        tape recorded; the mode the model was in is restored even when the
        forward raises.
        """
        points, targets = self._eval_batch(dataset)
        keys = [("eval", i) for i in range(len(points))]
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                output = self.model.forward_batch(points, setting, keys)
        finally:
            if was_training:
                self.model.train()
        return self._metric(output, points, targets)

    def _eval_batch(self, dataset):
        """``(points, targets)``: the stacked ``(B, N, 3)`` model inputs of
        an evaluation pass and what :meth:`_metric` scores them against."""
        raise NotImplementedError

    def _metric(self, output, points: np.ndarray, targets) -> float:
        """The task metric of the stacked ``forward_batch`` output."""
        raise NotImplementedError

    def evaluate_settings(
        self, dataset, settings: Sequence[ApproxSetting]
    ) -> Dict[ApproxSetting, float]:
        """Evaluate under several inference-time settings (the Fig. 13/18/19
        sweep shape); returns ``{setting: metric}`` in input order."""
        return {setting: self.evaluate(dataset, setting) for setting in settings}


class ClassificationTrainer(_BaseTrainer):
    """Trains classifiers on :class:`ShapeClassificationDataset`."""

    def _loss_batch(self, samples, settings, cache_keys):
        points = np.stack([cloud.points for cloud, _label in samples])
        labels = np.array([[label] for _cloud, label in samples])
        logits = self.model.forward_batch(points, settings, cache_keys)
        return softmax_cross_entropy(logits, labels, reduction="per_sample")

    def _model_points(self, idx, sample):
        cloud, _label = sample
        return cloud.points

    def _eval_batch(self, dataset: ShapeClassificationDataset):
        samples = [dataset[i] for i in range(len(dataset))]
        points = np.stack([cloud.points for cloud, _label in samples])
        return points, np.array([label for _cloud, label in samples])

    def _metric(self, output, points, targets) -> float:
        """Overall accuracy."""
        preds = output.data.reshape(len(points), -1).argmax(axis=-1)
        return overall_accuracy(preds, targets)


class SegmentationTrainer(_BaseTrainer):
    """Trains per-point segmenters on :class:`PartSegmentationDataset`."""

    def __init__(self, model, num_classes: int, **kwargs):
        super().__init__(model, **kwargs)
        self.num_classes = num_classes

    def _loss_batch(self, samples, settings, cache_keys):
        points = np.stack([cloud.points for cloud in samples])
        labels = np.stack([cloud.labels for cloud in samples])
        logits = self.model.forward_batch(points, settings, cache_keys)
        return softmax_cross_entropy(logits, labels, reduction="per_sample")

    def _model_points(self, idx, sample):
        return sample.points

    def _eval_batch(self, dataset: PartSegmentationDataset):
        clouds = [dataset[i] for i in range(len(dataset))]
        return np.stack([cloud.points for cloud in clouds]), clouds

    def _metric(self, output, points, targets) -> float:
        """mIoU.

        Follows the ShapeNet evaluation protocol: the object category is
        known at test time, so predictions are restricted (argmax) to the
        category's own part labels.
        """
        from ..geometry.partseg import PART_CATEGORIES, part_id

        preds = []
        for cloud, logits in zip(targets, output.data):
            category = cloud.attrs.get("category")
            if category in PART_CATEGORIES:
                allowed = np.array([part_id(p) for p in PART_CATEGORIES[category]])
                preds.append(allowed[logits[:, allowed].argmax(axis=-1)])
            else:
                preds.append(logits.argmax(axis=-1))
        labels = np.concatenate([cloud.labels for cloud in targets])
        return mean_iou(np.concatenate(preds), labels, self.num_classes)


class DetectionTrainer(_BaseTrainer):
    """Trains :class:`FrustumPointNet` on LiDAR scenes.

    Each scene contributes one frustum sample per ground-truth box: the
    frustum crop around the box bearing, per-point object labels, and the
    box-regression target (center offset from the labelled-point centroid,
    log-size residuals against the car anchor, yaw sin/cos).
    """

    def __init__(self, model: FrustumPointNet, frustum_points: int = 192, **kwargs):
        super().__init__(model, **kwargs)
        self.frustum_points = frustum_points

    def _frustum_sample(self, scene: LidarScene, box: Box3D, seed: int):
        crop = frustum_crop(
            scene.cloud.points,
            box.center[:2],
            max_points=self.frustum_points,
            rng=np.random.default_rng(seed),
        )
        labels = box.contains(crop).astype(np.int64)
        return crop, labels

    @staticmethod
    def _box_target(crop: np.ndarray, labels: np.ndarray, box: Box3D) -> np.ndarray:
        inside = crop[labels.astype(bool)]
        base = inside.mean(axis=0) if len(inside) else crop.mean(axis=0)
        return np.concatenate(
            [
                box.center - base,
                np.log(box.size / CAR_ANCHOR),
                [np.sin(box.yaw), np.cos(box.yaw)],
            ]
        )

    def _loss_batch(self, samples, settings, cache_keys):
        crops, seg_labels, targets = [], [], []
        for scene, key in zip(samples, cache_keys):
            box = scene.boxes[0]
            crop, labels = self._frustum_sample(scene, box, seed=key)
            crops.append(crop)
            seg_labels.append(labels)
            targets.append(self._box_target(crop, labels, box))
        pred = self.model.forward_batch(np.stack(crops), settings, cache_keys)
        seg_loss = softmax_cross_entropy(
            pred.segmentation_logits, np.stack(seg_labels), reduction="per_sample"
        )
        box_loss = huber_loss(
            pred.box_params, np.stack(targets)[:, None, :], reduction="per_sample"
        )
        return seg_loss + 2.0 * box_loss

    def _model_points(self, idx, sample):
        scene = sample
        crop, _ = self._frustum_sample(scene, scene.boxes[0], seed=idx)
        return crop

    def _eval_batch(self, dataset: LidarDetectionDataset):
        scenes = [dataset[i] for i in range(len(dataset))]
        crops = [
            self._frustum_sample(scene, scene.boxes[0], seed=10_000 + i)[0]
            for i, scene in enumerate(scenes)
        ]
        return np.stack(crops), [scene.boxes[0] for scene in scenes]

    def _metric(self, output, points, targets) -> float:
        """Geometric-mean BEV IoU on the first box of each scene."""
        predicted = [output.sample(i).decode(crop) for i, crop in enumerate(points)]
        return detection_iou_geomean(predicted, targets)
