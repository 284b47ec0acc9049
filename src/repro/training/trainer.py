"""Approximation-aware training loops (paper Sec. 5, Fig. 11).

The trainer is generic over the three tasks via small adapters; what makes
it *approximation-aware* is two lines: a :class:`SettingSampler` draws an
``h = <h_t, h_e>`` per training input, and the model's forward pass runs
its neighbor pipeline under that ``h`` (bank conflicts included, through
:class:`~repro.core.pipeline.ApproximationPipeline`).  Neighbor search and
aggregation construct MLP inputs and carry no gradient, exactly as in the
paper, so end-to-end differentiability is untouched.

:class:`_BaseTrainer` owns the one step loop and the one ``evaluate``.
Training plans the geometry of every dataset position once, before the
first epoch, and each chunk's forward consumes its rows of that plan (a
training step of one input is the ``B == 1`` stack); ``evaluate`` runs
the model's stacked ``forward_batch``.  Each task supplies four hooks:
``_example`` (a dataset position's model input and loss target, built
once per run), ``_loss`` (per-sample losses of a stacked output),
``_eval_batch`` (the stacked evaluation inputs and their targets) and
``_metric`` (the task metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Sequence

import numpy as np

from ..core.config import ApproxSetting
from ..runtime.epoch import EpochPlan
from ..geometry.datasets import (
    LidarDetectionDataset,
    PartSegmentationDataset,
    ShapeClassificationDataset,
)
from ..geometry.scenes import Box3D, LidarScene
from ..models.fpointnet import CAR_ANCHOR, FrustumPointNet, frustum_crop
from ..models.layers import PointNetwork
from ..nn.losses import huber_loss, softmax_cross_entropy
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


def _check_count(name: str, value, minimum: int) -> None:
    """``value`` must be an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


class _BaseTrainer:
    def __init__(
        self,
        model: PointNetwork,
        sampler: SettingSampler = FixedSetting(ApproxSetting()),
        lr: float = 5e-3,
        seed: int = 0,
    ):
        self.model = model
        self.sampler = sampler
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.rng = np.random.default_rng(seed)

    def _example(self, idx: int, sample):
        """``(points, target)``: the ``(N, 3)`` model input of the dataset
        item at position ``idx`` and what :meth:`_loss` scores it against."""
        raise NotImplementedError

    def _loss(self, output, targets):
        """Per-sample loss vector ``(B,)`` of a stacked model output against
        its ``B`` targets; one training input is the ``B == 1`` case."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def train(self, dataset, epochs: int = 5, batch_size: int = 1) -> TrainReport:
        """Run ``epochs`` passes; samples a fresh ``h`` per input.

        Epoch-batched: the whole schedule (per-epoch shuffles and the
        per-input setting draws) is taken from the RNG up front —
        stream-compatible with the retired per-step loop, so losses are
        bit-identical seed for seed.  Each dataset position's input is
        built once (``_example``), and since geometry never depends on
        weights, every position is planned once, before the first epoch,
        as one stacked ``model.plan`` call: farthest point sampling runs
        one lockstep loop per layer and every row is digested once.  Each
        epoch resolves all of its neighbor queries in one call (one
        forest build, one forest search) before its gradient loop, which
        then samples and hashes nothing and reads the matrices back as
        pure cache hits.

        Each chunk of ``batch_size`` scheduled inputs (same sample order,
        per-sample settings and cache keys for every size) runs
        ``model.forward_plan`` over its plan rows: one tape replay and one
        optimizer step per chunk.  The default ``batch_size=1`` is the
        per-sample optimizer step; larger sizes change the optimization
        trajectory exactly as mini-batching classically does, while each
        recorded per-sample loss is the one that sample would score under
        the same parameters.
        """
        _check_count("epochs", epochs, 0)
        _check_count("batch_size", batch_size, 1)
        report = TrainReport()
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        # A dataset position is also its sample's cache key.
        examples = [self._example(idx, dataset[idx]) for idx in range(len(dataset))]
        self.model.train()
        schedules = EpochPlan.draw(self.rng, self.sampler, len(examples), epochs).schedules
        geometry = self.model.plan(np.stack([points for points, _target in examples]))
        for schedule in schedules:
            order = schedule.order.tolist()
            self.model.pipeline.resolve(
                self.model.requests(geometry.take(order), schedule.settings, order)
            )
            losses: List[float] = []
            for lo in range(0, len(order), batch_size):
                rows = order[lo : lo + batch_size]
                self.optimizer.zero_grad()
                output = self.model.forward_plan(
                    geometry.take(rows), schedule.settings[lo : lo + batch_size], rows
                )
                per_sample = self._loss(output, [examples[pos][1] for pos in rows])
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

    def _example(self, idx, sample):
        cloud, label = sample
        return cloud.points, label

    def _loss(self, output, targets):
        labels = np.array([[label] for label in targets])
        return softmax_cross_entropy(output, labels, reduction="per_sample")

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

    def _example(self, idx, sample):
        return sample.points, sample.labels

    def _loss(self, output, targets):
        return softmax_cross_entropy(output, np.stack(targets), reduction="per_sample")

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

    def _example(self, idx, scene: LidarScene):
        """The frustum crop of the scene's first box (seeded by ``idx``),
        with its per-point labels and box-regression target."""
        box = scene.boxes[0]
        crop, labels = self._frustum_sample(scene, box, seed=idx)
        return crop, (labels, self._box_target(crop, labels, box))

    def _loss(self, pred, targets):
        seg_labels = np.stack([labels for labels, _box in targets])
        boxes = np.stack([box for _labels, box in targets])
        seg_loss = softmax_cross_entropy(
            pred.segmentation_logits, seg_labels, reduction="per_sample"
        )
        box_loss = huber_loss(pred.box_params, boxes[:, None, :], reduction="per_sample")
        return seg_loss + 2.0 * box_loss

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
