"""Approximation-aware training loops (paper Sec. 5, Fig. 11).

The trainer is generic over the three tasks via small adapters; what makes
it *approximation-aware* is two lines: a :class:`SettingSampler` draws an
``h = <h_t, h_e>`` per training input, and the model's forward pass runs
its neighbor pipeline under that ``h`` (bank conflicts included, through
:class:`~repro.core.pipeline.ApproximationPipeline`).  Neighbor search and
aggregation construct MLP inputs and carry no gradient, exactly as in the
paper, so end-to-end differentiability is untouched.
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

    def _loss(self, sample, setting: ApproxSetting, cache_key: int):
        raise NotImplementedError

    def _loss_batch(self, samples, settings, cache_keys):
        """Per-sample loss vector ``(B,)`` for a stacked mini-batch.

        Row ``b`` must equal ``_loss(samples[b], settings[b],
        cache_keys[b])`` bit for bit under the current parameters — the
        contract every ``forward_batch``/``reduction="per_sample"`` pair
        in this repo upholds.
        """
        raise NotImplementedError

    def _dataset_items(self, dataset):
        return [(i, dataset[i]) for i in range(len(dataset))]

    # -- epoch-batched materialization hooks ---------------------------
    @property
    def _pipeline(self):
        return getattr(self.model, "pipeline", None)

    def _model_points(self, idx: int, sample) -> Optional[np.ndarray]:
        """The point array ``_loss`` will feed the model for this sample
        (``None`` disables materialization for the sample)."""
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
    def train(
        self,
        dataset,
        epochs: int = 5,
        batch_size: Optional[int] = None,
    ) -> TrainReport:
        """Run ``epochs`` passes; samples a fresh ``h`` per input.

        Epoch-batched: the whole schedule (per-epoch shuffles and the
        per-input setting draws) is taken from the RNG up front —
        stream-compatible with the retired per-step loop, so losses are
        bit-identical seed for seed — and each epoch's neighbor matrices
        are materialized into the pipeline's session before its gradient
        loop runs.  Models without a ``query_plan`` skip materialization
        and compute per step, as before.

        ``batch_size=None`` (default) keeps the historical per-sample
        optimizer step.  An integer runs honest mini-batch SGD over the
        *same* schedule (same RNG stream, same sample order, same
        per-sample settings and cache keys): each chunk of the epoch
        schedule is stacked through ``_loss_batch`` — one tape replay and
        one optimizer step per chunk — and the per-sample losses recorded
        in the report are bit-identical to what the per-sample loop would
        compute *under the same parameters*.  ``batch_size=1`` reproduces
        the default loop bit for bit; larger sizes change the optimization
        trajectory exactly as mini-batching classically does.
        """
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive or None")
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
            if batch_size is None:
                for setting, pos in zip(schedule.settings, schedule.order):
                    idx, sample = items[pos]
                    self.optimizer.zero_grad()
                    loss = self._loss(sample, setting, cache_key=idx)
                    loss.backward()
                    self.optimizer.step()
                    losses.append(loss.item())
            else:
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
        raise NotImplementedError

    def evaluate_settings(
        self, dataset, settings: Sequence[ApproxSetting]
    ) -> Dict[ApproxSetting, float]:
        """Evaluate under several inference-time settings (the Fig. 13/18/19
        sweep shape); returns ``{setting: metric}`` in input order."""
        return {setting: self.evaluate(dataset, setting) for setting in settings}


class ClassificationTrainer(_BaseTrainer):
    """Trains classifiers on :class:`ShapeClassificationDataset`."""

    def _loss(self, sample, setting, cache_key):
        cloud, label = sample
        logits = self.model(cloud.points, setting, cache_key=cache_key)
        return softmax_cross_entropy(logits, np.array([label]))

    def _loss_batch(self, samples, settings, cache_keys):
        points = np.stack([cloud.points for cloud, _label in samples])
        labels = np.array([[label] for _cloud, label in samples])
        logits = self.model.forward_batch(points, settings, cache_keys)
        return softmax_cross_entropy(logits, labels, reduction="per_sample")

    def _model_points(self, idx, sample):
        cloud, _label = sample
        return cloud.points

    def evaluate(
        self,
        dataset: ShapeClassificationDataset,
        setting: ApproxSetting,
    ) -> float:
        """Overall accuracy under a fixed inference-time setting."""
        was_training = self.model.training
        self.model.eval()
        preds, labels = [], []
        forward_batch = getattr(self.model, "forward_batch", None)
        clouds = [dataset[i] for i in range(len(dataset))]
        stackable = len({np.shape(cloud.points) for cloud, _label in clouds}) == 1
        with no_grad():
            if forward_batch is not None and clouds and stackable:
                points = np.stack([cloud.points for cloud, _label in clouds])
                keys = [("eval", i) for i in range(len(clouds))]
                logits = forward_batch(points, setting, keys)
                preds = list(logits.data.reshape(len(clouds), -1).argmax(axis=-1))
                labels = [label for _cloud, label in clouds]
            else:
                for i, (cloud, label) in enumerate(clouds):
                    logits = self.model(cloud.points, setting, cache_key=("eval", i))
                    preds.append(int(logits.data.argmax()))
                    labels.append(label)
        # Restore the mode the model was actually in: evaluating an
        # eval-mode model must not silently flip it to training.
        if was_training:
            self.model.train()
        return overall_accuracy(np.array(preds), np.array(labels))


class SegmentationTrainer(_BaseTrainer):
    """Trains per-point segmenters on :class:`PartSegmentationDataset`."""

    def __init__(self, model, num_classes: int, **kwargs):
        super().__init__(model, **kwargs)
        self.num_classes = num_classes

    def _loss(self, sample, setting, cache_key):
        cloud = sample
        logits = self.model(cloud.points, setting, cache_key=cache_key)
        return softmax_cross_entropy(logits, cloud.labels)

    def _loss_batch(self, samples, settings, cache_keys):
        points = np.stack([cloud.points for cloud in samples])
        labels = np.stack([cloud.labels for cloud in samples])
        logits = self.model.forward_batch(points, settings, cache_keys)
        return softmax_cross_entropy(logits, labels, reduction="per_sample")

    def _model_points(self, idx, sample):
        return sample.points

    def evaluate(
        self,
        dataset: PartSegmentationDataset,
        setting: ApproxSetting,
    ) -> float:
        """mIoU under a fixed inference-time setting.

        Follows the ShapeNet evaluation protocol: the object category is
        known at test time, so predictions are restricted (argmax) to the
        category's own part labels.
        """
        from ..geometry.partseg import PART_CATEGORIES, part_id

        was_training = self.model.training
        self.model.eval()
        all_preds, all_labels = [], []
        clouds = [dataset[i] for i in range(len(dataset))]
        forward_batch = getattr(self.model, "forward_batch", None)
        stackable = len({np.shape(cloud.points) for cloud in clouds}) == 1

        def predict(cloud, logits_data: np.ndarray) -> np.ndarray:
            category = cloud.attrs.get("category")
            if category in PART_CATEGORIES:
                allowed = np.array([part_id(p) for p in PART_CATEGORIES[category]])
                restricted = logits_data[:, allowed]
                return allowed[restricted.argmax(axis=-1)]
            return logits_data.argmax(axis=-1)

        with no_grad():
            if forward_batch is not None and clouds and stackable:
                points = np.stack([cloud.points for cloud in clouds])
                keys = [("eval", i) for i in range(len(clouds))]
                logits = forward_batch(points, setting, keys)
                for i, cloud in enumerate(clouds):
                    all_preds.append(predict(cloud, logits.data[i]))
                    all_labels.append(cloud.labels)
            else:
                for i, cloud in enumerate(clouds):
                    logits = self.model(cloud.points, setting, cache_key=("eval", i))
                    all_preds.append(predict(cloud, logits.data))
                    all_labels.append(cloud.labels)
        if was_training:
            self.model.train()
        return mean_iou(
            np.concatenate(all_preds), np.concatenate(all_labels), self.num_classes
        )


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

    def _loss(self, sample, setting, cache_key):
        scene = sample
        box = scene.boxes[0]
        crop, labels = self._frustum_sample(scene, box, seed=cache_key)
        pred = self.model(crop, setting, cache_key=cache_key)
        seg_loss = softmax_cross_entropy(pred.segmentation_logits, labels)
        target = self._box_target(crop, labels, box)
        box_loss = huber_loss(pred.box_params, target[None, :])
        return seg_loss + 2.0 * box_loss

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

    def evaluate(
        self,
        dataset: LidarDetectionDataset,
        setting: ApproxSetting,
    ) -> float:
        """Geometric-mean BEV IoU on the first box of each scene."""
        was_training = self.model.training
        self.model.eval()
        predicted, truth = [], []
        crops = []
        for i in range(len(dataset)):
            scene = dataset[i]
            truth.append(scene.boxes[0])
            crops.append(
                self._frustum_sample(scene, scene.boxes[0], seed=10_000 + i)[0]
            )
        with no_grad():
            if crops:
                keys = [("eval", i) for i in range(len(crops))]
                pred = self.model.forward_batch(np.stack(crops), setting, keys)
                predicted = [
                    pred.sample(i).decode(crop) for i, crop in enumerate(crops)
                ]
        if was_training:
            self.model.train()
        return detection_iou_geomean(predicted, truth)
