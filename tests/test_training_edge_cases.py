"""Edge-case and robustness tests for the training stack."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import ApproxSetting, ApproximationPipeline
from repro.geometry import ShapeClassificationDataset, generate_scene
from repro.models import FrustumPointNet, PointNetPPClassifier, frustum_crop
from repro.models.fpointnet import CAR_ANCHOR
from repro.training import ClassificationTrainer, FixedSetting
from repro.training.trainer import DetectionTrainer


class TestEvaluationDeterminism:
    def test_evaluate_is_repeatable(self):
        ds = ShapeClassificationDataset(size=8, num_points=96, rotate=False)
        model = PointNetPPClassifier(ds.num_classes, np.random.default_rng(0))
        trainer = ClassificationTrainer(model, FixedSetting(ApproxSetting()))
        a = trainer.evaluate(ds, ApproxSetting(2, 3))
        b = trainer.evaluate(ds, ApproxSetting(2, 3))
        assert a == b

    def test_evaluate_restores_training_mode(self):
        # 96-point clouds evaluate; 32-point clouds are fewer than the 64
        # first-layer centroids, so farthest point sampling raises mid-forward.
        for num_points, outcome in (
            (96, nullcontext()),
            (32, pytest.raises(ValueError, match="num_samples")),
        ):
            ds = ShapeClassificationDataset(size=4, num_points=num_points, rotate=False)
            model = PointNetPPClassifier(ds.num_classes, np.random.default_rng(0))
            trainer = ClassificationTrainer(model, FixedSetting(ApproxSetting()))
            with outcome:
                trainer.evaluate(ds, ApproxSetting())
            assert model.training  # trainer flips back for the next epoch


class TestTrainingStateIsolation:
    def test_training_does_not_mutate_dataset(self):
        ds = ShapeClassificationDataset(size=4, num_points=96, rotate=False)
        before = ds[0][0].points.copy()
        model = PointNetPPClassifier(ds.num_classes, np.random.default_rng(0))
        ClassificationTrainer(model, FixedSetting(ApproxSetting())).train(ds, 1)
        assert np.array_equal(ds[0][0].points, before)


class TestFrustumEdgeCases:
    def test_crop_with_no_points_in_frustum_falls_back(self):
        # Proposal pointing away from every point: crop must still return
        # a valid fixed-size sample.
        pts = np.array([[10.0, 0.0, 0.0]] * 5)
        crop = frustum_crop(pts, np.array([-10.0, 0.0]), half_angle=0.05,
                            max_points=8)
        assert crop.shape == (8, 3)

    def test_decode_with_empty_segmentation(self):
        scene = generate_scene(np.random.default_rng(0), num_points=512, num_cars=1)
        model = FrustumPointNet(np.random.default_rng(0))
        crop = frustum_crop(scene.cloud.points, scene.boxes[0].center[:2],
                            max_points=64)
        pred = model(crop)
        # Force an all-background segmentation and decode anyway.
        pred.segmentation_logits.data[:, 0] = 10.0
        pred.segmentation_logits.data[:, 1] = -10.0
        box = pred.decode(crop)
        assert np.isfinite(box.center).all()

    def test_box_size_clipped_to_sane_range(self):
        scene = generate_scene(np.random.default_rng(1), num_points=512, num_cars=1)
        model = FrustumPointNet(np.random.default_rng(1))
        crop = frustum_crop(scene.cloud.points, scene.boxes[0].center[:2],
                            max_points=64)
        pred = model(crop)
        pred.box_params.data[0, 3:6] = 100.0  # absurd log-size residuals
        box = pred.decode(crop)
        assert (box.size <= CAR_ANCHOR * np.exp(1.5) + 1e-9).all()

    def test_detection_box_target_round_trip(self):
        scene = generate_scene(np.random.default_rng(2), num_points=1024, num_cars=1)
        box = scene.boxes[0]
        crop = frustum_crop(scene.cloud.points, box.center[:2], max_points=128)
        labels = box.contains(crop).astype(np.int64)
        target = DetectionTrainer._box_target(crop, labels, box)
        # Decoding the target parameters must recover the ground truth box.
        inside = crop[labels.astype(bool)]
        base = inside.mean(axis=0) if len(inside) else crop.mean(axis=0)
        assert np.allclose(base + target[:3], box.center)
        assert np.allclose(CAR_ANCHOR * np.exp(target[3:6]), box.size)
        assert np.isclose(np.arctan2(target[6], target[7]), box.yaw)
