"""Stacked mini-batch paths: batching changes nothing but speed.

Every network has one implementation, the stacked ``forward_batch``; its
single-cloud ``forward`` is the ``B == 1`` stack.  The contract pinned here:

* row ``b`` of a stacked forward equals the one-cloud forward of sample
  ``b`` bit for bit (all four networks), so a row never depends on the
  rest of its batch;
* the vectorized geometry plans (batched FPS, 3-NN interpolation) equal
  the historical per-sample/per-point loops bit for bit;
* per-sample loss rows equal the scalar per-sample losses bit for bit;
* ``train(batch_size=1)`` is the default loop — losses *and* trained
  parameters — and the stacked ``evaluate`` returns the same metric the
  retired per-sample evaluation loop computed.
"""

import numpy as np
import pytest

from repro.core import ApproxSetting
from repro.geometry import (
    LidarDetectionDataset,
    PartSegmentationDataset,
    ShapeClassificationDataset,
    num_part_classes,
)
from repro.kdtree.brute import brute_knn_search
from repro.models import (
    DensePointClassifier,
    FrustumPointNet,
    PointNetPPClassifier,
    PointNetPPSegmenter,
)
from repro.models.layers import (
    farthest_point_sampling,
    farthest_point_sampling_batched,
    interpolation_plan,
)
from repro.nn.losses import huber_loss, mse_loss, softmax_cross_entropy
from repro.training import (
    ClassificationTrainer,
    DetectionTrainer,
    MixedSetting,
    SegmentationTrainer,
)

MIXED = MixedSetting(top_heights=[0, 2], elision_heights=[5, None])
SETTING = ApproxSetting(top_height=2, elision_height=None)


def _clouds(batch=3, n=96, seed=0):
    return np.random.default_rng(seed).normal(scale=0.5, size=(batch, n, 3))


class TestGeometryPlans:
    def test_batched_fps_rows_bit_identical(self):
        pts = _clouds(4, 80, seed=1)
        batched = farthest_point_sampling_batched(pts, 24)
        for b in range(len(pts)):
            np.testing.assert_array_equal(
                batched[b], farthest_point_sampling(pts[b], 24)
            )

    def test_batched_fps_validates_shape_and_count(self):
        with pytest.raises(ValueError):
            farthest_point_sampling_batched(np.zeros((5, 3)), 2)
        with pytest.raises(ValueError):
            farthest_point_sampling_batched(np.zeros((2, 5, 3)), 6)

    def test_interpolation_plan_matches_per_point_loop(self):
        # The retired FeaturePropagation inner loop, verbatim.
        rng = np.random.default_rng(2)
        dense = rng.normal(size=(50, 3))
        coarse = rng.normal(size=(12, 3))
        k = min(3, len(coarse))
        idx_ref = np.empty((len(dense), k), dtype=np.int64)
        w_ref = np.empty((len(dense), k))
        for i in range(len(dense)):
            nearest = brute_knn_search(coarse, dense[i], k)
            idx_ref[i] = nearest
            d = np.linalg.norm(coarse[nearest] - dense[i], axis=1)
            inv = 1.0 / np.maximum(d, 1e-8)
            w_ref[i] = inv / inv.sum()
        idx, w = interpolation_plan(dense, coarse, 3)
        np.testing.assert_array_equal(idx, idx_ref)
        assert w.tobytes() == w_ref.tobytes()

    def test_interpolation_plan_batched_rows_match_unbatched(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(3, 40, 3))
        coarse = rng.normal(size=(3, 9, 3))
        idx, w = interpolation_plan(dense, coarse, 3)
        for b in range(3):
            idx_b, w_b = interpolation_plan(dense[b], coarse[b], 3)
            np.testing.assert_array_equal(idx[b], idx_b)
            assert w[b].tobytes() == w_b.tobytes()

    def test_interpolation_plan_caps_k_and_checks_leading_axes(self):
        rng = np.random.default_rng(4)
        idx, _w = interpolation_plan(rng.normal(size=(5, 3)), rng.normal(size=(2, 3)), 3)
        assert idx.shape == (5, 2)
        with pytest.raises(ValueError):
            interpolation_plan(
                rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4, 3)), 3
            )


class TestModelForwardBatch:
    """Row ``b`` of forward_batch == forward(sample ``b``), bitwise."""

    def _assert_rows(self, stacked, per_sample_fn, batch):
        for b in range(batch):
            assert stacked.data[b].tobytes() == per_sample_fn(b).data.tobytes()

    def test_classifier(self):
        pts = _clouds(3, 96, seed=5)
        model = PointNetPPClassifier(4, np.random.default_rng(0))
        model.eval()
        settings = [SETTING, ApproxSetting(), ApproxSetting(3, 5)]
        out = model.forward_batch(pts, settings)
        self._assert_rows(out, lambda b: model(pts[b], settings[b]), 3)
        assert out.shape == (3, 1, 4)

    def test_segmenter(self):
        pts = _clouds(2, 96, seed=6)
        model = PointNetPPSegmenter(5, np.random.default_rng(1))
        model.eval()
        out = model.forward_batch(pts, SETTING)  # single setting broadcasts
        self._assert_rows(out, lambda b: model(pts[b], SETTING), 2)
        assert out.shape == (2, 96, 5)

    def test_densepoint(self):
        pts = _clouds(2, 96, seed=7)
        model = DensePointClassifier(4, np.random.default_rng(2))
        model.eval()
        out = model.forward_batch(pts, SETTING)
        self._assert_rows(out, lambda b: model(pts[b], SETTING), 2)

    def test_fpointnet(self):
        pts = _clouds(2, 96, seed=8)
        model = FrustumPointNet(np.random.default_rng(3))
        model.eval()
        pred = model.forward_batch(pts, SETTING)
        for b in range(2):
            single = model(pts[b], SETTING)
            sliced = pred.sample(b)
            assert (
                sliced.segmentation_logits.data.tobytes()
                == single.segmentation_logits.data.tobytes()
            )
            assert sliced.box_params.data.tobytes() == single.box_params.data.tobytes()

    def test_batch_gradients_flow(self):
        pts = _clouds(3, 96, seed=9)
        model = PointNetPPClassifier(4, np.random.default_rng(0))
        model.eval()  # keep dropout out of it; gradients still flow
        labels = np.array([[0], [1], [2]])
        loss = softmax_cross_entropy(
            model.forward_batch(pts, SETTING), labels, reduction="per_sample"
        ).mean()
        model.zero_grad()
        loss.backward()
        total = sum(
            float(np.abs(p.grad).sum())
            for p in model.parameters()
            if p.grad is not None
        )
        assert total > 0

    def test_settings_length_is_validated(self):
        pts = _clouds(3, 96, seed=10)
        model = PointNetPPClassifier(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.forward_batch(pts, [SETTING, SETTING])


class TestPerSampleReduction:
    def test_cross_entropy_rows_match_scalar_losses(self):
        rng = np.random.default_rng(11)
        from repro.nn.tensor import Tensor

        logits = rng.normal(size=(4, 7, 5))
        labels = rng.integers(0, 5, size=(4, 7))
        per = softmax_cross_entropy(Tensor(logits), labels, reduction="per_sample")
        assert per.shape == (4,)
        for b in range(4):
            scalar = softmax_cross_entropy(Tensor(logits[b]), labels[b])
            assert per.data[b] == scalar.data

    def test_huber_and_mse_rows_match_scalar_losses(self):
        rng = np.random.default_rng(12)
        from repro.nn.tensor import Tensor

        pred = rng.normal(scale=2.0, size=(3, 1, 8))
        target = rng.normal(size=(3, 1, 8))
        hub = huber_loss(Tensor(pred), target, reduction="per_sample")
        mse = mse_loss(Tensor(pred), target, reduction="per_sample")
        for b in range(3):
            assert hub.data[b] == huber_loss(Tensor(pred[b]), target[b]).data
            assert mse.data[b] == mse_loss(Tensor(pred[b]), target[b]).data

    def test_unknown_reduction_rejected(self):
        from repro.nn.tensor import Tensor

        with pytest.raises(ValueError):
            mse_loss(Tensor(np.ones((2, 2))), np.ones((2, 2)), reduction="sum")
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.float64(1.0)), 1.0, reduction="per_sample")


@pytest.fixture(scope="module")
def cls_data():
    return ShapeClassificationDataset(
        size=8, num_points=96, seed=0, occlusion=0.0, noise=0.01, rotate=False
    )


class TestMiniBatchTraining:
    def _trainer(self, dataset, seed=7):
        model = PointNetPPClassifier(dataset.num_classes, np.random.default_rng(3))
        return ClassificationTrainer(model, MIXED, lr=2e-3, seed=seed)

    def test_batch_size_one_bit_identical_to_default_loop(self, cls_data):
        base = self._trainer(cls_data)
        ref = base.train(cls_data, epochs=2).epoch_losses
        batched = self._trainer(cls_data)
        got = batched.train(cls_data, epochs=2, batch_size=1).epoch_losses
        assert got == ref
        for p_ref, p_got in zip(
            base.model.parameters(), batched.model.parameters()
        ):
            assert p_ref.data.tobytes() == p_got.data.tobytes()

    def test_minibatch_losses_match_per_sample_losses_first_step(self, cls_data):
        # Before any optimizer step the parameters agree, so the first
        # chunk's recorded per-sample losses must equal what each
        # (sample, setting) pair scores alone, as a one-input stack.
        from repro.runtime import EpochPlan

        batch = len(cls_data)  # one chunk == whole epoch: no steps between
        ref = self._trainer(cls_data, seed=5)
        plan = EpochPlan.draw(
            np.random.default_rng(5), ref.sampler, len(cls_data), 1
        )
        schedule = plan.schedules[0]
        expected = []
        for setting, pos in zip(schedule.settings, schedule.order):
            ref.model.train()
            loss = ref._loss_batch([cls_data[int(pos)]], [setting], [int(pos)])
            expected.append(loss.mean().item())
        got = self._trainer(cls_data, seed=5)
        report = got.train(cls_data, epochs=1, batch_size=batch)
        assert report.epoch_losses == [float(np.mean(expected))]

    def test_minibatch_training_learns(self, cls_data):
        trainer = self._trainer(cls_data)
        report = trainer.train(cls_data, epochs=4, batch_size=4)
        assert len(report.epoch_losses) == 4
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_invalid_batch_size_rejected(self, cls_data):
        with pytest.raises(ValueError):
            self._trainer(cls_data).train(cls_data, epochs=1, batch_size=0)

    def test_segmentation_minibatch_runs(self):
        data = PartSegmentationDataset(size=6, num_points=96, seed=4, noise=0.01)
        model = PointNetPPSegmenter(num_part_classes(), np.random.default_rng(0))
        trainer = SegmentationTrainer(
            model, num_classes=num_part_classes(), sampler=MIXED, lr=3e-3
        )
        report = trainer.train(data, epochs=1, batch_size=3)
        assert len(report.epoch_losses) == 1 and np.isfinite(report.final_loss)

    def test_detection_minibatch_runs(self):
        data = LidarDetectionDataset(size=4, num_points=1024, seed=6, num_cars=2)
        model = FrustumPointNet(np.random.default_rng(0))
        trainer = DetectionTrainer(model, frustum_points=96, sampler=MIXED)
        report = trainer.train(data, epochs=1, batch_size=2)
        assert len(report.epoch_losses) == 1 and np.isfinite(report.final_loss)


class TestBatchedEvaluate:
    def test_classification_evaluate_matches_per_sample_loop(self, cls_data):
        from repro.nn.tensor import no_grad
        from repro.training.metrics import overall_accuracy

        trainer = self._trained(cls_data)
        batched = trainer.evaluate(cls_data, SETTING)
        # The retired per-sample evaluation loop, verbatim.
        trainer.model.eval()
        preds, labels = [], []
        with no_grad():
            for i in range(len(cls_data)):
                cloud, label = cls_data[i]
                logits = trainer.model(cloud.points, SETTING, cache_key=("eval", i))
                preds.append(int(logits.data.argmax()))
                labels.append(label)
        assert batched == overall_accuracy(np.array(preds), np.array(labels))

    def _trained(self, dataset):
        model = PointNetPPClassifier(dataset.num_classes, np.random.default_rng(1))
        trainer = ClassificationTrainer(model, MIXED, lr=2e-3, seed=3)
        trainer.train(dataset, epochs=1, batch_size=4)
        return trainer

    def test_segmentation_evaluate_matches_per_sample_loop(self):
        from repro.geometry.partseg import PART_CATEGORIES, part_id
        from repro.nn.tensor import no_grad
        from repro.training.metrics import mean_iou

        data = PartSegmentationDataset(size=5, num_points=96, seed=9, noise=0.01)
        model = PointNetPPSegmenter(num_part_classes(), np.random.default_rng(2))
        trainer = SegmentationTrainer(model, num_classes=num_part_classes())
        batched = trainer.evaluate(data, SETTING)
        trainer.model.eval()
        all_preds, all_labels = [], []
        with no_grad():
            for i in range(len(data)):
                cloud = data[i]
                logits = trainer.model(cloud.points, SETTING, cache_key=("eval", i))
                category = cloud.attrs.get("category")
                if category in PART_CATEGORIES:
                    allowed = np.array(
                        [part_id(p) for p in PART_CATEGORIES[category]]
                    )
                    preds = allowed[logits.data[:, allowed].argmax(axis=-1)]
                else:
                    preds = logits.data.argmax(axis=-1)
                all_preds.append(preds)
                all_labels.append(cloud.labels)
        assert batched == mean_iou(
            np.concatenate(all_preds),
            np.concatenate(all_labels),
            num_part_classes(),
        )

    def test_detection_evaluate_matches_per_sample_loop(self):
        from repro.nn.tensor import no_grad
        from repro.training.metrics import detection_iou_geomean

        data = LidarDetectionDataset(size=3, num_points=1024, seed=8, num_cars=2)
        model = FrustumPointNet(np.random.default_rng(4))
        trainer = DetectionTrainer(model, frustum_points=96)
        batched = trainer.evaluate(data, SETTING)
        trainer.model.eval()
        predicted, truth = [], []
        with no_grad():
            for i in range(len(data)):
                scene = data[i]
                box = scene.boxes[0]
                crop, _ = trainer._frustum_sample(scene, box, seed=10_000 + i)
                pred = trainer.model(crop, SETTING, cache_key=("eval", i))
                predicted.append(pred.decode(crop))
                truth.append(box)
        assert batched == detection_iou_geomean(predicted, truth)
