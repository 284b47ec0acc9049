"""Epoch-batched training materialization: bit-identity and cache economy.

The contract of :mod:`repro.runtime.epoch` is that pulling all of an
epoch's neighbor-search work in front of the gradient loop changes
*nothing* observable about training except speed:

* :class:`EpochPlan.draw` consumes the trainer RNG in exactly the order
  the retired per-step loop did (permutation, then one sampler draw per
  input, per epoch), so every downstream draw is unchanged;
* epoch losses and eval metrics are bit-identical seed for seed (pinned
  here against an inline copy of the per-step loop);
* after materialization the gradient loop's pipeline lookups are pure
  cache hits.
"""

import numpy as np
import pytest

from repro.core import ApproxSetting
from repro.core.pipeline import ApproximationPipeline
from repro.geometry import (
    LidarDetectionDataset,
    PartSegmentationDataset,
    ShapeClassificationDataset,
    num_part_classes,
)
from repro.models import FrustumPointNet, PointNetPPClassifier, PointNetPPSegmenter
from repro.models.layers import farthest_point_sampling
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.runtime import EpochPlan, MaterializeRequest
from repro.training import (
    ClassificationTrainer,
    DetectionTrainer,
    FixedSetting,
    MixedSetting,
    SegmentationTrainer,
)

MIXED = MixedSetting(top_heights=[0, 2, 3], elision_heights=[5, None])


def per_step_reference_train(trainer, dataset, epochs):
    """The retired per-step loop (draws interleaved with steps, one input
    per step): the bit-identity baseline for the epoch-batched schedule."""
    items = [(i, dataset[i]) for i in range(len(dataset))]
    trainer.model.train()
    epoch_losses = []
    for _ in range(epochs):
        order = trainer.rng.permutation(len(items))
        losses = []
        for pos in order:
            idx, sample = items[pos]
            setting = trainer.sampler.sample(trainer.rng)
            trainer.optimizer.zero_grad()
            loss = trainer._loss_batch([sample], [setting], [idx]).mean()
            loss.backward()
            trainer.optimizer.step()
            losses.append(loss.item())
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses


@pytest.fixture(scope="module")
def cls_data():
    return ShapeClassificationDataset(
        size=10, num_points=96, seed=0, occlusion=0.0, noise=0.01, rotate=False
    )


class TestScheduleDraw:
    def test_rng_stream_compatible_with_per_step_draws(self):
        plan = EpochPlan.draw(np.random.default_rng(11), MIXED, 7, 3)
        rng = np.random.default_rng(11)
        for schedule in plan.schedules:
            np.testing.assert_array_equal(schedule.order, rng.permutation(7))
            assert schedule.settings == [MIXED.sample(rng) for _ in range(7)]

    def test_epoch_requests_bind_scheduled_settings_in_visit_order(self):
        plan = EpochPlan.draw(np.random.default_rng(3), MIXED, 4, 1)
        calls = []

        def plan_fn(pos):
            calls.append(pos)
            from repro.runtime import QueryRequest

            return [
                QueryRequest(
                    points=np.zeros((2, 3)), queries=np.zeros((1, 3)),
                    radius=0.1, max_neighbors=2, cache_key=(pos, "sa1"),
                )
            ]

        requests = plan.epoch_requests(0, plan_fn)
        schedule = plan.schedules[0]
        assert calls == [int(p) for p in schedule.order]  # one plan per sample
        assert [r.setting for r in requests] == schedule.settings
        assert [r.cache_key for r in requests] == [
            (int(p), "sa1") for p in schedule.order
        ]


class TestLossIdentity:
    def _make_cls(self, dataset, seed=7):
        model = PointNetPPClassifier(dataset.num_classes, np.random.default_rng(3))
        return ClassificationTrainer(model, MIXED, lr=2e-3, seed=seed)

    def test_classification_losses_bit_identical(self, cls_data):
        ref = per_step_reference_train(self._make_cls(cls_data), cls_data, 2)
        got = self._make_cls(cls_data).train(cls_data, epochs=2).epoch_losses
        assert got == ref  # exact float equality, not approx

    def test_segmentation_losses_bit_identical(self):
        data = PartSegmentationDataset(size=6, num_points=96, seed=4, noise=0.01)

        def make():
            model = PointNetPPSegmenter(num_part_classes(), np.random.default_rng(5))
            return SegmentationTrainer(
                model, num_classes=num_part_classes(),
                sampler=MIXED, lr=2e-3, seed=9,
            )

        ref = per_step_reference_train(make(), data, 2)
        got = make().train(data, epochs=2).epoch_losses
        assert got == ref

    def test_detection_losses_bit_identical(self):
        data = LidarDetectionDataset(size=4, num_points=1024, seed=6, num_cars=2)

        def make():
            model = FrustumPointNet(np.random.default_rng(2))
            return DetectionTrainer(model, frustum_points=96, sampler=MIXED, seed=13)

        ref = per_step_reference_train(make(), data, 2)
        got = make().train(data, epochs=2).epoch_losses
        assert got == ref

    def test_eval_metrics_bit_identical_and_warm(self, cls_data):
        trainer = self._make_cls(cls_data)
        trainer.train(cls_data, epochs=1)
        setting = ApproxSetting(2, 5)
        cold = self._make_cls(cls_data)
        cold.train(cls_data, epochs=1)
        # Route one through explicit pre-materialization to show the eval
        # loop itself adds zero computes on top of it.
        session = trainer.model.pipeline.session
        trainer.model.pipeline.materialize(
            [
                req.with_setting(setting)
                for i in range(len(cls_data))
                for req in trainer.model.query_plan(
                    cls_data[i][0].points, cache_key=("eval", i)
                )
            ]
        )
        misses_before = session.results.stats.misses
        acc = trainer.evaluate(cls_data, setting)
        assert session.results.stats.misses == misses_before
        assert acc == cold.evaluate(cls_data, setting)


class TestWarmCache:
    def test_gradient_loop_runs_on_pure_cache_hits(self, cls_data):
        model = PointNetPPClassifier(cls_data.num_classes, np.random.default_rng(0))
        trainer = ClassificationTrainer(
            model, FixedSetting(ApproxSetting(2, 5)), lr=2e-3, seed=1
        )
        trainer.train(cls_data, epochs=1)
        stats = model.pipeline.session.results.stats
        # Materialization misses once per (sample, layer); every forward
        # lookup afterwards hits.  2 SA layers per sample.
        assert stats.misses == 2 * len(cls_data)
        assert stats.hits == 2 * len(cls_data)

    def test_model_without_query_plan_still_trains(self, cls_data):
        from repro.nn.module import Parameter

        class Blind(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros((3, cls_data.num_classes)))

            def forward_batch(self, points, settings, cache_keys=None):
                pooled = np.asarray(points, dtype=np.float64).mean(
                    axis=1, keepdims=True
                )
                return Tensor(pooled) @ self.w

        trainer = ClassificationTrainer(Blind(), FixedSetting(ApproxSetting()), seed=0)
        report = trainer.train(cls_data, epochs=1)
        assert len(report.epoch_losses) == 1


class TestMaterializeRequests:
    def _requests(self, clouds, settings, radius=0.3, k=8):
        out = []
        for ci, cloud in enumerate(clouds):
            queries = cloud[farthest_point_sampling(cloud, 32)]
            for setting in settings:
                out.append(
                    MaterializeRequest(
                        points=cloud, queries=queries, radius=radius,
                        max_neighbors=k, setting=setting, cache_key=(ci, "sa1"),
                    )
                )
        return out

    def test_dedupe_and_already_cached_accounting(self, rng):
        clouds = [rng.normal(size=(128, 3)) for _ in range(3)]
        settings = [ApproxSetting(0, None), ApproxSetting(2, 4)]
        pipeline = ApproximationPipeline()
        requests = self._requests(clouds, settings)
        report = pipeline.materialize(requests + requests)  # duplicates
        assert report.scheduled == 12
        assert report.deduped == 6
        assert report.computed == 6
        again = pipeline.materialize(requests)
        assert again.already_cached == 6 and again.computed == 0

    def test_working_set_larger_than_cache_grows_capacity(self, rng):
        # A grid bigger than the session LRU must not evict its own
        # entries before the consuming loop reads them: the bound grows to
        # the deduped working set and every post-materialization lookup
        # is a hit.
        from repro.runtime import SearchSession

        session = SearchSession(max_results=4)
        pipeline = ApproximationPipeline(session=session)
        clouds = [rng.normal(size=(64, 3)) for _ in range(4)]
        settings = [ApproxSetting(0, None), ApproxSetting(2, 4)]
        requests = self._requests(clouds, settings, k=4)
        assert len(requests) == 8  # > max_results
        report = pipeline.materialize(requests)
        assert report.cache_grown_to == 8
        assert session.results.max_entries == 8
        misses_before = session.results.stats.misses
        for req in requests:
            pipeline.query_with_counts(
                req.points, req.queries, req.radius, req.max_neighbors,
                req.setting, cache_key=req.cache_key,
            )
        assert session.results.stats.misses == misses_before

    def test_cached_working_set_half_survives_new_inserts(self, rng):
        # already-cached working-set keys get their recency refreshed, so
        # inserting the computed half evicts unrelated entries, not them.
        from repro.runtime import SearchSession

        session = SearchSession(max_results=4)
        pipeline = ApproximationPipeline(session=session)
        clouds = [rng.normal(size=(64, 3)) for _ in range(8)]
        old = self._requests(clouds[:4], [ApproxSetting(0, None)], k=4)
        pipeline.materialize(old)  # 4 entries, cache exactly full
        new = self._requests(clouds[4:], [ApproxSetting(0, None)], k=4)
        report = pipeline.materialize(old + new)  # working set = 8
        assert report.already_cached == 4 and report.computed == 4
        misses_before = session.results.stats.misses
        for req in old + new:
            pipeline.query_with_counts(
                req.points, req.queries, req.radius, req.max_neighbors,
                req.setting, cache_key=req.cache_key,
            )
        assert session.results.stats.misses == misses_before

    def test_uncacheable_requests_skipped(self, rng):
        cloud = rng.normal(size=(64, 3))
        req = MaterializeRequest(
            points=cloud, queries=cloud[:8], radius=0.3, max_neighbors=4,
            setting=ApproxSetting(), cache_key=None,
        )
        report = ApproximationPipeline().materialize([req])
        assert report.scheduled == 0 and report.computed == 0

    def test_evaluate_settings_matches_individual_evaluates(self, cls_data):
        model = PointNetPPClassifier(cls_data.num_classes, np.random.default_rng(1))
        trainer = ClassificationTrainer(model, FixedSetting(ApproxSetting()), seed=2)
        trainer.train(cls_data, epochs=1)
        settings = [ApproxSetting(0, None), ApproxSetting(2, 5), ApproxSetting(3, None)]
        swept = trainer.evaluate_settings(cls_data, settings)
        assert list(swept) == settings  # input order preserved
        for setting in settings:
            assert swept[setting] == trainer.evaluate(cls_data, setting)
