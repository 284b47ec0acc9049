"""Epoch-batched training materialization: bit-identity and cache economy.

The contract of :mod:`repro.runtime.epoch` is that planning a run's
geometry once and pulling all of an epoch's neighbor-search work in front
of the gradient loop changes *nothing* observable about training except
speed:

* :class:`EpochPlan.draw` consumes the trainer RNG in exactly the order
  the retired per-step loop did (permutation, then one sampler draw per
  input, per epoch), so every downstream draw is unchanged;
* epoch losses and eval metrics are bit-identical seed for seed (pinned
  here against an inline copy of the per-step loop, which plans every
  step through ``forward_batch``);
* after materialization the gradient loop's pipeline lookups are pure
  cache hits, and the loop samples and hashes nothing.
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
from repro.models import (
    DensePointClassifier,
    FrustumPointNet,
    PointNetPPClassifier,
    PointNetPPSegmenter,
)
from repro.models.layers import farthest_point_sampling
from repro.runtime import EpochPlan, QueryRequest
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
            points, target = trainer._example(idx, sample)
            output = trainer.model.forward_batch(points[None], [setting], [idx])
            loss = trainer._loss(output, [target]).mean()
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

    def test_epoch_requests_bind_scheduled_settings_in_visit_order(self, cls_data):
        # The trainer materializes an epoch as the model's requests over the
        # plan rows in visit order: row i carries the i-th drawn setting,
        # the key of the sample it visits and that sample's plan digests.
        plan = EpochPlan.draw(np.random.default_rng(3), MIXED, len(cls_data), 1)
        schedule = plan.schedules[0]
        model = PointNetPPClassifier(cls_data.num_classes, np.random.default_rng(0))
        geometry = model.plan(np.stack([cls_data[i][0].points for i in range(len(cls_data))]))
        order = [int(p) for p in schedule.order]
        requests = model.requests(geometry.take(order), schedule.settings, order)
        assert len(requests) == 2 * len(order)  # sa1 and sa2; sa3 is group-all
        for layer, stage in zip(("sa1", "sa2"), geometry.stages):
            rows = [r for r in requests if r.cache_key[1] == layer]
            assert [r.setting for r in rows] == schedule.settings
            assert [r.cache_key for r in rows] == [(p, layer) for p in order]
            assert [(r.cloud_digest, r.digest) for r in rows] == [
                stage.digests[p] for p in order
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
        points, _ = trainer._eval_batch(cls_data)
        keys = [("eval", i) for i in range(len(points))]
        trainer.model.pipeline.resolve(
            trainer.model.requests(trainer.model.plan(points), setting, keys)
        )
        misses_before = session.results.stats.misses
        acc = trainer.evaluate(cls_data, setting)
        assert session.results.stats.misses == misses_before
        assert acc == cold.evaluate(cls_data, setting)


class TestEpochStructure:
    def test_one_fps_lockstep_per_layer_and_one_tree_build_pass(self, monkeypatch):
        # Work counts, not timings.  Before its gradient loop, one epoch
        # over 32 clouds samples each SA layer's centroids in one lockstep
        # call over the whole stack, digests every (cloud, layer) at most
        # twice (its tree key and its result key) and builds all 64 trees
        # (32 clouds x 2 layers) in one forest pass.  The loop itself then
        # samples, hashes and builds nothing.
        from repro.models import layers
        from repro.runtime import epoch, session, treebuild

        events = []

        def counting(kind, real, size):
            def wrapper(*args, **kwargs):
                events.append((kind, size(*args)))
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            layers, "_fps_greedy_batched",
            counting("fps", layers._fps_greedy_batched, lambda pts, *_: len(pts)),
        )
        digest = counting("digest", session.geometry_digest, lambda *arrays: len(arrays))
        for module in (session, epoch, layers):
            monkeypatch.setattr(module, "geometry_digest", digest)
        # Every build, one-cloud ones included, goes through the forest.
        monkeypatch.setattr(
            treebuild, "vectorized_build_forest",
            counting("build", treebuild.vectorized_build_forest, lambda clouds, *_: len(clouds)),
        )
        data = ShapeClassificationDataset(
            size=32, num_points=112, seed=21, occlusion=0.0, noise=0.01, rotate=False
        )
        model = PointNetPPClassifier(data.num_classes, np.random.default_rng(0))
        trainer = ClassificationTrainer(model, MIXED, lr=2e-3, seed=1)
        monkeypatch.setattr(
            trainer.optimizer, "zero_grad",
            counting("step", trainer.optimizer.zero_grad, lambda: 1),
        )
        trainer.train(data, epochs=1)
        first_step = events.index(("step", 1))
        before, loop = events[:first_step], events[first_step:]

        def sizes(kind):
            return [size for k, size in before if k == kind]

        assert (sizes("fps"), sizes("build")) == ([32, 32], [64])
        assert len(sizes("digest")) <= 128
        assert loop == [("step", 1)] * 32


class TestWarmCache:
    def test_gradient_loop_runs_on_pure_cache_hits(self, cls_data):
        # Pins every model's requests against the queries its forward
        # resolves: a request list that drifts files entries the forward
        # never looks up, and the forward silently recomputes its own.
        setting = FixedSetting(ApproxSetting(2, 5))
        seg_data = PartSegmentationDataset(size=6, num_points=96, seed=4, noise=0.01)
        det_data = LidarDetectionDataset(size=4, num_points=1024, seed=6, num_cars=2)
        cases = [
            (
                "pointnetpp-c", 2, cls_data,
                ClassificationTrainer(
                    PointNetPPClassifier(cls_data.num_classes, np.random.default_rng(0)),
                    setting, lr=2e-3, seed=1,
                ),
            ),
            (
                "pointnetpp-s", 2, seg_data,
                SegmentationTrainer(
                    PointNetPPSegmenter(num_part_classes(), np.random.default_rng(5)),
                    num_classes=num_part_classes(), sampler=setting, seed=9,
                ),
            ),
            (
                "densepoint", 4, cls_data,
                ClassificationTrainer(
                    DensePointClassifier(
                        cls_data.num_classes, np.random.default_rng(2),
                        stage_centroids=(48, 32, 16, 8),
                    ),
                    setting, seed=3,
                ),
            ),
            (
                "fpointnet", 2, det_data,
                DetectionTrainer(
                    FrustumPointNet(np.random.default_rng(2)),
                    frustum_points=96, sampler=setting, seed=13,
                ),
            ),
        ]
        for name, layers, data, trainer in cases:
            trainer.train(data, epochs=1)
            session = trainer.model.pipeline.session
            stats = session.results.stats
            # Materialization misses once per (sample, layer) and files
            # that entry; every forward lookup afterwards hits.
            assert len(session.results) == layers * len(data), name
            assert stats.misses == len(session.results), name
            assert stats.hits == layers * len(data), name

class TestMaterializeRequests:
    def _requests(self, clouds, settings, radius=0.3, k=8):
        out = []
        for ci, cloud in enumerate(clouds):
            queries = cloud[farthest_point_sampling(cloud, 32)]
            for setting in settings:
                out.append(
                    QueryRequest(
                        points=cloud, queries=queries, radius=radius,
                        max_neighbors=k, setting=setting, cache_key=(ci, "sa1"),
                    )
                )
        return out

    def test_dedupe_and_already_cached_accounting(self, rng, monkeypatch):
        clouds = [rng.normal(size=(128, 3)) for _ in range(3)]
        settings = [ApproxSetting(0, None), ApproxSetting(2, 4)]
        pipeline = ApproximationPipeline()
        computed = []
        real = pipeline.compute_many

        def counting(requests):
            computed.append(len(requests))
            return real(requests)

        monkeypatch.setattr(pipeline, "compute_many", counting)
        stats = pipeline.session.results.stats
        requests = self._requests(clouds, settings)
        first = pipeline.resolve(requests + requests)  # duplicates
        assert (stats.misses, stats.hits, sum(computed)) == (6, 0, 6)
        assert all(a is b for a, b in zip(first[:6], first[6:]))
        again = pipeline.resolve(requests)
        assert (stats.misses, stats.hits, sum(computed)) == (6, 6, 6)
        assert all(a is b for a, b in zip(first, again))

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
        pipeline.resolve(requests)
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
        pipeline.resolve(old)  # 4 entries, cache exactly full
        new = self._requests(clouds[4:], [ApproxSetting(0, None)], k=4)
        pipeline.resolve(old + new)  # working set = 8
        assert (session.results.stats.hits, session.results.stats.misses) == (4, 8)
        misses_before = session.results.stats.misses
        for req in old + new:
            pipeline.query_with_counts(
                req.points, req.queries, req.radius, req.max_neighbors,
                req.setting, cache_key=req.cache_key,
            )
        assert session.results.stats.misses == misses_before

    def test_uncacheable_requests_skipped(self, rng):
        # An uncached request is computed every time and never filed.
        cloud = rng.normal(size=(64, 3))
        req = QueryRequest(
            points=cloud, queries=cloud[:8], radius=0.3, max_neighbors=4,
            setting=ApproxSetting(), cache_key=None,
        )
        pipeline = ApproximationPipeline()
        (a,), (b,) = pipeline.resolve([req]), pipeline.resolve([req])
        assert req.digest is None
        assert a is not b and np.array_equal(a[0], b[0])
        assert len(pipeline.session.results) == 0
        assert pipeline.session.results.stats.misses == 0

    def test_evaluate_settings_matches_individual_evaluates(self, cls_data):
        model = PointNetPPClassifier(cls_data.num_classes, np.random.default_rng(1))
        trainer = ClassificationTrainer(model, FixedSetting(ApproxSetting()), seed=2)
        trainer.train(cls_data, epochs=1)
        settings = [ApproxSetting(0, None), ApproxSetting(2, 5), ApproxSetting(3, None)]
        swept = trainer.evaluate_settings(cls_data, settings)
        assert list(swept) == settings  # input order preserved
        for setting in settings:
            assert swept[setting] == trainer.evaluate(cls_data, setting)
