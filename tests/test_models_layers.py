"""Tests for point-cloud network building blocks."""

import numpy as np
import pytest

from repro.core import ApproxSetting, ApproximationPipeline
from repro.models import (
    FeaturePropagation,
    GlobalMaxPool,
    SetAbstraction,
    farthest_point_sampling,
)
from repro.models import layers
from repro.models.layers import plan_chain
from repro.nn import Tensor


def rng():
    return np.random.default_rng(0)


class TestFPS:
    def test_first_is_start(self):
        pts = rng().normal(size=(30, 3))
        idx = farthest_point_sampling(pts, 5, start=3)
        assert idx[0] == 3

    def test_no_duplicates(self):
        pts = rng().normal(size=(50, 3))
        idx = farthest_point_sampling(pts, 20)
        assert len(set(idx.tolist())) == 20

    def test_deterministic(self, monkeypatch):
        # Both calls run the greedy loop: nothing is remembered between them.
        calls = []
        real = layers._fps_greedy_batched

        def counting(pts, num_samples, start):
            calls.append(len(pts))
            return real(pts, num_samples, start)

        monkeypatch.setattr(layers, "_fps_greedy_batched", counting)
        pts = rng().normal(size=(40, 3))
        assert np.array_equal(
            farthest_point_sampling(pts, 10), farthest_point_sampling(pts, 10)
        )
        assert calls == [1, 1]

    def test_spreads_points(self):
        # FPS of a two-cluster cloud must pick from both clusters early.
        a = rng().normal(loc=-5, scale=0.1, size=(20, 3))
        b = rng().normal(loc=5, scale=0.1, size=(20, 3))
        pts = np.concatenate([a, b])
        idx = farthest_point_sampling(pts, 2)
        assert (idx[0] < 20) != (idx[1] < 20)

    def test_validation(self):
        pts = rng().normal(size=(10, 3))
        with pytest.raises(ValueError):
            farthest_point_sampling(pts, 0)
        with pytest.raises(ValueError):
            farthest_point_sampling(pts, 11)
        # The first centroid id must index the cloud: -1 used to wrap to
        # the last point and be returned as an id, and N raised IndexError.
        stack = rng().normal(size=(2, 10, 3))
        for start in (-1, 10, 2.0, 1.5, True, "0", None):
            with pytest.raises(ValueError, match="start"):
                farthest_point_sampling(pts, 4, start=start)
            with pytest.raises(ValueError, match="start"):
                layers.farthest_point_sampling_batched(stack, 4, start=start)
        assert farthest_point_sampling(pts, 4, start=np.int64(9))[0] == 9


class TestSetAbstraction:
    """A layer runs over one planned stage of stacked ``(B, N, 3)`` clouds;
    one cloud is ``B == 1``."""

    def make(self, in_features=0, num_centroids=8):
        return SetAbstraction(
            num_centroids, 0.5, 4, in_features, (16, 16),
            ApproximationPipeline(), rng(),
        )

    @staticmethod
    def stage(sa, pts):
        return plan_chain(pts, [sa.num_centroids]).stages[0]

    def test_output_shapes(self):
        sa = self.make()
        stage = self.stage(sa, rng().normal(size=(1, 32, 3)))
        feats = sa(stage, None, [ApproxSetting()])
        assert stage.centroids.shape == (1, 8, 3)
        assert feats.shape == (1, 8, 16)

    def test_group_all(self):
        sa = SetAbstraction(None, 1.0, 4, 0, (16,), ApproximationPipeline(), rng())
        stage = self.stage(sa, rng().normal(size=(1, 32, 3)))
        feats = sa(stage, None, [ApproxSetting()])
        assert stage.centroids.shape == (1, 1, 3)
        assert feats.shape == (1, 1, 16)

    def test_features_required_when_declared(self):
        sa = self.make(in_features=8)
        with pytest.raises(ValueError, match="expects features"):
            sa(self.stage(sa, rng().normal(size=(1, 32, 3))), None, [ApproxSetting()])

    def test_gradient_flows_from_pooled_output(self):
        sa = self.make()
        feats = sa(self.stage(sa, rng().normal(size=(1, 32, 3))), None, [ApproxSetting()])
        feats.sum().backward()
        assert any(p.grad is not None for p in sa.parameters())

    def test_approximation_changes_output(self):
        sa = SetAbstraction(
            16, 1.5, 16, 0, (16, 16), ApproximationPipeline(), rng()
        )
        stage = self.stage(sa, rng().normal(size=(1, 128, 3)))
        exact = sa(stage, None, [ApproxSetting(0, None)])
        approx = sa(stage, None, [ApproxSetting(5, 1)])
        assert not np.allclose(exact.data, approx.data)

    def test_cache_reuse_consistent(self):
        pipe = ApproximationPipeline()
        sa = SetAbstraction(8, 0.5, 4, 0, (16,), pipe, rng())
        stage = self.stage(sa, rng().normal(size=(1, 32, 3)))
        a = sa(stage, None, [ApproxSetting(2, 3)], cache_keys=[("s", 1)])
        b = sa(stage, None, [ApproxSetting(2, 3)], cache_keys=[("s", 1)])
        assert np.allclose(a.data, b.data)
        assert pipe.session.results.stats.hits == 1

    def test_plan_is_private_read_only_and_digested_once(self):
        pts = rng().normal(size=(2, 32, 3))
        plan = plan_chain(pts, [8, 4, None])
        first, second, group_all = plan.stages
        pts += 5.0  # the caller's array is not the plan's
        assert not np.shares_memory(first.points, pts)
        for stage in plan.stages:
            assert not stage.points.flags.writeable
            assert not stage.centroids.flags.writeable
        assert second.points is first.centroids
        assert group_all.ids is None and group_all.digests is None
        from repro.runtime.session import geometry_digest

        for b in range(2):
            assert first.digests[b] == (
                geometry_digest(first.points[b]),
                geometry_digest(first.points[b], first.centroids[b]),
            )
        rows = plan.take([1, 1, 0])
        assert rows.stages[0].digests == tuple(first.digests[b] for b in (1, 1, 0))
        np.testing.assert_array_equal(rows.points[2], first.points[0])
        assert not rows.stages[1].ids.flags.writeable

    def test_stage_must_match_layer(self):
        sa = self.make(num_centroids=8)
        stage = plan_chain(rng().normal(size=(1, 32, 3)), [4]).stages[0]
        with pytest.raises(ValueError, match="centroids"):
            sa(stage, None, [ApproxSetting()])


class TestFeaturePropagation:
    def test_shapes_and_gradient(self):
        fp = FeaturePropagation(16, 8, (32,), rng())
        dense = rng().normal(size=(1, 20, 3))
        coarse = rng().normal(size=(1, 5, 3))
        cf = Tensor(rng().normal(size=(1, 5, 16)), requires_grad=True)
        skip = Tensor(rng().normal(size=(1, 20, 8)))
        out = fp(dense, coarse, cf, skip)
        assert out.shape == (1, 20, 32)
        out.sum().backward()
        assert cf.grad is not None

    def test_exact_at_coarse_points(self):
        # Interpolating back onto the coarse points themselves must return
        # (nearly) the coarse features: nearest neighbor at distance ~0
        # dominates the inverse-distance weights.
        fp = FeaturePropagation(4, 0, (4,), rng(), k=3)
        coarse = rng().normal(size=(1, 6, 3))
        cf = Tensor(rng().normal(size=(1, 6, 4)))
        # Direct check of the interpolation weights via forward behaviour:
        out_same = fp(coarse, coarse, cf, None)
        out_far = fp(coarse + 10.0, coarse, cf, None)
        assert not np.allclose(out_same.data, out_far.data)

    def test_requires_skip_when_declared(self):
        fp = FeaturePropagation(4, 4, (8,), rng())
        with pytest.raises(ValueError, match="expects skip features"):
            fp(rng().normal(size=(1, 5, 3)), rng().normal(size=(1, 3, 3)),
               Tensor(np.ones((1, 3, 4))), None)

    def test_validation(self):
        with pytest.raises(ValueError):
            FeaturePropagation(4, 0, (8,), rng(), k=0)


class TestGlobalMaxPool:
    def test_shape_and_grad(self):
        pool = GlobalMaxPool()
        x = Tensor(rng().normal(size=(10, 6)), requires_grad=True)
        out = pool(x)
        assert out.shape == (1, 6)
        out.sum().backward()
        assert (x.grad.sum(axis=0) == 1.0).all()
