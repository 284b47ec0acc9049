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

    def test_deterministic(self):
        pts = rng().normal(size=(40, 3))
        assert np.array_equal(
            farthest_point_sampling(pts, 10), farthest_point_sampling(pts, 10)
        )

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


class TestSetAbstraction:
    """Layers take stacked ``(B, N, 3)`` clouds; one cloud is ``B == 1``."""

    def make(self, in_features=0, num_centroids=8):
        return SetAbstraction(
            num_centroids, 0.5, 4, in_features, (16, 16),
            ApproximationPipeline(), rng(),
        )

    def test_output_shapes(self):
        sa = self.make()
        pts = rng().normal(size=(1, 32, 3))
        centroids, feats = sa(pts, None, [ApproxSetting()])
        assert centroids.shape == (1, 8, 3)
        assert feats.shape == (1, 8, 16)

    def test_group_all(self):
        sa = SetAbstraction(None, 1.0, 4, 0, (16,), ApproximationPipeline(), rng())
        pts = rng().normal(size=(1, 32, 3))
        centroids, feats = sa(pts, None, [ApproxSetting()])
        assert centroids.shape == (1, 1, 3)
        assert feats.shape == (1, 1, 16)

    def test_features_required_when_declared(self):
        sa = self.make(in_features=8)
        with pytest.raises(ValueError, match="expects features"):
            sa(rng().normal(size=(1, 32, 3)), None, [ApproxSetting()])

    def test_gradient_flows_from_pooled_output(self):
        sa = self.make()
        pts = rng().normal(size=(1, 32, 3))
        _, feats = sa(pts, None, [ApproxSetting()])
        feats.sum().backward()
        assert any(p.grad is not None for p in sa.parameters())

    def test_approximation_changes_output(self):
        sa = SetAbstraction(
            16, 1.5, 16, 0, (16, 16), ApproximationPipeline(), rng()
        )
        pts = rng().normal(size=(1, 128, 3))
        _, exact = sa(pts, None, [ApproxSetting(0, None)])
        _, approx = sa(pts, None, [ApproxSetting(5, 1)])
        assert not np.allclose(exact.data, approx.data)

    def test_cache_reuse_consistent(self):
        pipe = ApproximationPipeline()
        sa = SetAbstraction(8, 0.5, 4, 0, (16,), pipe, rng())
        pts = rng().normal(size=(1, 32, 3))
        _, a = sa(pts, None, [ApproxSetting(2, 3)], cache_keys=[("s", 1)])
        _, b = sa(pts, None, [ApproxSetting(2, 3)], cache_keys=[("s", 1)])
        assert np.allclose(a.data, b.data)


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
