"""Unit tests for the dataset classes."""

import numpy as np
import pytest

from repro.geometry import (
    LidarDetectionDataset,
    PartSegmentationDataset,
    ShapeClassificationDataset,
)


class TestShapeClassificationDataset:
    def test_len_and_indexing(self):
        ds = ShapeClassificationDataset(size=16, num_points=64, seed=0)
        assert len(ds) == 16
        cloud, label = ds[0]
        assert len(cloud) == 64
        assert 0 <= label < ds.num_classes

    def test_deterministic(self):
        ds = ShapeClassificationDataset(size=8, num_points=32, seed=7)
        a, la = ds[3]
        b, lb = ds[3]
        assert np.array_equal(a.points, b.points)
        assert la == lb

    def test_out_of_range(self):
        ds = ShapeClassificationDataset(size=4)
        with pytest.raises(IndexError):
            ds[4]
        with pytest.raises(IndexError):
            ds[-1]

    def test_classes_cycle(self):
        ds = ShapeClassificationDataset(size=16, num_points=32)
        labels = [ds[i][1] for i in range(16)]
        # Balanced: every class appears size/num_classes times.
        assert labels[: ds.num_classes] == list(range(ds.num_classes))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ShapeClassificationDataset(size=0)

    def test_disjoint_seeds_give_disjoint_data(self):
        train = ShapeClassificationDataset(size=4, num_points=32, seed=0)
        test = ShapeClassificationDataset(size=4, num_points=32, seed=10_000)
        assert not np.array_equal(train[0][0].points, test[0][0].points)


class TestPartSegmentationDataset:
    def test_indexing(self):
        ds = PartSegmentationDataset(size=6, num_points=60)
        cloud = ds[0]
        assert len(cloud) == 60
        assert cloud.labels is not None

    def test_categories_cycle(self):
        ds = PartSegmentationDataset(size=6)
        cats = [ds[i].attrs["category"] for i in range(6)]
        assert cats[:3] == ds.categories


class TestLidarDetectionDataset:
    def test_indexing(self):
        ds = LidarDetectionDataset(size=2, num_points=1024, num_cars=2)
        scene = ds[1]
        assert len(scene.cloud) == 1024
        assert len(scene.boxes) == 2

