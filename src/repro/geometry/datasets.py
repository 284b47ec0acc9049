"""Dataset classes binding the synthetic generators into train/test splits.

Three datasets mirror the paper's Table 1:

* :class:`ShapeClassificationDataset` — stands in for ModelNet40
  (classification; overall accuracy).
* :class:`PartSegmentationDataset` — stands in for ShapeNet
  (segmentation; mIoU).
* :class:`LidarDetectionDataset` — stands in for KITTI
  (detection; car-class IoU).

Each dataset is fully deterministic given its seed: instance ``i`` is
always synthesized from ``seed + i``, so train/test splits never leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .partseg import PART_CATEGORIES, sample_part_object
from .pointcloud import PointCloud
from .scenes import LidarScene, generate_scene
from .synthetic import sample_shape, shape_class_names

__all__ = [
    "ShapeClassificationDataset",
    "PartSegmentationDataset",
    "LidarDetectionDataset",
]


class _SeededDataset:
    """Common deterministic-indexing machinery for the synthetic datasets."""

    def __init__(self, size: int, seed: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self._size = size
        self._seed = seed

    def __len__(self) -> int:
        return self._size

    def _rng(self, index: int) -> np.random.Generator:
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        return np.random.default_rng(self._seed + index)


class ShapeClassificationDataset(_SeededDataset):
    """Shape-classification dataset (ModelNet40 stand-in).

    ``dataset[i]`` returns ``(PointCloud, class_id)``.
    """

    def __init__(
        self,
        size: int = 256,
        num_points: int = 256,
        seed: int = 0,
        noise: float = 0.02,
        occlusion: float = 0.1,
        rotate: bool = True,
    ):
        super().__init__(size, seed)
        self.num_points = num_points
        self.noise = noise
        self.occlusion = occlusion
        self.rotate = rotate
        self.class_names = shape_class_names()

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __getitem__(self, index: int) -> Tuple[PointCloud, int]:
        rng = self._rng(index)
        class_name = self.class_names[index % self.num_classes]
        cloud = sample_shape(
            class_name,
            rng,
            num_points=self.num_points,
            noise=self.noise,
            rotate=self.rotate,
            occlusion=self.occlusion,
        )
        return cloud, int(cloud.attrs["class_id"])


class PartSegmentationDataset(_SeededDataset):
    """Part-segmentation dataset (ShapeNet stand-in).

    ``dataset[i]`` returns a :class:`PointCloud` whose ``labels`` are
    global part ids.
    """

    def __init__(
        self,
        size: int = 256,
        num_points: int = 256,
        seed: int = 1000,
        noise: float = 0.02,
    ):
        super().__init__(size, seed)
        self.num_points = num_points
        self.noise = noise
        self.categories = list(PART_CATEGORIES.keys())

    def __getitem__(self, index: int) -> PointCloud:
        rng = self._rng(index)
        category = self.categories[index % len(self.categories)]
        return sample_part_object(
            category, rng, num_points=self.num_points, noise=self.noise
        )


class LidarDetectionDataset(_SeededDataset):
    """LiDAR detection dataset (KITTI stand-in).

    ``dataset[i]`` returns a :class:`~repro.geometry.scenes.LidarScene`.
    """

    def __init__(
        self,
        size: int = 64,
        num_points: int = 4096,
        seed: int = 2000,
        num_cars: int = 4,
        extent: float = 40.0,
    ):
        super().__init__(size, seed)
        self.num_points = num_points
        self.num_cars = num_cars
        self.extent = extent

    def __getitem__(self, index: int) -> LidarScene:
        rng = self._rng(index)
        return generate_scene(
            rng,
            num_points=self.num_points,
            num_cars=self.num_cars,
            extent=self.extent,
        )
