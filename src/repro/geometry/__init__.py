"""Point-cloud geometry substrate: containers, synthetic shapes, scenes and datasets."""

from .pointcloud import PointCloud
from .synthetic import SHAPE_GENERATORS, sample_shape, shape_class_names, random_rotation
from .partseg import PART_CATEGORIES, num_part_classes, sample_part_object
from .scenes import (
    Box3D,
    FrameDrift,
    FrameMutation,
    LidarScene,
    box_iou_bev,
    generate_scene,
)
from .datasets import (
    LidarDetectionDataset,
    PartSegmentationDataset,
    ShapeClassificationDataset,
)

__all__ = [
    "PointCloud",
    "SHAPE_GENERATORS",
    "sample_shape",
    "shape_class_names",
    "random_rotation",
    "PART_CATEGORIES",
    "num_part_classes",
    "sample_part_object",
    "Box3D",
    "FrameDrift",
    "FrameMutation",
    "LidarScene",
    "box_iou_bev",
    "generate_scene",
    "LidarDetectionDataset",
    "PartSegmentationDataset",
    "ShapeClassificationDataset",
]
