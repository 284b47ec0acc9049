"""Shared fixtures for the paper-reproduction benchmarks.

Training-backed figures (13, 18–21, 23) reuse trained models through the
memoized factories here, so the benchmark suite trains each configuration
exactly once regardless of how many benches read it.

Scale notes
-----------
The models train on 160-point synthetic clouds whose K-d trees have height
8 (vs the paper's height-14–21 trees), so knob values are expressed in
this tree's terms.  The headline setting is ``h_t = 4, h_e = 4``: the top
tree takes half the levels (as the paper's ``h_t = 4`` does proportionally)
and the elision height sits where elision stress matches the paper's
``h_e = 12``-on-height-14 regime — our elision is gentler per conflict
(same-address conflicts broadcast instead of stalling), so the equivalent
setting is deeper into the tree.
"""

from __future__ import annotations

import functools
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core import ApproxSetting, ApproximationPipeline, TreeBufferBanking
from repro.runtime import SearchSession
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
from repro.training import (
    ClassificationTrainer,
    DetectionTrainer,
    FixedSetting,
    MixedSetting,
    SegmentationTrainer,
)

# Headline approximate setting at model-tree scale (see module docstring).
HEADLINE_HT = 4
HEADLINE_HE = 4

CLS_POINTS = 160
CLS_TRAIN_SIZE = 192
CLS_TEST_SIZE = 64
CLS_EPOCHS = 12  # PointNet++ (c)
DENSEPOINT_EPOCHS = 24  # denser stages learn slower
CLS_LR = 2e-3

SEG_POINTS = 128
SEG_TRAIN_SIZE = 48
SEG_TEST_SIZE = 15
SEG_EPOCHS = 30

DET_TRAIN_SIZE = 32
DET_TEST_SIZE = 10
DET_EPOCHS = 30

# Slow-lane training keeps one input per optimizer step (batch_size=1, the
# trainers' default): those figure trajectories are then bit-identical to
# every pre-tape release, so their assertions pin the same trained weights
# across the tape-engine swap.  (Chunked SGD means 8x fewer optimizer steps
# per epoch — enough to undertrain the small-epoch detection/classification
# configs and flip the Fig. 13/21/23 trends, so larger chunks are opt-in per
# figure, not global.)  Every figure evaluates with one stacked forward per
# dataset and reuses the FPS digest cache, and Fig. 18 opts its dedicated
# trainers into mini-batched training to run in the smoke lane.
FIG18_TRAIN_BATCH = 8


def cls_train_set() -> ShapeClassificationDataset:
    return ShapeClassificationDataset(
        size=CLS_TRAIN_SIZE, num_points=CLS_POINTS, seed=0,
        occlusion=0.0, noise=0.01, rotate=False,
    )


def cls_test_set() -> ShapeClassificationDataset:
    return ShapeClassificationDataset(
        size=CLS_TEST_SIZE, num_points=CLS_POINTS, seed=50_000,
        occlusion=0.0, noise=0.01, rotate=False,
    )


def seg_train_set() -> PartSegmentationDataset:
    return PartSegmentationDataset(size=SEG_TRAIN_SIZE, num_points=SEG_POINTS, seed=0)


def seg_test_set() -> PartSegmentationDataset:
    return PartSegmentationDataset(size=SEG_TEST_SIZE, num_points=SEG_POINTS, seed=70_000)


def det_train_set() -> LidarDetectionDataset:
    return LidarDetectionDataset(size=DET_TRAIN_SIZE, num_points=1024, seed=0, num_cars=2)


def det_test_set() -> LidarDetectionDataset:
    return LidarDetectionDataset(size=DET_TEST_SIZE, num_points=1024, seed=80_000, num_cars=2)


SamplerKey = Tuple  # ('fixed', ht, he) | ('mixed', hts, hes)


def _sampler(key: SamplerKey):
    kind = key[0]
    if kind == "fixed":
        return FixedSetting(ApproxSetting(key[1], key[2]))
    if kind == "mixed":
        hts, hes = key[1], key[2]
        return MixedSetting(top_heights=tuple(hts), elision_heights=tuple(hes))
    raise ValueError(f"unknown sampler key {key!r}")


# One search session pools K-d trees and memoized neighbor matrices across
# every trainer in the suite: neighbor matrices depend only on geometry and
# the (setting, banking) key — never on weights — so e.g. the exact-setting
# matrices of one model's baseline trainer are served from cache when
# another model's baseline queries the same clouds.
_SESSION = SearchSession(max_results=8192, max_trees=512)


def _pipeline(tree_banks: int = 4) -> ApproximationPipeline:
    return ApproximationPipeline(
        tree_banking=TreeBufferBanking(tree_banks), session=_SESSION
    )


@functools.lru_cache(maxsize=None)
def classification_trainer(
    model_name: str,
    sampler_key: SamplerKey,
    tree_banks: int = 4,
    seed: int = 0,
    batch_size: int = 1,
) -> ClassificationTrainer:
    """Train (once) a classifier under a sampler; returns its trainer.

    ``batch_size`` is part of the memo key: ``1`` (the default every
    slow-lane figure uses) keeps per-sample optimizer steps and thereby
    trajectories bit-identical to the pre-tape engine; a figure that has
    validated its assertions under chunked SGD (Fig. 18 in the smoke lane)
    can opt into larger stacked chunks for ~3x faster training.
    """
    train = cls_train_set()
    pipeline = _pipeline(tree_banks)
    rng = np.random.default_rng(seed)
    if model_name == "PointNet++ (c)":
        model = PointNetPPClassifier(train.num_classes, rng, pipeline)
    elif model_name == "DensePoint":
        model = DensePointClassifier(train.num_classes, rng, pipeline)
    else:
        raise ValueError(f"not a classifier: {model_name!r}")
    trainer = ClassificationTrainer(model, _sampler(sampler_key), lr=CLS_LR, seed=seed)
    epochs = DENSEPOINT_EPOCHS if model_name == "DensePoint" else CLS_EPOCHS
    trainer.train(train, epochs=epochs, batch_size=batch_size)
    return trainer


@functools.lru_cache(maxsize=None)
def segmentation_trainer(sampler_key: SamplerKey, seed: int = 0) -> SegmentationTrainer:
    train = seg_train_set()
    model = PointNetPPSegmenter(
        num_part_classes(), np.random.default_rng(seed), _pipeline()
    )
    trainer = SegmentationTrainer(
        model, num_classes=num_part_classes(), sampler=_sampler(sampler_key),
        lr=5e-3, seed=seed,
    )
    trainer.train(train, epochs=SEG_EPOCHS)
    return trainer


@functools.lru_cache(maxsize=None)
def detection_trainer(sampler_key: SamplerKey, seed: int = 0) -> DetectionTrainer:
    train = det_train_set()
    model = FrustumPointNet(np.random.default_rng(seed), _pipeline())
    trainer = DetectionTrainer(
        model, frustum_points=128, sampler=_sampler(sampler_key), lr=5e-3, seed=seed
    )
    trainer.train(train, epochs=DET_EPOCHS)
    return trainer


def baseline_key() -> SamplerKey:
    return ("fixed", 0, None)


def ans_key(ht: int = HEADLINE_HT) -> SamplerKey:
    return ("fixed", ht, None)


def bce_key(ht: int = HEADLINE_HT, he: int = HEADLINE_HE) -> SamplerKey:
    return ("fixed", ht, he)
