"""End-to-end LiDAR detection with approximate neighbor search.

The workload the paper's introduction motivates: a KITTI-style outdoor
scene, frustum proposals, and an F-PointNet that segments each frustum and
regresses a 3D box — running its neighbor searches through Crescent's
approximate pipeline.

Run:  python examples/lidar_detection.py   (~30 s on a laptop)
"""

import numpy as np

from repro.core import ApproxSetting
from repro.geometry import LidarDetectionDataset, box_iou_bev
from repro.models import FrustumPointNet, frustum_crop
from repro.nn import no_grad
from repro.training import DetectionTrainer, FixedSetting


def main() -> None:
    train = LidarDetectionDataset(size=32, num_points=1024, seed=0, num_cars=2)
    test = LidarDetectionDataset(size=8, num_points=1024, seed=80_000, num_cars=2)

    print("training F-PointNet with approximation-aware training "
          "(h sampled per input) ...")
    trainer = DetectionTrainer(
        FrustumPointNet(np.random.default_rng(0)),
        frustum_points=128,
        sampler=FixedSetting(ApproxSetting(3, 5)),
        lr=5e-3,
    )
    trainer.train(train, epochs=30)

    print("\nper-scene detections (approximate search, h = <3, 5>):")
    setting = ApproxSetting(3, 5)
    ious = []
    # Inference only: outside no_grad every forward would leave its graph
    # on the autograd tape, since nothing backpropagates it.
    with no_grad():
        for i in range(len(test)):
            scene = test[i]
            gt = scene.boxes[0]
            crop = frustum_crop(
                scene.cloud.points, gt.center[:2], max_points=128,
                rng=np.random.default_rng(100 + i),
            )
            pred = trainer.model(crop, setting)
            box = pred.decode(crop)
            iou = box_iou_bev(box, gt)
            ious.append(iou)
            print(f"  scene {i}: gt center ({gt.center[0]:6.1f}, {gt.center[1]:6.1f})"
                  f"  pred ({box.center[0]:6.1f}, {box.center[1]:6.1f})"
                  f"  BEV IoU {iou:.2f}")
    print(f"\nmean BEV IoU: {np.mean(ious):.3f}")
    exact = trainer.evaluate(test, ApproxSetting(0, None))
    approx = trainer.evaluate(test, setting)
    print(f"geomean IoU — exact search: {exact:.3f}, "
          f"approximate search: {approx:.3f}")


if __name__ == "__main__":
    main()
