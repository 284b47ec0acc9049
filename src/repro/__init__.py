"""Crescent (ISCA 2022) reproduction: taming memory irregularities for
deep point cloud analytics.

Subpackages
-----------
- :mod:`repro.geometry` — point clouds and synthetic datasets
- :mod:`repro.kdtree`   — K-d tree substrate
- :mod:`repro.memsim`   — DRAM/SRAM/cache/energy models
- :mod:`repro.core`     — the paper's contribution (split-tree search,
  bank-conflict elision, approximation pipeline)
- :mod:`repro.runtime`  — batched query engine, forest approximate
  search, memoizing search sessions, respawnable worker processes
- :mod:`repro.accel`    — cycle-level accelerator simulator + baselines
- :mod:`repro.nn`       — NumPy autograd and layers
- :mod:`repro.models`   — PointNet++ (c/s), DensePoint, F-PointNet
- :mod:`repro.training` — approximation-aware training
- :mod:`repro.analysis` — experiment drivers behind every paper figure
"""

__version__ = "1.0.0"

__all__ = [
    "geometry",
    "kdtree",
    "memsim",
    "core",
    "runtime",
    "accel",
    "nn",
    "models",
    "training",
    "analysis",
]
