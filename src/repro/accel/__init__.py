"""Accelerator simulator: PEs, search engine, aggregation, systolic array, baselines."""

from .pe import PIPELINE_DEPTH, FiveStagePipeline, PipelineRun
from .systolic import MatmulCost, SystolicArray
from .search_engine import (
    INDEX_BYTES,
    QUERY_BYTES,
    NeighborSearchEngine,
    SearchEngineResult,
)
from .aggregation import POINT_RECORD_BYTES, AggregationResult, AggregationUnit
from .accelerator import (
    LayerResult,
    LayerSpec,
    NetworkResult,
    NetworkSpec,
    PointCloudAccelerator,
    run_networks,
)
from .baselines import (
    ExhaustiveSplitSearchEngine,
    GpuCoefficients,
    GpuModel,
    gpu_network_result,
    make_mesorasi,
    tigris_gpu_network_result,
)
from .workloads import (
    densepoint_spec,
    evaluation_hardware,
    evaluation_networks,
    fpointnet_spec,
    pointnetpp_cls_spec,
    pointnetpp_seg_spec,
    workload_points,
)

__all__ = [
    "PIPELINE_DEPTH",
    "FiveStagePipeline",
    "PipelineRun",
    "MatmulCost",
    "SystolicArray",
    "INDEX_BYTES",
    "QUERY_BYTES",
    "NeighborSearchEngine",
    "SearchEngineResult",
    "POINT_RECORD_BYTES",
    "AggregationResult",
    "AggregationUnit",
    "LayerResult",
    "LayerSpec",
    "NetworkResult",
    "NetworkSpec",
    "PointCloudAccelerator",
    "run_networks",
    "ExhaustiveSplitSearchEngine",
    "GpuCoefficients",
    "GpuModel",
    "gpu_network_result",
    "make_mesorasi",
    "tigris_gpu_network_result",
    "densepoint_spec",
    "evaluation_hardware",
    "evaluation_networks",
    "fpointnet_spec",
    "pointnetpp_cls_spec",
    "pointnetpp_seg_spec",
    "workload_points",
]
