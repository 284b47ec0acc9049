"""K-d tree substrate: construction, exact search, brute force, traversal machines."""

from .build import NODE_BYTES, KdTree, build_kdtree
from .stats import TraversalStats
from .exact import ball_query, knn_search, radius_search
from .brute import brute_ball_query, brute_knn_search, brute_radius_search
from .traversal import SubtreeSearch, TopTreeDescent
from .dynamic import DynamicKdTree, DynamicStats
from .dynamic_reference import scratch_dynamic_query

__all__ = [
    "NODE_BYTES",
    "KdTree",
    "build_kdtree",
    "DynamicKdTree",
    "DynamicStats",
    "scratch_dynamic_query",
    "TraversalStats",
    "ball_query",
    "knn_search",
    "radius_search",
    "brute_ball_query",
    "brute_knn_search",
    "brute_radius_search",
    "SubtreeSearch",
    "TopTreeDescent",
]
