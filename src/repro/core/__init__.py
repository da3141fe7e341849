"""Core public API: quantization, the MCAM distance function, search engines.

This package holds the paper's primary contribution in library form:

* :class:`~repro.core.quantization.UniformQuantizer` — maps real features to
  MCAM states (Sec. IV-A),
* :class:`~repro.core.distance.MCAMDistance` — the proposed conductance-based
  distance function, usable as a plain software metric,
* :class:`~repro.core.search.MCAMSearcher`,
  :class:`~repro.core.search.TCAMLSHSearcher`,
  :class:`~repro.core.search.SoftwareSearcher` — the three NN-search
  implementations compared throughout the evaluation.
"""

from .distance import (
    MCAMDistance,
    exponential_distance_profile,
    linear_distance_profile,
    profile_to_lut,
)
from .knn import KNNClassifier
from .quantization import UniformQuantizer
from .sharding import SerialShardExecutor, ShardedSearcher, merge_shard_topk
from .search import (
    BatchQueryResult,
    MCAMSearcher,
    NearestNeighborSearcher,
    QueryResult,
    SoftwareSearcher,
    TCAMLSHSearcher,
    available_backends,
    get_backend,
    make_searcher,
    register_backend,
    slice_topk,
)

__all__ = [
    "MCAMDistance",
    "exponential_distance_profile",
    "linear_distance_profile",
    "profile_to_lut",
    "KNNClassifier",
    "UniformQuantizer",
    "SerialShardExecutor",
    "ShardedSearcher",
    "merge_shard_topk",
    "BatchQueryResult",
    "MCAMSearcher",
    "NearestNeighborSearcher",
    "QueryResult",
    "SoftwareSearcher",
    "TCAMLSHSearcher",
    "available_backends",
    "get_backend",
    "make_searcher",
    "register_backend",
    "slice_topk",
]
