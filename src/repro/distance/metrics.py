"""Software distance/similarity metrics used as baselines.

Sec. IV-A compares the MCAM distance function against floating-point software
implementations of the cosine and Euclidean distance functions (the GPU
baseline) and against the Hamming distance of the TCAM+LSH approach; the
earlier TCAM work of Laguna et al. used the L-infinity distance.  All of
those metrics are implemented here, both as pairwise functions and as
vectorized "one query against many rows" functions, which is what the search
engines use.

Every metric follows the convention *smaller is closer* so the nearest
neighbor is always an ``argmin``; the cosine metric is therefore expressed as
the cosine *distance* ``1 - cos(a, b)``.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.validation import as_1d_array, as_2d_array


def _check_pair(a, b):
    a = as_1d_array(a, "a")
    b = as_1d_array(b, "b")
    if a.shape != b.shape:
        raise ConfigurationError(
            f"vectors must have the same shape, got {a.shape} and {b.shape}"
        )
    return a, b


def _check_rows_query(rows, query):
    rows = as_2d_array(rows, "rows")
    query = as_1d_array(query, "query")
    if rows.shape[1] != query.shape[0]:
        raise ConfigurationError(
            f"query length {query.shape[0]} does not match row width {rows.shape[1]}"
        )
    return rows, query


# ----------------------------------------------------------------------
# Pairwise metrics
# ----------------------------------------------------------------------
def euclidean_distance(a, b) -> float:
    """L2 distance between two vectors."""
    a, b = _check_pair(a, b)
    return float(np.linalg.norm(a - b))


def squared_euclidean_distance(a, b) -> float:
    """Squared L2 distance (monotone in the L2 distance, cheaper to compute)."""
    a, b = _check_pair(a, b)
    difference = a - b
    return float(np.dot(difference, difference))


def manhattan_distance(a, b) -> float:
    """L1 distance between two vectors."""
    a, b = _check_pair(a, b)
    return float(np.sum(np.abs(a - b)))


def linf_distance(a, b) -> float:
    """L-infinity (Chebyshev) distance — the metric of the TCAM design in [4]."""
    a, b = _check_pair(a, b)
    return float(np.max(np.abs(a - b)))


def cosine_distance(a, b) -> float:
    """Cosine distance ``1 - cos(a, b)``.

    Zero-norm vectors are treated as maximally distant from everything
    (distance 1), matching the behaviour of common ANN libraries.
    """
    a, b = _check_pair(a, b)
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 1.0
    similarity = float(np.dot(a, b) / (norm_a * norm_b))
    return 1.0 - float(np.clip(similarity, -1.0, 1.0))


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length discrete vectors differ."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigurationError(
            f"hamming distance requires equal-length 1-D vectors, got {a.shape} and {b.shape}"
        )
    return int(np.count_nonzero(a != b))


def minkowski_distance(a, b, order: float = 2.0) -> float:
    """General Minkowski distance of a given ``order`` (p-norm of the difference)."""
    if order <= 0:
        raise ConfigurationError(f"order must be positive, got {order}")
    a, b = _check_pair(a, b)
    return float(np.sum(np.abs(a - b) ** order) ** (1.0 / order))


# ----------------------------------------------------------------------
# One-query-vs-many-rows metrics (used by the search engines)
# ----------------------------------------------------------------------
def euclidean_distances(rows, query) -> np.ndarray:
    """L2 distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    return np.linalg.norm(rows - query[np.newaxis, :], axis=1)


def manhattan_distances(rows, query) -> np.ndarray:
    """L1 distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    return np.sum(np.abs(rows - query[np.newaxis, :]), axis=1)


def linf_distances(rows, query) -> np.ndarray:
    """L-infinity distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    return np.max(np.abs(rows - query[np.newaxis, :]), axis=1)


def cosine_distances(rows, query) -> np.ndarray:
    """Cosine distance from ``query`` to every row of ``rows``."""
    rows, query = _check_rows_query(rows, query)
    row_norms = np.linalg.norm(rows, axis=1)
    query_norm = np.linalg.norm(query)
    distances = np.ones(rows.shape[0])
    if query_norm == 0.0:
        return distances
    valid = row_norms > 0.0
    similarities = rows[valid] @ query / (row_norms[valid] * query_norm)
    distances[valid] = 1.0 - np.clip(similarities, -1.0, 1.0)
    return distances


def hamming_distances(rows, query) -> np.ndarray:
    """Hamming distance from ``query`` to every row of discrete ``rows``."""
    rows = np.asarray(rows)
    query = np.asarray(query)
    if rows.ndim != 2 or query.ndim != 1 or rows.shape[1] != query.shape[0]:
        raise ConfigurationError(
            f"rows must be (n, d) and query (d,), got {rows.shape} and {query.shape}"
        )
    return np.count_nonzero(rows != query[np.newaxis, :], axis=1)


# ----------------------------------------------------------------------
# Many-queries-vs-many-rows metrics (used by the batched search runtime)
# ----------------------------------------------------------------------
def _check_rows_queries(rows, queries):
    rows = as_2d_array(rows, "rows")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if queries.ndim != 2:
        raise ConfigurationError(
            f"queries must be two-dimensional, got shape {queries.shape}"
        )
    if rows.shape[1] != queries.shape[1]:
        raise ConfigurationError(
            f"query width {queries.shape[1]} does not match row width {rows.shape[1]}"
        )
    return rows, queries


#: Cap on the ``chunk * num_rows * num_features`` broadcast temporary used by
#: the elementwise distance matrices; larger batches run in query chunks.
_BROADCAST_CHUNK_ELEMENTS = 1 << 24


def _chunked_broadcast_matrix(rows, queries, reduce_fn) -> np.ndarray:
    """Apply an elementwise-difference reduction per query chunk.

    ``reduce_fn(diff)`` reduces a ``(chunk, num_rows, num_features)``
    difference tensor over its last axis.  The tensor is scratch: every
    chunk is subtracted into one buffer allocated once per call, and the
    reducer may overwrite it (square or take absolute values in place)
    instead of allocating temporaries of its size.  Chunking the query axis
    bounds that buffer at ``_BROADCAST_CHUNK_ELEMENTS`` doubles without
    changing any per-query result.
    """
    num_queries = queries.shape[0]
    out = np.empty((num_queries, rows.shape[0]))
    if num_queries == 0:
        return out
    per_query = max(1, rows.shape[0] * rows.shape[1])
    chunk = min(num_queries, max(1, _BROADCAST_CHUNK_ELEMENTS // per_query))
    buffer = np.empty((chunk,) + rows.shape)
    for start in range(0, num_queries, chunk):
        stop = min(start + chunk, num_queries)
        diff = np.subtract(
            queries[start:stop, np.newaxis, :], rows[np.newaxis, :, :], out=buffer[: stop - start]
        )
        out[start:stop] = reduce_fn(diff)
    return out


# In-place reducers of a scratch difference tensor.  Each computes the same
# products and reduces them over the same contiguous axis as its broadcast
# expression -- np.linalg.norm(d, axis=2) (``conj()`` of a real array is the
# array itself), np.sum(np.abs(d), axis=2) and np.max(np.abs(d), axis=2) --
# so the results are bitwise equal, without a second tensor-sized temporary.
def _l2_in_place(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=2))


def _l1_in_place(d: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.abs(d, out=d), axis=2)


def _linf_in_place(d: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.abs(d, out=d), axis=2)


def euclidean_distance_matrix(rows, queries) -> np.ndarray:
    """L2 distance of every query to every row, shape ``(num_queries, num_rows)``."""
    rows, queries = _check_rows_queries(rows, queries)
    return _chunked_broadcast_matrix(rows, queries, _l2_in_place)


def manhattan_distance_matrix(rows, queries) -> np.ndarray:
    """L1 distance of every query to every row, shape ``(num_queries, num_rows)``."""
    rows, queries = _check_rows_queries(rows, queries)
    return _chunked_broadcast_matrix(rows, queries, _l1_in_place)


def linf_distance_matrix(rows, queries) -> np.ndarray:
    """L-infinity distance of every query to every row, shape ``(num_queries, num_rows)``."""
    rows, queries = _check_rows_queries(rows, queries)
    return _chunked_broadcast_matrix(rows, queries, _linf_in_place)


def cosine_distance_matrix(rows, queries) -> np.ndarray:
    """Cosine distance of every query to every row, shape ``(num_queries, num_rows)``.

    Zero-norm rows or queries are maximally distant (distance 1), matching
    :func:`cosine_distances`.
    """
    rows, queries = _check_rows_queries(rows, queries)
    row_norms = np.linalg.norm(rows, axis=1)
    query_norms = np.linalg.norm(queries, axis=1)
    distances = np.ones((queries.shape[0], rows.shape[0]))
    valid_rows = row_norms > 0.0
    valid_queries = query_norms > 0.0
    if not valid_rows.any() or not valid_queries.any():
        return distances
    similarities = (
        queries[valid_queries] @ rows[valid_rows].T
        / np.outer(query_norms[valid_queries], row_norms[valid_rows])
    )
    block = 1.0 - np.clip(similarities, -1.0, 1.0)
    distances[np.ix_(valid_queries, valid_rows)] = block
    return distances


def hamming_distance_matrix(rows, queries) -> np.ndarray:
    """Hamming distance of every query to every discrete row, ``(num_queries, num_rows)``."""
    rows = np.asarray(rows)
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries.reshape(1, -1)
    if rows.ndim != 2 or queries.ndim != 2 or rows.shape[1] != queries.shape[1]:
        raise ConfigurationError(
            f"rows must be (n, d) and queries (m, d), got {rows.shape} and {queries.shape}"
        )
    num_queries = queries.shape[0]
    out = np.empty((num_queries, rows.shape[0]), dtype=np.int64)
    if num_queries == 0:
        return out
    chunk = max(1, _BROADCAST_CHUNK_ELEMENTS // max(1, rows.shape[0] * rows.shape[1]))
    for start in range(0, num_queries, chunk):
        stop = min(start + chunk, num_queries)
        out[start:stop] = np.count_nonzero(
            rows[np.newaxis, :, :] != queries[start:stop, np.newaxis, :], axis=2
        )
    return out


#: Registry of batched metrics by name; used by the software search engine.
BATCH_METRICS: Dict[str, Callable] = {
    "euclidean": euclidean_distances,
    "manhattan": manhattan_distances,
    "linf": linf_distances,
    "cosine": cosine_distances,
    "hamming": hamming_distances,
}

#: Registry of distance-matrix metrics by name; used by the batched runtime.
MATRIX_METRICS: Dict[str, Callable] = {
    "euclidean": euclidean_distance_matrix,
    "manhattan": manhattan_distance_matrix,
    "linf": linf_distance_matrix,
    "cosine": cosine_distance_matrix,
    "hamming": hamming_distance_matrix,
}


def get_batch_metric(name: str) -> Callable:
    """Look up a batched metric by name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a known metric.
    """
    try:
        return BATCH_METRICS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; available metrics: {sorted(BATCH_METRICS)}"
        ) from None


def get_matrix_metric(name: str) -> Callable:
    """Look up a distance-matrix metric by name.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a known metric.
    """
    try:
        return MATRIX_METRICS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; available metrics: {sorted(MATRIX_METRICS)}"
        ) from None
