"""Nearest-neighbor search engines: the three implementations of Sec. IV-A.

The paper evaluates three NN-search implementations on identical real-valued
features:

1. **Software (GPU)** — floating-point cosine or Euclidean distance over the
   raw features (:class:`SoftwareSearcher`),
2. **TCAM+LSH** — random-hyperplane LSH signatures stored in a TCAM searched
   by minimum Hamming distance (:class:`TCAMLSHSearcher`),
3. **FeFET MCAM** — features quantized to the cell precision, stored in an
   MCAM and searched in a single step with the proposed conductance distance
   function (:class:`MCAMSearcher`).

All engines implement the same :class:`NearestNeighborSearcher` interface
(`fit`, `kneighbors`, `kneighbors_batch`, `predict`), so the accuracy
harness and the examples can swap them freely.  Queries are evaluated in
vectorized batches: :meth:`NearestNeighborSearcher.kneighbors_batch` ranks
an entire query matrix in one pass over the programmed array state, which is
built once per :meth:`fit` and reused across queries.

Engines are discoverable by string through the **backend registry**:
:func:`register_backend` associates a name with a factory, and
:func:`make_searcher` (or :func:`get_backend`) resolves names such as
``"mcam-3bit"`` or ``"cosine"`` without callers having to import the
concrete classes.  Third-party backends plug in the same way::

    @register_backend("my-engine")
    def _make_my_engine(num_features, **config):
        return MyEngine(...)

    searcher = make_searcher("my-engine", num_features=64)
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SearchError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_bits, check_feature_matrix, check_int_in_range
from ..circuits.conductance_lut import ConductanceLUT
from ..circuits.mcam_array import MCAMArray
from ..circuits.sense_amplifier import IdealWinnerTakeAll, sense_all
from ..circuits.tcam import TCAMArray
from ..devices.variation import VariationModel
from ..distance.metrics import get_matrix_metric
from ..encoding.lsh import RandomHyperplaneLSH
from .quantization import UniformQuantizer


def _stable_smallest_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the ``k`` smallest scores, ties toward lower index.

    Selects exactly the first ``k`` columns of
    ``np.argsort(scores, axis=1, kind="stable")`` — i.e. the ``k``
    lexicographically smallest ``(score, index)`` pairs per row — without
    paying for a full stable sort when ``k`` is small.
    """
    num_queries, num_entries = scores.shape
    if k == 1:
        # argmin returns the first occurrence of the minimum: stable top-1.
        return np.argmin(scores, axis=1).reshape(-1, 1)
    if 4 * k >= num_entries:
        return np.argsort(scores, axis=1, kind="stable")[:, :k]
    # Candidates are every entry not larger than the k-th smallest value;
    # ties at that threshold are resolved toward the lower index, matching
    # a stable sort.
    thresholds = np.partition(scores, k - 1, axis=1)[:, k - 1]
    top = np.empty((num_queries, k), dtype=np.int64)
    for q in range(num_queries):
        candidates = np.flatnonzero(scores[q] <= thresholds[q])
        order = np.argsort(scores[q][candidates], kind="stable")
        top[q] = candidates[order[:k]]
    return top


def slice_topk(
    indices: np.ndarray, scores: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The top-``k`` prefix of a deeper top-``k_max`` ranking — exact.

    Every engine (and the sharded cross-shard merge) ranks by the
    lexicographically smallest ``(score, global index)`` pairs with stable
    tie-breaking, so column ``j`` of a ranking at depth ``k_max`` is
    identical to column ``j`` of a ranking at any depth ``k <= k_max`` —
    per query, per shard count, per executor.  Slicing the first ``k``
    columns of a deeper ranking is therefore **bitwise identical** to
    ranking at ``k`` directly.  The serving scheduler's cross-``k``
    coalescing leans on exactly this: a mixed-``k`` micro-batch is ranked
    once at ``max(k)`` and each client's rows are sliced here at
    demultiplex time.
    """
    return indices[..., :k], scores[..., :k]


@dataclass(frozen=True)
class QueryResult:
    """Result of a k-nearest-neighbor query.

    Attributes
    ----------
    indices:
        Indices of the ``k`` nearest stored entries, closest first.
    scores:
        The engine's internal score for each returned index (conductance,
        Hamming distance or metric distance); smaller is closer.
    labels:
        Labels of the returned entries (``None`` entries when unlabeled).
    """

    indices: np.ndarray
    scores: np.ndarray
    labels: tuple


@dataclass(frozen=True)
class BatchQueryResult:
    """Result of a k-nearest-neighbor query for a whole batch of queries.

    Attributes
    ----------
    indices:
        Indices of the ``k`` nearest stored entries per query, closest
        first; shape ``(num_queries, k)``.
    scores:
        Engine score per returned index (smaller is closer); shape
        ``(num_queries, k)``.
    labels:
        Tuple of per-query label tuples (``None`` entries when unlabeled).
    """

    indices: np.ndarray
    scores: np.ndarray
    labels: tuple

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def __getitem__(self, index: int) -> QueryResult:
        """The ``index``-th query's result as a single-query QueryResult."""
        return QueryResult(
            indices=self.indices[index],
            scores=self.scores[index],
            labels=self.labels[index],
        )


class NearestNeighborSearcher(abc.ABC):
    """Common interface of all NN-search engines."""

    def __init__(self) -> None:
        self._labels: Optional[np.ndarray] = None
        self._num_entries = 0
        self._num_features = 0

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Number of stored data points."""
        return self._num_entries

    @property
    def num_features(self) -> int:
        """Feature width of the stored data (0 before :meth:`fit`)."""
        return self._num_features

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._num_entries > 0

    def calibrate(self, features: Any) -> "NearestNeighborSearcher":
        """Freeze data-dependent preprocessing on ``features`` (no-op by default).

        Engines with data-dependent preprocessing (the MCAM's quantizer
        calibration, the LSH encoder's centering) normally fit it inside
        :meth:`fit`.  Sharded execution calls :meth:`calibrate` with the
        *full* stored feature matrix before fitting each shard on its slice,
        so every shard quantizes/encodes exactly like one unsharded engine
        would — the precondition for bitwise-identical sharded results.
        """
        features = check_feature_matrix(features, "features")
        self._calibrate(features)
        return self

    def _calibrate(self, features: np.ndarray) -> None:
        """Engine-specific calibration hook; the default does nothing."""

    def adopt_calibration(self, source: "NearestNeighborSearcher") -> bool:
        """Copy frozen preprocessing from an already-calibrated sibling.

        Sharded execution calibrates one shard engine on the full store and
        shares that state with the remaining shards instead of recomputing
        the full-store calibration per shard.  Returns False when ``source``
        is incompatible (the caller falls back to :meth:`calibrate`); the
        default implementation supports nothing.
        """
        return False

    def calibration_token(self) -> Any:
        """Hashable fingerprint of the frozen data-dependent preprocessing.

        ``None`` means the engine has no data-dependent preprocessing (the
        software metrics) or has not been calibrated yet.  The sharded
        append path compares tokens before and after recalibrating on a
        grown store: an unchanged token proves the stored representation of
        untouched shards is still valid, so only the shards that received
        new rows need a refit.
        """
        return None

    def calibration_fingerprint(self) -> Optional[str]:
        """Stable hex digest of :meth:`calibration_token` (None when absent).

        The storage tier records this in snapshot manifests and re-derives
        it from the restored engine, so a snapshot whose calibration state
        does not survive the round trip is rejected instead of served.
        """
        token = self.calibration_token()
        if token is None:
            return None
        return hashlib.sha256(repr(token).encode("utf-8")).hexdigest()

    def calibration_covers(self, features: Any) -> bool:
        """Whether storing ``features`` too leaves the frozen calibration as it is.

        True promises that recalibrating on the grown store would reproduce
        the current calibration exactly, so the sharded append path may skip
        that full-store pass and touch only the shards that receive rows.
        The default answers False: the caller recalibrates on the full store
        and compares :meth:`calibration_token` values instead.
        """
        return False

    def _extend_fit(self, features: np.ndarray, labels: Optional[Sequence[int]] = None) -> bool:
        """Append checked rows to the fitted store in place, if the engine can.

        The sharded append path's hook: ``features`` already passed
        :func:`check_feature_matrix`.  An engine that accepts (returns
        True) must end up exactly as a :meth:`fit` of the grown store would
        leave it, provided :meth:`calibration_covers` holds for
        ``features``.  The default declines (returns False), and the caller
        refits instead.
        """
        return False

    @staticmethod
    def _label_array(labels: Optional[Sequence[int]], num_entries: int) -> Optional[np.ndarray]:
        """``labels`` as an array of ``num_entries`` items (None stays None)."""
        if labels is None:
            return None
        label_array = np.asarray(labels)
        if label_array.shape[0] != num_entries:
            raise SearchError(f"got {label_array.shape[0]} labels for {num_entries} entries")
        return label_array

    def fit(
        self, features: Any, labels: Optional[Sequence[int]] = None
    ) -> "NearestNeighborSearcher":
        """Store ``features`` (and optional ``labels``) as the search memory."""
        return self._fit_checked(check_feature_matrix(features, "features"), labels)

    def _fit_checked(
        self, features: np.ndarray, labels: Optional[Sequence[int]] = None
    ) -> "NearestNeighborSearcher":
        """:meth:`fit` on a matrix :func:`check_feature_matrix` already accepted.

        The internal entry for callers that validated the matrix themselves
        (the MANN memory, the sharded searcher's shards), so one batch costs
        one ``isfinite`` pass.
        """
        label_array = self._label_array(labels, features.shape[0])
        self._labels = label_array
        self._num_entries = features.shape[0]
        self._num_features = features.shape[1]
        self._fit(features, label_array)
        return self

    def kneighbors(self, query: Any, k: int = 1, rng: SeedLike = None) -> QueryResult:
        """Return the ``k`` nearest stored entries for one query vector.

        A single query is ranked as a batch of one: the result, and every
        validation error, is exactly that of :meth:`kneighbors_batch` on
        ``query`` reshaped to one row.
        """
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self.kneighbors_batch(query, k=k, rng=rng)[0]

    def kneighbors_batch(
        self, queries: Any, k: int = 1, rng: SeedLike = None
    ) -> BatchQueryResult:
        """The ``k`` nearest stored entries for every row of ``queries``.

        The whole query matrix is evaluated in one vectorized pass over the
        programmed array state; :meth:`kneighbors` is this method on a batch
        of one.  Query rows are ranked independently, so for the CAM engines
        each row is bitwise identical to ranking that query alone; for the
        software metrics the neighbor ranking matches while scores may
        differ by float rounding between batch sizes (BLAS blocking).  An
        empty batch (``(0, num_features)``) yields an empty result.
        """
        self._require_fitted()
        k = check_int_in_range(k, "k", minimum=1, maximum=self._num_entries)
        queries = self._check_query_batch(queries)
        if queries.shape[0] == 0:
            return BatchQueryResult(
                indices=np.empty((0, k), dtype=np.int64),
                scores=np.empty((0, k)),
                labels=(),
            )
        indices, scores = self._rank_batch(queries, rng=ensure_rng(rng), k=k)
        labels = tuple(
            tuple(None if self._labels is None else self._labels[i] for i in row)
            for row in indices
        )
        return BatchQueryResult(indices=indices, scores=scores, labels=labels)

    def kneighbors_arrays(
        self, queries: Any, k: int = 1, rng: SeedLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rank a (possibly coalesced) query batch into raw top-k arrays.

        The per-query demultiplexing entry point of the serving layer: the
        ranking is identical to :meth:`kneighbors_batch` — row ``i`` is
        bitwise identical to the single-query call for the deterministic
        engines, because every batched kernel evaluates query rows
        independently — but the result is the plain ``(indices, scores)``
        pair of ``(num_queries, k)`` arrays, skipping the per-query
        label-tuple construction so a scheduler can slice rows straight back
        to the awaiting clients (see :func:`labels_for` for on-demand
        labels).
        """
        self._require_fitted()
        k = check_int_in_range(k, "k", minimum=1, maximum=self._num_entries)
        queries = self._check_query_batch(queries)
        if queries.shape[0] == 0:
            return np.empty((0, k), dtype=np.int64), np.empty((0, k))
        return self._rank_batch(queries, rng=ensure_rng(rng), k=k)

    def labels_for(self, indices: Any) -> tuple:
        """Stored labels for global row indices (``None`` when unlabeled).

        Serving demultiplexers call this per delivered query instead of
        paying :meth:`kneighbors_batch`'s eager label construction for the
        whole coalesced batch.
        """
        if self._labels is None:
            return tuple(None for _ in indices)
        return tuple(self._labels[int(i)] for i in indices)

    def submit_serving(
        self, queries: Any, k: int = 1, rng: SeedLike = None
    ) -> Callable[..., Tuple[np.ndarray, np.ndarray]]:
        """Dispatch one serving batch, returning a ``collect(timeout=None)``.

        ``collect()`` yields the ``(indices, scores)`` arrays of
        :meth:`kneighbors_arrays`; its optional ``timeout`` is vacuous here
        (the result is already computed) but part of the serving contract —
        schedulers pass their requests' remaining deadline budget through
        it.  The default implementation computes eagerly and hands back a
        completed collector; searchers whose executor can keep several
        batches in flight (the sharded ``"processes"`` executor dispatching
        through the shared-memory ring) override this so the micro-batching
        scheduler can overlap the next batch's dispatch with the previous
        batch's worker-side compute.
        """
        result = self.kneighbors_arrays(queries, k=k, rng=rng)
        return lambda timeout=None: result

    def nearest(self, query: Any, rng: SeedLike = None) -> int:
        """Index of the nearest stored entry."""
        return int(self.kneighbors(query, k=1, rng=rng).indices[0])

    def predict(self, queries: Any, rng: SeedLike = None) -> np.ndarray:
        """Label of the nearest neighbor for every row of ``queries``."""
        return self.predict_batch(queries, rng=rng)

    def predict_batch(self, queries: Any, rng: SeedLike = None) -> np.ndarray:
        """Label of the nearest neighbor for every row of ``queries``.

        The batch is evaluated in one vectorized search over the programmed
        array state, and the labels are one take over the winning indices
        (no per-query label tuples are built).
        """
        return self._predict_batch(queries, rng, finite_checked=False)

    def _predict_batch(self, queries: Any, rng: SeedLike, finite_checked: bool) -> np.ndarray:
        """:meth:`predict_batch`, skipping the ``isfinite`` pass if the caller made it.

        ``finite_checked`` is for callers that already rejected non-finite
        queries with their own error (the MANN memory); the shape checks
        run either way.
        """
        self._require_fitted()
        if self._labels is None:
            raise SearchError("cannot predict labels: the searcher was fitted without labels")
        queries = self._check_query_batch(queries, finite_checked=finite_checked)
        if queries.shape[0] == 0:
            return self._labels[:0].copy()
        indices, _ = self._rank_batch(queries, rng=ensure_rng(rng), k=1)
        predictions: np.ndarray = self._labels[indices[:, 0]]
        return predictions

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise SearchError("searcher must be fitted before searching")

    def _check_query_batch(self, queries: Any, finite_checked: bool = False) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.ndim != 2:
            raise SearchError(f"queries must be two-dimensional, got shape {queries.shape}")
        if queries.shape[1] != self._num_features:
            raise SearchError(
                f"queries have {queries.shape[1]} features, expected {self._num_features}"
            )
        if not finite_checked and queries.size and not np.all(np.isfinite(queries)):
            raise SearchError("queries must contain only finite values")
        return queries

    # ------------------------------------------------------------------
    # Hooks implemented by the concrete engines
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _fit(self, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        """Engine-specific storage of the fitted data."""

    @abc.abstractmethod
    def _rank_batch(
        self, queries: np.ndarray, rng: np.random.Generator, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(indices, scores)`` arrays of shape ``(num_queries, k)``.

        ``queries`` is a validated, non-empty ``(num_queries, num_features)``
        matrix; result row ``i`` lists query ``i``'s best entries first.
        """


class SoftwareSearcher(NearestNeighborSearcher):
    """Floating-point brute-force NN search (the GPU baseline of Sec. IV-A).

    Parameters
    ----------
    metric:
        ``"cosine"``, ``"euclidean"``, ``"manhattan"`` or ``"linf"``.
    """

    def __init__(self, metric: str = "cosine") -> None:
        super().__init__()
        self.metric = metric
        self._distance_matrix = get_matrix_metric(metric)
        self._features: Optional[np.ndarray] = None

    def _fit(self, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        self._features = features.astype(np.float32)  # FP32, as in the paper

    def _require_features(self) -> np.ndarray:
        if self._features is None:
            raise SearchError("searcher must be fitted before searching")
        return self._features

    def _rank_batch(
        self, queries: np.ndarray, rng: np.random.Generator, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        distances = np.asarray(
            self._distance_matrix(self._require_features(), queries.astype(np.float32)),
            dtype=np.float64,
        )
        indices = _stable_smallest_k(distances, k)
        return indices, np.take_along_axis(distances, indices, axis=1)


class MCAMSearcher(NearestNeighborSearcher):
    """NN search on the FeFET MCAM with the proposed distance function.

    The real-valued features are quantized to the cell precision with a
    uniform quantizer calibrated on the stored data; the quantized entries
    are written to an :class:`~repro.circuits.mcam_array.MCAMArray`, and each
    query is a single in-memory search.  The array's conductance state is
    programmed once per :meth:`fit` and reused across queries; batched
    queries are evaluated in one vectorized pass over it.

    Parameters
    ----------
    bits:
        MCAM cell precision (2 or 3 in the paper).
    lut:
        Optional conductance look-up table (e.g. a varied or measured one);
        defaults to the nominal table for ``bits``.
    variation:
        Optional device variation model; when given, the array models each
        physical cell individually.
    sense_amplifier:
        Optional non-ideal sensing model.
    seed:
        Randomness for programming variation / sensing noise.
    max_rows:
        Optional physical row count of the array; stores larger than this
        raise a :class:`~repro.exceptions.CapacityError` (shard across
        arrays with :class:`~repro.core.sharding.ShardedSearcher` instead).
    program_seed:
        Optional integer enabling **row-keyed** device-variation programming:
        every fit routes through the array's delta-reprogramming path with
        this base seed, so a row's physical profile depends only on the seed,
        the row index and the stored states — not on how many fits preceded
        it.  Refits then re-sample only the rows that changed, and results
        are independent of episode execution order (the property the
        process-parallel experiment runtime relies on).  Ignored when no
        ``variation`` model is attached (LUT-mode programming is
        deterministic already).
    """

    def __init__(
        self,
        bits: int = 3,
        lut: Optional[ConductanceLUT] = None,
        variation: Optional[VariationModel] = None,
        sense_amplifier: Any = None,
        seed: SeedLike = None,
        max_rows: Optional[int] = None,
        program_seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.bits = check_bits(bits)
        self.lut = lut
        self.variation = variation
        self.sense_amplifier = sense_amplifier
        self.max_rows = max_rows
        self.program_seed = None if program_seed is None else int(program_seed)
        self._rng = ensure_rng(seed)
        self.quantizer = UniformQuantizer(bits=self.bits)
        self._calibrated = False
        self._array: Optional[MCAMArray] = None

    def _calibrate(self, features: np.ndarray) -> None:
        # Calibrating on the full store (rather than this engine's slice of
        # it) is what makes shards quantize identically to one big array.
        self.quantizer._fit_checked(features)
        self._calibrated = True

    def adopt_calibration(self, source: "NearestNeighborSearcher") -> bool:
        if (
            isinstance(source, MCAMSearcher)
            and source._calibrated
            and source.bits == self.bits
        ):
            # The quantizer is read-only during search, so sharing the fitted
            # instance across shards is safe.
            self.quantizer = source.quantizer
            self._calibrated = True
            return True
        return False

    def calibration_token(self) -> Any:
        if not self._calibrated or not self.quantizer.is_fitted:
            return None
        low, high = self.quantizer.ranges
        return (low.tobytes(), high.tobytes())

    def calibration_covers(self, features: Any) -> bool:
        return self.quantizer.covers(features)

    def _extend_fit(self, features: np.ndarray, labels: Optional[Sequence[int]] = None) -> bool:
        """Quantize and program only the appended rows (:meth:`MCAMArray.append`).

        Look-up-table mode and row-keyed device mode (``program_seed``)
        program each row independently of the others, so with the
        calibration covering ``features`` this equals refitting the grown
        store.  Declines before the first fit, when the rows are labeled
        unlike the store, and in device mode without ``program_seed``,
        whose refit re-samples every row from the engine's stream.
        """
        array = self._array
        if (
            array is None
            or (self._labels is None) != (labels is None)
            or (self.variation is not None and self.program_seed is None)
        ):
            return False
        label_array = self._label_array(labels, features.shape[0])
        array.append(
            self.quantizer._quantize_checked(features),
            labels=None if label_array is None else list(label_array),
            rng=self.program_seed,
        )
        if self._labels is not None and label_array is not None:
            self._labels = np.concatenate([self._labels, label_array])
        self._num_entries += features.shape[0]
        return True

    def _fit(self, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        if not self._calibrated:
            self.quantizer._fit_checked(features)
        states = self.quantizer._quantize_checked(features)
        array = self._array
        if array is None or array.num_cells != features.shape[1]:
            reuse = False
            array = MCAMArray(
                num_cells=features.shape[1],
                bits=self.bits,
                lut=self.lut,
                variation=self.variation,
                sense_amplifier=self.sense_amplifier,
                max_rows=self.max_rows,
            )
            self._array = array
        else:
            reuse = True
        label_list = None if labels is None else list(labels)
        if self.variation is None and reuse:
            # LUT-mode refit on the same geometry: delta-reprogram the
            # existing array — unchanged rows keep their cached search
            # profiles, bitwise identical to an erase + rewrite.
            array.reprogram(states, labels=label_list)
        elif self.variation is not None and self.program_seed is not None:
            # Row-keyed device programming: a delta refit samples variation
            # only for the rows whose stored states changed, and equals a
            # from-scratch program of the same contents under the same seed.
            array.reprogram(states, labels=label_list, rng=self.program_seed)
        else:
            if reuse:
                array.clear()
            array.write(states, labels=label_list, rng=self._rng)

    def _require_array(self) -> MCAMArray:
        if self._array is None:
            raise SearchError("searcher must be fitted before searching")
        return self._array

    def _rank_batch(
        self, queries: np.ndarray, rng: np.random.Generator, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` rows by match-line conductance, as the sense amplifier sees them.

        Ideal sensing ranks by ``(conductance, row)``.  Inside the array's
        screen band (:meth:`MCAMArray.in_screen_band`: large stores at small
        ``k``, any batch size) :meth:`MCAMArray.screened_top_k` returns that
        ranking, bitwise, from float32 estimates and a cell-order re-sum of
        the few rows they leave, without summing every row in float64;
        elsewhere every row is summed
        (:meth:`MCAMArray.row_conductances_batch`) and the ``k`` smallest
        are selected without a full sort.  A non-ideal sense amplifier
        always senses the full conductance matrix, since its noise draws
        cover every row.
        """
        array = self._require_array()
        query_states = self.quantizer._quantize_checked(queries)
        ideal = type(array.sense_amplifier) is IdealWinnerTakeAll
        if ideal and array.in_screen_band(k):
            return array.screened_top_k(query_states, k)
        conductances = array.row_conductances_batch(query_states)
        if ideal:
            indices = _stable_smallest_k(conductances, k)
        else:
            indices = sense_all(array.sense_amplifier, conductances, rng=rng).rankings[:, :k]
        return indices, np.take_along_axis(conductances, indices, axis=1)

    @property
    def array(self) -> MCAMArray:
        """The underlying MCAM array (available after :meth:`fit`)."""
        self._require_fitted()
        return self._require_array()


class TCAMLSHSearcher(NearestNeighborSearcher):
    """The TCAM+LSH baseline: Hamming distance over LSH signatures.

    Query batches are encoded to signatures in one projection and searched
    against the programmed TCAM in one vectorized Hamming pass.

    Parameters
    ----------
    num_bits:
        Signature length in bits.  For the iso-word-length comparison of the
        paper this equals the number of MCAM cells (e.g. 64); the original
        TCAM work used 512.
    seed:
        Randomness for the LSH hyperplanes.
    max_rows:
        Optional physical row count of the TCAM; stores larger than this
        raise a :class:`~repro.exceptions.CapacityError`.
    """

    def __init__(
        self,
        num_bits: int,
        seed: SeedLike = None,
        max_rows: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.num_bits = check_int_in_range(num_bits, "num_bits", minimum=1)
        self.max_rows = max_rows
        self._rng = ensure_rng(seed)
        self.encoder = RandomHyperplaneLSH(num_bits=self.num_bits, seed=self._rng)
        self._calibrated = False
        self._tcam: Optional[TCAMArray] = None

    def _calibrate(self, features: np.ndarray) -> None:
        # Fitting the encoder on the full store freezes its centering mean,
        # so every shard produces the same signatures as one unsharded TCAM.
        self.encoder._fit_checked(features)
        self._calibrated = True

    def adopt_calibration(self, source: "NearestNeighborSearcher") -> bool:
        if (
            isinstance(source, TCAMLSHSearcher)
            and source._calibrated
            and source.num_bits == self.num_bits
        ):
            # The encoder is read-only during search, so sharing the fitted
            # instance across shards is safe.
            self.encoder = source.encoder
            self._calibrated = True
            return True
        return False

    def calibration_token(self) -> Any:
        if not self._calibrated:
            return None
        return self.encoder.calibration_token()

    def _fit(self, features: np.ndarray, labels: Optional[np.ndarray]) -> None:
        if not self._calibrated:
            self.encoder._fit_checked(features)
        signatures = self.encoder._encode_checked(features)
        label_list = None if labels is None else list(labels)
        if self._tcam is not None and self._tcam.num_cells == self.num_bits:
            # Refit: delta-reprogram the programmed TCAM; unchanged signature
            # rows keep their cached Hamming kernel slices.
            self._tcam.reprogram(signatures, labels=label_list)
        else:
            self._tcam = TCAMArray(num_cells=self.num_bits, max_rows=self.max_rows)
            self._tcam.write(signatures, labels=label_list)

    def _require_tcam(self) -> TCAMArray:
        if self._tcam is None:
            raise SearchError("searcher must be fitted before searching")
        return self._tcam

    def _rank_batch(
        self, queries: np.ndarray, rng: np.random.Generator, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        tcam = self._require_tcam()
        signatures = self.encoder._encode_checked(queries)
        distances = tcam.hamming_distances_batch(signatures)
        amplifier = tcam.sense_amplifier
        if type(amplifier) is IdealWinnerTakeAll:
            # Row conductance is strictly increasing in Hamming distance, so
            # ranking the integer distances reproduces ideal ML sensing.
            indices = _stable_smallest_k(distances, k)
        else:
            conductances = tcam._conductances_from_distances(distances)
            indices = sense_all(amplifier, conductances, rng=rng).rankings[:, :k]
        scores = np.take_along_axis(distances, indices, axis=1).astype(np.float64)
        return indices, scores

    @property
    def tcam(self) -> TCAMArray:
        """The underlying TCAM array (available after :meth:`fit`)."""
        self._require_fitted()
        return self._require_tcam()


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
#: Factory signature: ``factory(num_features, bits=..., lut=..., variation=...,
#: lsh_bits=..., seed=...) -> NearestNeighborSearcher``.  Factories receive
#: every keyword :func:`make_searcher` accepts and use the ones they need.
BackendFactory = Callable[..., NearestNeighborSearcher]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: Optional[BackendFactory] = None) -> Any:
    """Register a searcher factory under ``name`` (usable as a decorator).

    Parameters
    ----------
    name:
        Backend name (matched case-insensitively by :func:`get_backend`).
    factory:
        Callable ``factory(num_features, **config)`` returning a fresh
        :class:`NearestNeighborSearcher`.  When omitted, the function
        returns a decorator.

    Raises
    ------
    SearchError
        If ``name`` is already registered.
    """

    def _register(fn: BackendFactory) -> BackendFactory:
        key = name.lower()
        if key in _BACKENDS:
            raise SearchError(f"search backend {name!r} is already registered")
        _BACKENDS[key] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def get_backend(name: str) -> BackendFactory:
    """Look up a registered backend factory by name.

    Besides the registered names, the compound form ``"sharded(<backend>)"``
    (e.g. ``"sharded(mcam-3bit)"``) resolves to a factory that partitions the
    store across multiple fixed-capacity arrays of the named backend and
    merges per-shard results into exact global top-k — see
    :class:`~repro.core.sharding.ShardedSearcher`.  The factory honours the
    ``shards``, ``max_rows_per_array``, ``executor`` and ``num_workers``
    keywords of :func:`make_searcher`.

    Raises
    ------
    SearchError
        If ``name`` is not a registered backend.
    """
    key = name.lower().strip()
    if key.startswith("sharded(") and key.endswith(")"):
        inner = key[len("sharded("):-1].strip()
        return _sharded_backend_factory(get_backend(inner))
    try:
        return _BACKENDS[key]
    except KeyError:
        raise SearchError(
            f"unknown searcher {name!r}; available backends: "
            f"{', '.join(available_backends())} (any of them also as 'sharded(<name>)')"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Names of all registered search backends, sorted."""
    return tuple(sorted(_BACKENDS))


@register_backend("cosine")
def _make_cosine(num_features: int, **config: Any) -> SoftwareSearcher:
    return SoftwareSearcher(metric="cosine")


@register_backend("euclidean")
def _make_euclidean(num_features: int, **config: Any) -> SoftwareSearcher:
    return SoftwareSearcher(metric="euclidean")


@register_backend("manhattan")
def _make_manhattan(num_features: int, **config: Any) -> SoftwareSearcher:
    return SoftwareSearcher(metric="manhattan")


@register_backend("linf")
def _make_linf(num_features: int, **config: Any) -> SoftwareSearcher:
    return SoftwareSearcher(metric="linf")


@register_backend("mcam")
def _make_mcam(
    num_features: int,
    bits: int = 3,
    lut: Optional[ConductanceLUT] = None,
    variation: Optional[VariationModel] = None,
    seed: SeedLike = None,
    max_rows_per_array: Optional[int] = None,
    program_seed: Optional[int] = None,
    **config: Any,
) -> MCAMSearcher:
    return MCAMSearcher(
        bits=bits,
        lut=lut,
        variation=variation,
        seed=seed,
        max_rows=max_rows_per_array,
        program_seed=program_seed,
    )


@register_backend("mcam-3bit")
def _make_mcam_3bit(num_features: int, **config: Any) -> MCAMSearcher:
    return _make_mcam(num_features, **{**config, "bits": 3})


@register_backend("mcam-2bit")
def _make_mcam_2bit(num_features: int, **config: Any) -> MCAMSearcher:
    return _make_mcam(num_features, **{**config, "bits": 2})


def _make_tcam_lsh(
    num_features: int,
    lsh_bits: Optional[int] = None,
    seed: SeedLike = None,
    max_rows_per_array: Optional[int] = None,
    **config: Any,
) -> TCAMLSHSearcher:
    signature_bits = lsh_bits if lsh_bits is not None else num_features
    return TCAMLSHSearcher(num_bits=signature_bits, seed=seed, max_rows=max_rows_per_array)


register_backend("tcam-lsh", _make_tcam_lsh)
register_backend("tcam+lsh", _make_tcam_lsh)
register_backend("tcam", _make_tcam_lsh)


def _sharded_backend_factory(inner_factory: BackendFactory) -> BackendFactory:
    """Wrap a backend factory so it builds a :class:`ShardedSearcher`.

    The returned factory consumes the sharding keywords (``shards``,
    ``max_rows_per_array``, ``executor``, ``num_workers``) and forwards
    everything else — including ``max_rows_per_array``, which bounds each
    shard's physical array — to ``inner_factory``, one call per shard.

    Seeding: shard 0 receives the caller's seed (concretized when ``None``)
    so its data-dependent preprocessing reproduces the unsharded engine
    bitwise; later shards receive seeds derived per shard index, so
    per-array randomness such as device-variation sampling is independent
    across physical arrays — as it would be in real silicon.  Shared
    data-independent state (e.g. LSH hyperplanes) still comes from shard 0
    through the calibration-adoption path.
    """
    from .sharding import ShardedSearcher  # deferred: sharding imports this module

    def factory(num_features: int, **config: Any) -> NearestNeighborSearcher:
        shards = config.pop("shards", None)
        executor = config.pop("executor", "serial")
        num_workers = config.pop("num_workers", None)
        appendable = config.pop("appendable", False)
        max_rows_per_array = config.get("max_rows_per_array")
        base_seed = config.get("seed")
        if not isinstance(base_seed, (int, np.integer)):
            # None, Generator or SeedSequence: concretize to one integer so
            # per-shard seeds can be derived deterministically from it.
            base_seed = int(ensure_rng(base_seed).integers(2**31 - 1))
        base_seed = int(base_seed)

        def make_shard(shard_index: int) -> NearestNeighborSearcher:
            shard_config = dict(config)
            if shard_index == 0:
                shard_config["seed"] = base_seed
            else:
                shard_config["seed"] = int(
                    np.random.default_rng([base_seed, shard_index]).integers(2**31 - 1)
                )
            return inner_factory(num_features, **shard_config)

        make_shard.shard_aware = True  # type: ignore[attr-defined]
        return ShardedSearcher(
            make_shard,
            num_shards=shards,
            max_rows_per_array=max_rows_per_array,
            executor=executor,
            num_workers=num_workers,
            appendable=appendable,
        )

    factory._is_sharded_factory = True  # type: ignore[attr-defined]
    return factory


def make_searcher(
    name: str,
    num_features: int,
    bits: int = 3,
    lut: Optional[ConductanceLUT] = None,
    variation: Optional[VariationModel] = None,
    lsh_bits: Optional[int] = None,
    seed: SeedLike = None,
    shards: Optional[int] = None,
    max_rows_per_array: Optional[int] = None,
    executor: str = "serial",
    num_workers: Optional[int] = None,
    program_seed: Optional[int] = None,
    appendable: bool = False,
) -> NearestNeighborSearcher:
    """Factory for the engines compared in the paper's figures.

    ``name`` is resolved through the backend registry; the built-in backends
    are ``"cosine"``, ``"euclidean"``, ``"manhattan"``, ``"linf"``,
    ``"mcam"`` (uses ``bits``), ``"mcam-3bit"``, ``"mcam-2bit"`` and
    ``"tcam-lsh"``.  ``num_features`` sets the iso-word-length LSH signature
    size when ``lsh_bits`` is not given.  Additional backends registered via
    :func:`register_backend` are resolved the same way.

    Sharded multi-array execution is requested either through the compound
    name ``"sharded(<backend>)"`` or by passing ``shards=`` (a fixed shard
    count) or ``max_rows_per_array=`` (fixed-geometry arrays, the shard
    count following from the store size).  ``executor`` picks the per-shard
    execution strategy (``"serial"`` or ``"processes"``, or an executor
    instance shared with other searchers) and ``num_workers`` bounds the
    worker pool.  Sharded results are bitwise identical to the unsharded
    backend for the deterministic (ideal-sensing) engines.

    ``appendable=True`` builds a sharded searcher that retains its fitted
    store so :meth:`~repro.core.sharding.ShardedSearcher.append` can grow it
    live: new rows route to the least-full shard, in-range rows program
    only themselves and other rows refit through the delta-reprogramming
    path, and the served results stay bitwise identical to a from-scratch
    refit of the combined store.
    """
    factory = get_backend(name)
    if (shards is not None or max_rows_per_array is not None) and not getattr(
        factory, "_is_sharded_factory", False
    ):
        factory = _sharded_backend_factory(factory)
    if not getattr(factory, "_is_sharded_factory", False) and (
        executor != "serial" or num_workers is not None or appendable
    ):
        raise SearchError(
            "executor/num_workers/appendable apply only to sharded execution; pass "
            "shards= or max_rows_per_array=, or use a 'sharded(<backend>)' name"
        )
    return factory(
        num_features,
        bits=bits,
        lut=lut,
        variation=variation,
        lsh_bits=lsh_bits,
        seed=seed,
        shards=shards,
        max_rows_per_array=max_rows_per_array,
        executor=executor,
        num_workers=num_workers,
        program_seed=program_seed,
        appendable=appendable,
    )
