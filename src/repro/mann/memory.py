"""Memory module of the memory-augmented neural network (MANN).

"MANNs are comprised of a neural network for feature extraction and a memory
module for storing and loading features ... The memory module holds the
features of trained classes which can be used to classify previously unseen
images" (Sec. IV-C).  The memory module here is deliberately small: it stores
support embeddings together with their labels and answers queries through a
pluggable nearest-neighbor searcher, which is precisely where the paper swaps
the GPU distance computation for the MCAM or the TCAM+LSH engine.

Two read-out policies are provided:

* ``"nearest"`` — the label of the single nearest stored entry (what a CAM
  returns natively and what the paper evaluates),
* ``"prototype"`` — class prototypes (per-class mean embeddings) are stored
  instead of the individual shots, the standard Prototypical-Networks-style
  variant; it is exposed so ablations can compare both options.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SearchError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_choice, check_feature_matrix
from ..core.search import NearestNeighborSearcher, SoftwareSearcher

#: Factory signature: called with no arguments, returns a fresh searcher.
SearcherFactory = Callable[[], NearestNeighborSearcher]


class MANNMemory:
    """Key-value memory answering class queries by nearest-neighbor search.

    Parameters
    ----------
    searcher_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.core.search.NearestNeighborSearcher`; called every
        time the memory is (re)written.  Defaults to the FP32 cosine
        software searcher.  A sharded factory, such as
        ``partial(make_searcher, "mcam-3bit", dim, shards=3,
        executor="processes")``, spreads the support set across arrays.
    readout:
        ``"nearest"`` (store every support embedding) or ``"prototype"``
        (store per-class mean embeddings).
    reuse_searcher:
        When True, the factory is called once and subsequent writes refit
        the same searcher instead of building a fresh one — the episodic
        workload of the few-shot harness, where one physical CAM is simply
        reprogrammed per episode.
    """

    def __init__(
        self,
        searcher_factory: Optional[SearcherFactory] = None,
        readout: str = "nearest",
        reuse_searcher: bool = False,
    ) -> None:
        if searcher_factory is None:
            searcher_factory = lambda: SoftwareSearcher(metric="cosine")  # noqa: E731
        self.searcher_factory = searcher_factory
        self.readout = check_choice(readout, "readout", ("nearest", "prototype"))
        self.reuse_searcher = bool(reuse_searcher)
        self._searcher: Optional[NearestNeighborSearcher] = None
        self._num_entries = 0

    @property
    def is_written(self) -> bool:
        """Whether support data has been written to the memory."""
        return self._searcher is not None

    @property
    def num_entries(self) -> int:
        """Number of entries currently stored (shots or prototypes)."""
        return self._num_entries

    @property
    def searcher(self) -> NearestNeighborSearcher:
        """The underlying searcher (available once written)."""
        if self._searcher is None:
            raise SearchError("memory has not been written yet")
        return self._searcher

    def write(self, support_embeddings, support_labels: Sequence[int]) -> "MANNMemory":
        """Store the support set (one-time programming of the CAM).

        With the ``"prototype"`` read-out the per-class means are stored
        instead of the raw embeddings.
        """
        embeddings = check_feature_matrix(support_embeddings, "support_embeddings")
        labels = np.asarray(support_labels)
        if labels.ndim != 1 or labels.shape[0] != embeddings.shape[0]:
            raise ConfigurationError(
                f"support_labels must have one entry per embedding, got {labels.shape} "
                f"for {embeddings.shape[0]} embeddings"
            )
        if self.readout == "prototype":
            classes = np.unique(labels)
            # A mean of finite rows can still overflow, so the derived
            # prototypes are checked like any input.
            embeddings = check_feature_matrix(
                np.stack([embeddings[labels == c].mean(axis=0) for c in classes]),
                "support_embeddings",
            )
            labels = classes
        if self._searcher is None or not self.reuse_searcher:
            self._release_searcher()
            self._searcher = self.searcher_factory()
        # Checked above: the searcher and its quantizer or encoder do not
        # scan the episode's rows for non-finite values again.
        self._searcher._fit_checked(embeddings, labels)
        self._num_entries = embeddings.shape[0]
        return self

    def _release_searcher(self) -> None:
        """Free executor resources (e.g. a shard worker pool) before dropping."""
        close = getattr(self._searcher, "close", None)
        if close is not None:
            close()

    def classify(self, query_embeddings, rng: SeedLike = None) -> np.ndarray:
        """Label of the nearest stored entry for each query embedding.

        The whole query batch is classified in one vectorized search over
        the programmed memory, which is how a CAM serves an episode: program
        the support set once, then stream every query through it.
        """
        if self._searcher is None:
            raise SearchError("memory must be written before it can be queried")
        queries = check_feature_matrix(query_embeddings, "query_embeddings")
        return self._searcher._predict_batch(queries, ensure_rng(rng), finite_checked=True)

    def clear(self) -> None:
        """Forget the stored support set."""
        self._release_searcher()
        self._searcher = None
        self._num_entries = 0
