"""Locality-sensitive hashing (LSH) for the TCAM+LSH baseline.

The TCAM approach of the paper's reference [3] cannot evaluate a useful
distance on real-valued features directly: "all the features of the
real-valued query and memory entries are transformed using an LSH algorithm
run on a GPU to create intermediate binary signatures", and the TCAM then
measures Hamming distances between signatures (Sec. IV-A).

The classic random-hyperplane (sign-random-projection) LSH of Charikar is
used: each signature bit is the sign of the projection of the (mean-centered)
feature vector onto a random Gaussian hyperplane.  The Hamming distance
between two signatures is then an unbiased estimate of the angle between the
original vectors, i.e. LSH+Hamming *approximates the cosine distance* — which
is exactly why the paper describes TCAM+LSH as an approximation of the cosine
metric and why it loses accuracy at short signature lengths (footnote 1: the
original work used 512-bit signatures; the iso-word-length comparison here
uses signatures as long as the number of MCAM cells, e.g. 64 bits).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_feature_matrix, check_int_in_range


class RandomHyperplaneLSH:
    """Sign-random-projection LSH encoder producing binary signatures.

    Parameters
    ----------
    num_bits:
        Signature length (number of random hyperplanes).
    center:
        Whether to subtract the mean of the fitting data before projecting.
        Centering spreads the signatures when all features are positive
        (common for post-ReLU CNN embeddings and UCI data).
    seed:
        Seed or generator controlling the random hyperplanes.
    """

    def __init__(self, num_bits: int, center: bool = True, seed: SeedLike = None) -> None:
        self.num_bits = check_int_in_range(num_bits, "num_bits", minimum=1)
        self.center = bool(center)
        self._rng = ensure_rng(seed)
        self._hyperplanes: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        """Whether the encoder has drawn its hyperplanes."""
        return self._hyperplanes is not None

    def fit(self, features) -> "RandomHyperplaneLSH":
        """Fit the encoder: draw hyperplanes, compute the centering mean.

        The hyperplanes depend only on the feature dimensionality, so they
        are drawn once and reused by subsequent ``fit`` calls of the same
        width (refitting a reused encoder on new data — e.g. one searcher
        serving many few-shot episodes — keeps the hash family stable and
        only refreshes the data-dependent centering mean).
        """
        return self._fit_checked(check_feature_matrix(features, "features"))

    def _fit_checked(self, features: np.ndarray) -> "RandomHyperplaneLSH":
        """:meth:`fit` on a matrix :func:`check_feature_matrix` already accepted."""
        num_features = features.shape[1]
        if self._hyperplanes is None or self._hyperplanes.shape[0] != num_features:
            self._hyperplanes = self._rng.normal(0.0, 1.0, size=(num_features, self.num_bits))
        self._mean = features.mean(axis=0) if self.center else np.zeros(num_features)
        return self

    def calibration_token(self):
        """Hashable fingerprint of the data-dependent encoder state.

        The hyperplanes are drawn once per feature width, so the centering
        mean is the only state that shifts when the encoder is refit on a
        grown store; comparing tokens tells callers (the sharded append
        path) whether previously encoded signatures are still valid.
        """
        if self._mean is None:
            return None
        return self._mean.tobytes()

    def encode(self, features) -> np.ndarray:
        """Binary signatures (0/1 matrix of shape ``(n, num_bits)``)."""
        if not self.is_fitted:
            raise ConfigurationError("LSH encoder must be fitted before encoding")
        return self._encode_checked(check_feature_matrix(features, "features"))

    def _encode_checked(self, features: np.ndarray) -> np.ndarray:
        """:meth:`encode` of a matrix :func:`check_feature_matrix` already accepted."""
        if features.shape[1] != self._hyperplanes.shape[0]:
            raise ConfigurationError(
                f"features have {features.shape[1]} dimensions but the encoder "
                f"was fitted with {self._hyperplanes.shape[0]}"
            )
        projections = (features - self._mean) @ self._hyperplanes
        return (projections >= 0.0).astype(np.int64)

    def fit_encode(self, features) -> np.ndarray:
        """Fit on ``features`` and return their signatures."""
        return self.fit(features).encode(features)

    def estimated_angle(self, signature_a, signature_b) -> float:
        """Angle (radians) between two original vectors estimated from signatures.

        The collision probability of random-hyperplane LSH is
        ``1 - theta / pi``, so ``theta ~= pi * hamming / num_bits``.
        """
        a = np.asarray(signature_a)
        b = np.asarray(signature_b)
        if a.shape != (self.num_bits,) or b.shape != (self.num_bits,):
            raise ConfigurationError(
                f"signatures must have shape ({self.num_bits},), got {a.shape} and {b.shape}"
            )
        hamming = float(np.count_nonzero(a != b))
        return np.pi * hamming / self.num_bits
