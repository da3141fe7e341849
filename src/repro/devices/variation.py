"""Device-to-device threshold-voltage variation models.

Sec. III-C of the paper studies how FeFET V_th variation affects the MCAM
distance function.  Two models are provided:

* :class:`DomainSwitchingVariationModel` — a Monte-Carlo model in the spirit
  of Deng et al. (the paper's reference [15]): the ferroelectric layer is a
  finite number of independently switching domains, so the switched
  polarization (and therefore V_th) of a programmed device is binomially
  distributed.  The spread is largest for the intermediate states (switching
  probability near 0.5) and small for the fully erased/programmed states,
  which matches the state-dependent widths visible in Fig. 5.  An additional
  geometric-mismatch term models non-polarization sources of variation.

* :class:`GaussianVthVariationModel` — the simplified model the paper uses
  for the application-level studies of Sec. IV-C: V_th of every state is
  perturbed by a zero-mean Gaussian with a single sigma (swept from 0 mV to
  300 mV in Fig. 8).

Both expose the same ``sample_vth`` interface so programmers, look-up-table
builders and population studies can use either interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_non_negative, check_positive
from .fefet import FeFETParameters

#: Nominal lateral size of one ferroelectric domain/grain in the HfO2 layer.
#: With 40 nm grains a 250 nm x 250 nm device holds ~39 domains, which gives
#: the up-to-80 mV intermediate-state sigma reported in the paper's Fig. 5.
DEFAULT_DOMAIN_SIZE_NM = 40.0

#: Baseline (state-independent) V_th mismatch from geometry/charge traps.
DEFAULT_BASELINE_SIGMA_V = 0.02

#: Largest per-state sigma observed in the paper's Monte-Carlo study (80 mV).
PAPER_MAX_SIGMA_V = 0.080


class VariationModel(Protocol):
    """Protocol for threshold-voltage variation models.

    A model whose draw does not depend on the stored state may also provide
    ``vth_offsets(shape, rng)``: the zero-mean perturbations that
    ``sample_vth`` adds to a nominal array of ``shape``, drawn from ``rng``
    exactly as ``sample_vth`` draws them (see
    :meth:`GaussianVthVariationModel.vth_offsets`).  Row-keyed device
    programming (:meth:`repro.circuits.mcam_array.MCAMArray.reprogram`)
    then draws each row's offsets once per base seed and reuses them; a
    model without it (:class:`DomainSwitchingVariationModel`, whose
    binomial draw depends on the state) is sampled row by row every time.
    """

    def sigma_for_vth(self, nominal_vth_v: float) -> float:
        """Standard deviation of V_th around ``nominal_vth_v``."""
        ...

    def sample_vth(self, nominal_vth_v, rng: SeedLike = None):
        """Sample varied threshold voltage(s) around ``nominal_vth_v``."""
        ...


@dataclass(frozen=True)
class GaussianVthVariationModel:
    """State-independent Gaussian V_th variation (paper Sec. IV-C, Fig. 8).

    Attributes
    ----------
    sigma_v:
        Standard deviation of the threshold-voltage perturbation in volts.
    """

    sigma_v: float

    def __post_init__(self) -> None:
        check_non_negative(self.sigma_v, "sigma_v")

    def sigma_for_vth(self, nominal_vth_v: float) -> float:
        """Sigma is independent of the programmed state."""
        return self.sigma_v

    def vth_offsets(self, shape, rng: SeedLike = None) -> np.ndarray:
        """Zero-mean Gaussian V_th perturbations of ``shape`` (zeros at sigma 0).

        The state-independent half of :meth:`sample_vth`: the sample of a
        nominal array is that array plus ``vth_offsets(nominal.shape, rng)``
        drawn from the same generator.
        """
        generator = ensure_rng(rng)
        if self.sigma_v == 0.0:
            return np.zeros(shape)
        return generator.normal(0.0, self.sigma_v, size=shape)

    def sample_vth(self, nominal_vth_v, rng: SeedLike = None):
        """Add zero-mean Gaussian noise with ``sigma_v`` to the nominal V_th."""
        nominal = np.asarray(nominal_vth_v, dtype=np.float64)
        sample = nominal + self.vth_offsets(nominal.shape, rng)
        if np.ndim(nominal_vth_v) == 0:
            return float(sample)
        return sample


class DomainSwitchingVariationModel:
    """Monte-Carlo domain-switching variation (paper reference [15]).

    The programmed V_th encodes the fraction of switched ferroelectric
    domains.  With ``n`` independent domains each switching with probability
    ``p`` (determined by the nominal state), the achieved fraction is
    ``Binomial(n, p)/n``, so its standard deviation is
    ``sqrt(p (1-p) / n)`` — maximal for intermediate states.  The resulting
    V_th spread is that fraction times the memory window, plus an additive
    baseline mismatch term.

    Parameters
    ----------
    device:
        FeFET parameters (geometry and memory window).
    domain_size_nm:
        Lateral size of one ferroelectric domain.
    baseline_sigma_v:
        State-independent additive mismatch.
    """

    def __init__(
        self,
        device: Optional[FeFETParameters] = None,
        domain_size_nm: float = DEFAULT_DOMAIN_SIZE_NM,
        baseline_sigma_v: float = DEFAULT_BASELINE_SIGMA_V,
    ) -> None:
        self.device = device if device is not None else FeFETParameters()
        self.domain_size_nm = check_positive(domain_size_nm, "domain_size_nm")
        self.baseline_sigma_v = check_non_negative(baseline_sigma_v, "baseline_sigma_v")

    @property
    def num_domains(self) -> int:
        """Number of independently switching domains in the device."""
        area_nm2 = self.device.width_nm * self.device.length_nm
        count = int(round(area_nm2 / self.domain_size_nm**2))
        return max(count, 1)

    def _switched_probability(self, nominal_vth_v: float) -> float:
        window = self.device.memory_window_v
        fraction = (self.device.vth_high_v - nominal_vth_v) / window
        return float(np.clip(fraction, 0.0, 1.0))

    def sigma_for_vth(self, nominal_vth_v: float) -> float:
        """Analytical sigma of V_th for a device programmed near a nominal V_th."""
        p = self._switched_probability(float(nominal_vth_v))
        binomial_sigma_fraction = np.sqrt(p * (1.0 - p) / self.num_domains)
        polarization_sigma_v = binomial_sigma_fraction * self.device.memory_window_v
        return float(np.sqrt(polarization_sigma_v**2 + self.baseline_sigma_v**2))

    def sample_vth(self, nominal_vth_v, rng: SeedLike = None):
        """Sample varied V_th value(s) via explicit domain-switching draws."""
        generator = ensure_rng(rng)
        nominal = np.asarray(nominal_vth_v, dtype=np.float64)
        scalar_input = np.ndim(nominal_vth_v) == 0
        nominal = np.atleast_1d(nominal)
        window = self.device.memory_window_v
        high = self.device.vth_high_v
        n = self.num_domains

        probabilities = np.clip((high - nominal) / window, 0.0, 1.0)
        switched = generator.binomial(n, probabilities) / n
        vth = high - switched * window
        if self.baseline_sigma_v > 0.0:
            vth = vth + generator.normal(0.0, self.baseline_sigma_v, size=vth.shape)
        if scalar_input:
            return float(vth[0])
        return vth

    def max_sigma_v(self) -> float:
        """Largest sigma over the programmable window (at the mid-window state)."""
        mid = 0.5 * (self.device.vth_low_v + self.device.vth_high_v)
        return self.sigma_for_vth(mid)


def variation_from_sigma(sigma_v: float) -> GaussianVthVariationModel:
    """Convenience constructor used by the Fig. 8 sigma sweep."""
    return GaussianVthVariationModel(sigma_v=sigma_v)


def check_variation_model(model) -> None:
    """Validate that ``model`` exposes the :class:`VariationModel` protocol."""
    for attribute in ("sigma_for_vth", "sample_vth"):
        if not callable(getattr(model, attribute, None)):
            raise ConfigurationError(
                f"variation model {model!r} must provide a callable '{attribute}'"
            )
