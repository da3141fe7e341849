"""Threshold-voltage variation sweep (Fig. 8 of the paper).

Fig. 8 plots few-shot accuracy of the 3-bit MCAM as the sigma of the FeFET
V_th distributions is swept from 0 mV to 300 mV.  The paper's key finding is
that accuracy does not degrade up to ~80 mV — the largest sigma its
Monte-Carlo device study produced — and only falls off for much larger,
hypothetical variation levels.

The sweep here follows the paper's methodology: for each sigma, Gaussian
V_th noise is injected into the conductance look-up table (a fresh varied
table per episode batch), the MCAM searcher is rebuilt around that table and
the few-shot tasks are re-evaluated on episodes shared across sigma values.

Every ``(task, sigma, LUT)`` evaluation is one self-contained Monte-Carlo
trial carrying its own RNG stream, dispatched through the parallel
experiment runtime (:mod:`repro.runtime`): with ``executor="processes"`` the
sweep fans out across worker processes and still produces **bitwise
identical** sweep points at any worker count, because the streams are
spawned in a fixed order before dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng, spawn_rngs
from ..utils.validation import check_bits, check_int_in_range
from ..circuits.conductance_lut import build_varied_lut
from ..core.search import MCAMSearcher
from ..datasets.omniglot import SyntheticEmbeddingSpace
from ..devices.variation import GaussianVthVariationModel
from ..mann.fewshot import FewShotEvaluator
from ..runtime import resolve_trial_runner

#: Sigma values (in volts) swept in Fig. 8: 0 mV to 300 mV.  The 80 mV point
#: (the largest sigma observed in the Fig. 5 device study) is included so the
#: robustness claim can be checked at exactly that operating point.
PAPER_SIGMA_SWEEP_V = (0.0, 0.05, 0.08, 0.10, 0.15, 0.20, 0.25, 0.30)


@dataclass(frozen=True)
class VariationSweepPoint:
    """Few-shot accuracy of the MCAM at one variation level."""

    sigma_v: float
    n_way: int
    k_shot: int
    accuracy_percent: float

    @property
    def sigma_mv(self) -> float:
        """Sigma in millivolts, as labeled on the paper's x-axis."""
        return 1e3 * self.sigma_v


@dataclass(frozen=True)
class VariationSweepResult:
    """Full Fig. 8 sweep: accuracy versus sigma for each task."""

    points: Tuple[VariationSweepPoint, ...]
    bits: int

    def series(self, n_way: int, k_shot: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sigmas_mv, accuracies_percent)`` for one task configuration."""
        selected = [
            p for p in self.points if p.n_way == n_way and p.k_shot == k_shot
        ]
        if not selected:
            raise ConfigurationError(
                f"no sweep points for the {n_way}-way {k_shot}-shot task"
            )
        selected.sort(key=lambda p: p.sigma_v)
        return (
            np.array([p.sigma_mv for p in selected]),
            np.array([p.accuracy_percent for p in selected]),
        )

    def accuracy_drop_at(self, sigma_v: float, n_way: int, k_shot: int) -> float:
        """Accuracy loss (percentage points) at ``sigma_v`` relative to sigma=0."""
        sigmas, accuracies = self.series(n_way, k_shot)
        reference = accuracies[np.argmin(np.abs(sigmas - 0.0))]
        at_sigma = accuracies[np.argmin(np.abs(sigmas - 1e3 * sigma_v))]
        return float(reference - at_sigma)

    def as_records(self):
        """Table-friendly records of every sweep point."""
        return [
            {
                "sigma_mv": point.sigma_mv,
                "task": f"{point.n_way}-way {point.k_shot}-shot",
                "accuracy_percent": point.accuracy_percent,
            }
            for point in self.points
        ]


class VariationSweep:
    """Runs the Fig. 8 sigma sweep for a set of few-shot tasks.

    Parameters
    ----------
    space:
        Embedding space the episodes are drawn from.
    tasks:
        Sequence of ``(n_way, k_shot)`` pairs (defaults to the paper's four).
    sigmas_v:
        Variation levels to sweep.
    num_episodes:
        Episodes per (task, sigma) point.
    bits:
        MCAM precision (3 in the paper's Fig. 8).
    luts_per_sigma:
        Number of independently varied look-up tables averaged per sigma;
        each models a different physical array instance.
    executor:
        Trial-dispatch strategy: ``"serial"`` (the reference path) or
        ``"processes"``.  Every ``(task, sigma, LUT)`` trial carries its own
        pre-spawned RNG stream, so process dispatch produces
        bitwise-identical sweep points at any worker count.
    num_workers:
        Worker bound for the process pool; defaults to the CPU count.
    """

    def __init__(
        self,
        space: SyntheticEmbeddingSpace,
        tasks: Sequence[Tuple[int, int]] = ((5, 1), (5, 5), (20, 1), (20, 5)),
        sigmas_v: Sequence[float] = PAPER_SIGMA_SWEEP_V,
        num_episodes: int = 30,
        bits: int = 3,
        luts_per_sigma: int = 3,
        executor: str = "serial",
        num_workers: Optional[int] = None,
    ) -> None:
        self.space = space
        self.tasks = tuple(tasks)
        if not self.tasks:
            raise ConfigurationError("at least one task configuration is required")
        self.sigmas_v = tuple(float(s) for s in sigmas_v)
        if not self.sigmas_v:
            raise ConfigurationError("at least one sigma value is required")
        if any(s < 0 for s in self.sigmas_v):
            raise ConfigurationError("sigma values must be non-negative")
        self.num_episodes = check_int_in_range(num_episodes, "num_episodes", minimum=1)
        self.bits = check_bits(bits)
        self.luts_per_sigma = check_int_in_range(luts_per_sigma, "luts_per_sigma", minimum=1)
        self.executor = executor
        self.num_workers = num_workers
        # One persistent runner for the sweep's lifetime (also validates the
        # executor name eagerly, not in the middle of a sweep): pooled
        # workers stay warm across run() calls and are released by close(),
        # a `with` block, or — as a safety net — a pool finalizer at garbage
        # collection / interpreter exit.
        self._runner = resolve_trial_runner(executor, num_workers=num_workers)

    def close(self) -> None:
        """Release the sweep's trial runner (idempotent)."""
        self._runner.close()

    def __enter__(self) -> "VariationSweep":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def trials(self, rng: SeedLike = None) -> Tuple["_VariationTrial", ...]:
        """The sweep's Monte-Carlo work units, with pre-spawned RNG streams.

        Streams are spawned from ``rng`` in a fixed (task-major, sigma-minor)
        order — the exact consumption order of the serial loop — which is
        what makes the dispatched results independent of where the trials
        execute.
        """
        generator = ensure_rng(rng)
        units = []
        for n_way, k_shot in self.tasks:
            for sigma in self.sigmas_v:
                for lut_rng in spawn_rngs(generator, self.luts_per_sigma):
                    units.append(
                        _VariationTrial(
                            space=self.space,
                            n_way=n_way,
                            k_shot=k_shot,
                            sigma_v=sigma,
                            bits=self.bits,
                            num_episodes=self.num_episodes,
                            rng=lut_rng,
                        )
                    )
        return tuple(units)

    def run(self, rng: SeedLike = None) -> VariationSweepResult:
        """Execute the sweep and collect accuracy-versus-sigma points."""
        units = self.trials(rng)
        accuracies = self._runner.map(_run_variation_trial, units)
        points = []
        per_point = self.luts_per_sigma
        for start in range(0, len(units), per_point):
            trial = units[start]
            points.append(
                VariationSweepPoint(
                    sigma_v=trial.sigma_v,
                    n_way=trial.n_way,
                    k_shot=trial.k_shot,
                    accuracy_percent=float(np.mean(accuracies[start : start + per_point])),
                )
            )
        return VariationSweepResult(points=tuple(points), bits=self.bits)


@dataclass(frozen=True)
class _VariationTrial:
    """One self-contained ``(task, sigma, LUT)`` Monte-Carlo work unit."""

    space: SyntheticEmbeddingSpace
    n_way: int
    k_shot: int
    sigma_v: float
    bits: int
    num_episodes: int
    rng: np.random.Generator


def _run_variation_trial(trial: _VariationTrial) -> float:
    """Evaluate one varied LUT on one task (module-level: process-shippable).

    Consumes the trial's private stream in the same order the serial sweep
    always has — LUT variation draws first, then episode sampling — so the
    result is a pure function of the trial unit.
    """
    variation = GaussianVthVariationModel(sigma_v=trial.sigma_v)
    lut = build_varied_lut(bits=trial.bits, variation=variation, rng=trial.rng)
    with FewShotEvaluator(
        trial.space,
        n_way=trial.n_way,
        k_shot=trial.k_shot,
        num_episodes=trial.num_episodes,
    ) as evaluator:
        result = evaluator.evaluate(
            searcher_factory=lambda: MCAMSearcher(bits=trial.bits, lut=lut),
            method_name=f"mcam-{trial.bits}bit",
            rng=trial.rng,
        )
    return result.accuracy_percent
