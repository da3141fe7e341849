"""Fig. 8: few-shot accuracy of the 3-bit MCAM under Vth variation."""

from __future__ import annotations

import numpy as np

from ..utils.rng import DEFAULT_EXPERIMENT_SEED, SeedLike, ensure_rng
from ..analysis.variation_study import PAPER_SIGMA_SWEEP_V, VariationSweep
from ..datasets.omniglot import SyntheticEmbeddingSpace
from ..devices.variation import PAPER_MAX_SIGMA_V
from .registry import ExperimentResult, register_experiment


@register_experiment(
    "fig8",
    "Fig. 8: few-shot accuracy of the 3-bit MCAM versus Vth-variation sigma",
)
def run(
    quick: bool = True,
    seed: SeedLike = DEFAULT_EXPERIMENT_SEED,
    executor: str = "serial",
    num_workers: int = None,
) -> ExperimentResult:
    """Sweep the Gaussian Vth sigma from 0 mV to 300 mV and re-evaluate accuracy.

    The summary checks the paper's claim that accuracy is unaffected up to
    the 80 mV sigma observed in the device study.

    ``executor`` dispatches the sweep's Monte-Carlo trials through the
    parallel experiment runtime (``"serial"`` or ``"processes"``); every
    trial carries a pre-spawned RNG stream, so the figure is bitwise
    identical at any worker count.
    """
    generator = ensure_rng(seed)
    space = SyntheticEmbeddingSpace(seed=generator.integers(2**31 - 1))
    if quick:
        tasks = ((5, 1), (20, 1))
        sigmas = (0.0, 0.08, 0.15, 0.30)
        num_episodes = 12
        luts_per_sigma = 2
    else:
        tasks = ((5, 1), (5, 5), (20, 1), (20, 5))
        sigmas = PAPER_SIGMA_SWEEP_V
        num_episodes = 100
        luts_per_sigma = 5

    # The `with` block shuts the sweep's worker pool down even when a trial
    # raises, instead of leaking processes until interpreter exit.
    with VariationSweep(
        space,
        tasks=tasks,
        sigmas_v=sigmas,
        num_episodes=num_episodes,
        luts_per_sigma=luts_per_sigma,
        executor=executor,
        num_workers=num_workers,
    ) as sweep:
        result = sweep.run(rng=generator)

    drops_at_80mv = [
        result.accuracy_drop_at(PAPER_MAX_SIGMA_V, n_way, k_shot) for n_way, k_shot in tasks
    ]
    drops_at_max = [
        result.accuracy_drop_at(max(sigmas), n_way, k_shot) for n_way, k_shot in tasks
    ]
    summary = {
        "max_accuracy_drop_at_80mv_percent": float(np.max(drops_at_80mv)),
        "mean_accuracy_drop_at_80mv_percent": float(np.mean(drops_at_80mv)),
        "max_accuracy_drop_at_300mv_percent": float(np.max(drops_at_max)),
        # The paper reports no accuracy loss up to the 80 mV sigma of its
        # device study; we check that the loss averaged over the evaluated
        # tasks stays below two points (the hardest task, 20-way 1-shot, is
        # slightly more sensitive in this reproduction).
        "robust_up_to_80mv": bool(np.mean(drops_at_80mv) < 2.0),
        "num_episodes": num_episodes,
    }
    return ExperimentResult(
        experiment_id="fig8",
        title="Few-shot accuracy versus Vth-variation sigma (3-bit MCAM)",
        records=result.as_records(),
        summary=summary,
        metadata={
            "quick": quick,
            "sigmas_v": list(sigmas),
            "tasks": list(tasks),
            "executor": executor,
        },
    )
