"""Fig. 7: one/few-shot learning accuracy on the Omniglot-like embedding space.

Every episode programs the memory once and classifies its full query batch
through the vectorized batch-search runtime; method names resolve through
the backend registry of :mod:`repro.core.search`.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import DEFAULT_EXPERIMENT_SEED, SeedLike, ensure_rng
from ..datasets.omniglot import SyntheticEmbeddingSpace
from ..mann.episodes import PAPER_FEWSHOT_TASKS
from ..mann.fewshot import FewShotEvaluator, default_method_factories
from .registry import ExperimentResult, register_experiment

#: Method display order used by the paper's figure.
FIG7_METHODS = ("mcam-3bit", "mcam-2bit", "tcam-lsh", "cosine", "euclidean")


@register_experiment(
    "fig7",
    "Fig. 7: few-shot learning accuracy (5/20-way, 1/5-shot) for all methods",
)
def run(
    quick: bool = True,
    seed: SeedLike = DEFAULT_EXPERIMENT_SEED,
    shards: int = None,
    max_rows_per_array: int = None,
    executor: str = "serial",
    episode_executor: str = "serial",
    num_workers: int = None,
) -> ExperimentResult:
    """Evaluate all five methods on the four few-shot task configurations.

    The summary reports the headline comparisons of Sec. IV-C: the average
    advantage of the 2-/3-bit MCAM over TCAM+LSH (paper: 11.6% / 13%) and the
    gap between the 3-bit MCAM and the FP32 cosine baseline (paper: <1%).

    ``shards`` / ``max_rows_per_array`` / ``executor`` run every method on
    the sharded multi-array execution layer; sharded search is exact, so the
    figure is unchanged — the knobs exist to exercise realistic geometries.
    ``episode_executor`` dispatches every ``method x episode-chunk`` pair
    through the parallel experiment runtime (``"processes"``); the method
    factories are picklable, so the figure's episode loops fan out across
    worker processes unchanged.
    """
    generator = ensure_rng(seed)
    num_episodes = 25 if quick else 200
    space = SyntheticEmbeddingSpace(seed=generator.integers(2**31 - 1))
    factories = default_method_factories(
        space.embedding_dim,
        seed=generator,
        shards=shards,
        max_rows_per_array=max_rows_per_array,
        executor=executor,
    )

    records = []
    gaps_3bit = []
    gaps_2bit = []
    cosine_gaps = []
    for n_way, k_shot in PAPER_FEWSHOT_TASKS:
        # The `with` block releases the evaluator's worker pool (and any
        # sharded searcher pools it spun up) even when a task raises.
        with FewShotEvaluator(
            space,
            n_way=n_way,
            k_shot=k_shot,
            num_episodes=num_episodes,
            executor=episode_executor,
            num_workers=num_workers,
        ) as evaluator:
            results = evaluator.compare(factories, rng=generator)
        for method in FIG7_METHODS:
            result = results[method]
            records.append(
                {
                    "task": f"{n_way}-way {k_shot}-shot",
                    "method": method,
                    "accuracy_percent": result.accuracy_percent,
                    "stderr_percent": 100.0 * result.statistics.stderr,
                }
            )
        gaps_3bit.append(
            results["mcam-3bit"].accuracy_percent - results["tcam-lsh"].accuracy_percent
        )
        gaps_2bit.append(
            results["mcam-2bit"].accuracy_percent - results["tcam-lsh"].accuracy_percent
        )
        cosine_gaps.append(
            results["cosine"].accuracy_percent - results["mcam-3bit"].accuracy_percent
        )

    summary = {
        "mcam3_vs_tcam_lsh_gap_percent": float(np.mean(gaps_3bit)),
        "mcam2_vs_tcam_lsh_gap_percent": float(np.mean(gaps_2bit)),
        "cosine_minus_mcam3_percent": float(np.mean(cosine_gaps)),
        "num_episodes": num_episodes,
    }
    return ExperimentResult(
        experiment_id="fig7",
        title="Few-shot learning accuracy by task and method",
        records=records,
        summary=summary,
        metadata={
            "quick": quick,
            "tasks": list(PAPER_FEWSHOT_TASKS),
            "shards": shards,
            "max_rows_per_array": max_rows_per_array,
        },
    )
