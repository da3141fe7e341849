"""Array-scaling study (extension beyond the paper's evaluation).

The paper evaluates fixed configurations (64-cell words, N x K stored rows).
A natural follow-up question for anyone adopting the MCAM is how the approach
scales: what happens to accuracy and per-search energy as

* the number of stored rows grows (more classes / more shots), and
* the word length shrinks (fewer features per entry, e.g. after PCA).

This module sweeps both dimensions — plus the *shard count*, i.e. how many
fixed-geometry arrays the store is tiled across — with the same episodic
few-shot workload used in Fig. 7 and the CAM energy model of Sec. IV-C, so
the trade-off curves are directly comparable to the paper's operating
points.  The corresponding benchmark (``benchmarks/test_bench_scaling.py``)
asserts the qualitative expectations: accuracy degrades gracefully as more
classes are stored, search energy grows linearly with rows and cells, and
the single-step search delay is independent of the number of stored rows
(the key architectural advantage over a sequential software scan).  Sharding
preserves both properties: tiles are searched in parallel (delay unchanged)
and the summed tile energy matches the single-array energy at equal rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


from ..exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_bits, check_int_in_range
from ..circuits.tiles import split_rows_evenly
from ..core.search import MCAMSearcher
from ..core.sharding import ShardedSearcher, available_shard_executors
from ..datasets.omniglot import EmbeddingSpaceSpec, SyntheticEmbeddingSpace
from ..energy.cam_energy import mcam_energy_model
from ..mann.fewshot import FewShotEvaluator
from ..runtime import resolve_trial_runner


@dataclass(frozen=True)
class ScalingPoint:
    """One operating point of the scaling study."""

    n_way: int
    k_shot: int
    num_cells: int
    stored_rows: int
    accuracy_percent: float
    search_energy_j: float
    search_delay_s: float
    num_shards: int = 1

    @property
    def energy_per_row_j(self) -> float:
        """Search energy divided by the number of stored rows."""
        return self.search_energy_j / self.stored_rows

    @property
    def rows_per_shard(self) -> int:
        """Rows the largest tile holds at this operating point."""
        return -(-self.stored_rows // self.num_shards)


@dataclass(frozen=True)
class ScalingStudyResult:
    """Result of sweeping array capacity and word length."""

    points: Tuple[ScalingPoint, ...]
    bits: int

    def _base_shards(self) -> int:
        """Smallest shard count present (the single-array sweep by default)."""
        return min(p.num_shards for p in self.points)

    def capacity_series(self, num_cells: int) -> List[ScalingPoint]:
        """Single-array points with a fixed word length, ordered by stored rows."""
        base = self._base_shards()
        series = [
            p for p in self.points if p.num_cells == num_cells and p.num_shards == base
        ]
        if not series:
            raise ConfigurationError(f"no scaling points with num_cells={num_cells}")
        return sorted(series, key=lambda p: p.stored_rows)

    def word_length_series(self, n_way: int, k_shot: int) -> List[ScalingPoint]:
        """Single-array points with a fixed task, ordered by word length."""
        base = self._base_shards()
        series = [
            p
            for p in self.points
            if p.n_way == n_way and p.k_shot == k_shot and p.num_shards == base
        ]
        if not series:
            raise ConfigurationError(
                f"no scaling points for the {n_way}-way {k_shot}-shot task"
            )
        return sorted(series, key=lambda p: p.num_cells)

    def shard_series(self, n_way: int, k_shot: int, num_cells: int) -> List[ScalingPoint]:
        """Points with a fixed task and word length, ordered by shard count."""
        series = [
            p
            for p in self.points
            if p.n_way == n_way and p.k_shot == k_shot and p.num_cells == num_cells
        ]
        if not series:
            raise ConfigurationError(
                f"no scaling points for the {n_way}-way {k_shot}-shot task "
                f"with num_cells={num_cells}"
            )
        return sorted(series, key=lambda p: p.num_shards)

    def as_records(self):
        """Table-friendly records of every operating point."""
        return [
            {
                "task": f"{p.n_way}-way {p.k_shot}-shot",
                "num_cells": p.num_cells,
                "stored_rows": p.stored_rows,
                "num_shards": p.num_shards,
                "accuracy_percent": p.accuracy_percent,
                "search_energy_fJ": 1e15 * p.search_energy_j,
                "search_delay_ns": 1e9 * p.search_delay_s,
            }
            for p in self.points
        ]


class ScalingStudy:
    """Sweeps MCAM capacity (ways) and word length (embedding width).

    Parameters
    ----------
    ways:
        N-way task sizes to sweep (each stored row count is ``n_way * k_shot``).
    k_shot:
        Shots per class.
    word_lengths:
        Embedding widths / CAM word lengths to sweep.
    num_episodes:
        Episodes per operating point.
    bits:
        MCAM precision.
    shard_counts:
        Shard counts to sweep: each operating point is re-evaluated with the
        stored rows tiled across that many fixed-geometry arrays (``1`` is
        the paper's single-array setup).  Sharded search is exact, so this
        axis probes the energy/geometry trade-off, not accuracy.
    executor:
        Per-shard execution strategy for the sharded points (``"serial"``
        or ``"processes"``).
    trial_executor:
        Dispatch strategy for the study's operating points (``"serial"`` or
        ``"processes"``): each ``(word length, ways)`` evaluation is one
        self-contained trial with a pre-drawn seed, so parallel dispatch
        reproduces the serial results exactly.
    num_workers:
        Worker bound for the trial process pool.
    """

    def __init__(
        self,
        ways: Sequence[int] = (5, 20, 50),
        k_shot: int = 5,
        word_lengths: Sequence[int] = (16, 32, 64),
        num_episodes: int = 20,
        bits: int = 3,
        shard_counts: Sequence[int] = (1,),
        executor: str = "serial",
        trial_executor: str = "serial",
        num_workers: Optional[int] = None,
    ) -> None:
        self.ways = tuple(int(w) for w in ways)
        if not self.ways or any(w < 2 for w in self.ways):
            raise ConfigurationError("ways must contain integers >= 2")
        self.k_shot = check_int_in_range(k_shot, "k_shot", minimum=1)
        self.word_lengths = tuple(int(w) for w in word_lengths)
        if not self.word_lengths or any(w < 2 for w in self.word_lengths):
            raise ConfigurationError("word_lengths must contain integers >= 2")
        self.num_episodes = check_int_in_range(num_episodes, "num_episodes", minimum=1)
        self.bits = check_bits(bits)
        self.shard_counts = tuple(int(s) for s in shard_counts)
        if not self.shard_counts or any(s < 1 for s in self.shard_counts):
            raise ConfigurationError("shard_counts must contain integers >= 1")
        if executor.lower() not in available_shard_executors():
            raise ConfigurationError(
                f"executor must be one of {available_shard_executors()}, got {executor!r}"
            )
        self.executor = executor
        self.trial_executor = trial_executor
        self.num_workers = num_workers
        # Persistent runner (also validates the executor name eagerly);
        # released by close(), a `with` block, or the pool finalizer.
        self._runner = resolve_trial_runner(trial_executor, num_workers=num_workers)

    def close(self) -> None:
        """Release the study's trial runner (idempotent)."""
        self._runner.close()

    def __enter__(self) -> "ScalingStudy":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _sharded_search_cost(self, num_cells: int, stored_rows: int, num_shards: int):
        """Summed tile energy and parallel-tile delay of one sharded search."""
        tile_costs = [
            mcam_energy_model(
                num_cells=num_cells, num_rows=stop - start, bits=self.bits
            ).search_cost()
            for start, stop in split_rows_evenly(stored_rows, num_shards)
        ]
        energy_j = float(sum(cost.energy_j for cost in tile_costs))
        # Tiles sense their match lines concurrently, so the store-level
        # delay is the slowest tile, not the sum.
        delay_s = max(cost.delay_s for cost in tile_costs)
        return energy_j, delay_s

    def trials(self, rng: SeedLike = None) -> Tuple["_ScalingTrial", ...]:
        """The study's operating-point work units, with pre-drawn seeds.

        Seeds are drawn from ``rng`` in the exact order the serial loop
        consumes them (space seed per word length, then one evaluation seed
        per way count), so dispatched results match the serial study.
        """
        generator = ensure_rng(rng)
        units = []
        for num_cells in self.word_lengths:
            space = SyntheticEmbeddingSpace(
                EmbeddingSpaceSpec(embedding_dim=num_cells),
                seed=generator.integers(2**31 - 1),
            )
            for n_way in self.ways:
                units.append(
                    _ScalingTrial(
                        space=space,
                        num_cells=num_cells,
                        n_way=n_way,
                        k_shot=self.k_shot,
                        num_episodes=self.num_episodes,
                        bits=self.bits,
                        num_shards=max(self.shard_counts),
                        shard_executor=self.executor,
                        eval_seed=int(generator.integers(2**31 - 1)),
                    )
                )
        return tuple(units)

    def run(self, rng: SeedLike = None) -> ScalingStudyResult:
        """Evaluate accuracy and search energy at every operating point.

        Accuracy evaluations — the expensive part — dispatch through the
        trial runtime; the analytic energy/delay sweep over shard counts
        runs in-process afterwards.
        """
        units = self.trials(rng)
        accuracies = self._runner.map(_run_scaling_trial, units)
        points = []
        for trial, accuracy_percent in zip(units, accuracies):
            stored_rows = trial.n_way * self.k_shot
            seen_shard_counts = set()
            for num_shards in self.shard_counts:
                # Tiny stores collapse to one row per tile; record the
                # tile count the cost was actually computed over, once.
                effective_shards = min(num_shards, stored_rows)
                if effective_shards in seen_shard_counts:
                    continue
                seen_shard_counts.add(effective_shards)
                energy_j, delay_s = self._sharded_search_cost(
                    trial.num_cells, stored_rows, effective_shards
                )
                points.append(
                    ScalingPoint(
                        n_way=trial.n_way,
                        k_shot=self.k_shot,
                        num_cells=trial.num_cells,
                        stored_rows=stored_rows,
                        accuracy_percent=accuracy_percent,
                        search_energy_j=energy_j,
                        search_delay_s=delay_s,
                        num_shards=effective_shards,
                    )
                )
        return ScalingStudyResult(points=tuple(points), bits=self.bits)


@dataclass(frozen=True)
class _ScalingTrial:
    """One self-contained operating-point evaluation."""

    space: SyntheticEmbeddingSpace
    num_cells: int
    n_way: int
    k_shot: int
    num_episodes: int
    bits: int
    num_shards: int
    shard_executor: str
    eval_seed: int


def _run_scaling_trial(trial: _ScalingTrial) -> float:
    """Accuracy of one operating point (module-level: process-shippable).

    Sharded search is exact, so accuracy cannot depend on the shard count:
    the episodes are evaluated once per operating point (through the
    most-sharded geometry, exercising the real multi-array path) and the
    energy/delay model sweeps the remaining shard counts analytically.
    """
    if trial.num_shards == 1:
        factory = lambda: MCAMSearcher(bits=trial.bits)  # noqa: E731
    else:
        factory = lambda: ShardedSearcher(  # noqa: E731
            lambda: MCAMSearcher(bits=trial.bits),
            num_shards=trial.num_shards,
            executor=trial.shard_executor,
        )
    with FewShotEvaluator(
        trial.space, n_way=trial.n_way, k_shot=trial.k_shot, num_episodes=trial.num_episodes
    ) as evaluator:
        result = evaluator.evaluate(
            searcher_factory=factory,
            method_name=f"mcam-{trial.bits}bit",
            rng=trial.eval_seed,
        )
    return result.accuracy_percent
