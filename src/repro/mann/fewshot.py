"""Few-shot learning evaluation harness (the pipeline behind Fig. 7 and 8).

For each episode the support embeddings are written to the MANN memory
(which programs the CAM, a one-time cost) and the full query batch is
classified in one vectorized nearest-neighbor search; the episode accuracy
is the fraction of correctly labeled queries and the task accuracy is the
mean over episodes.  The harness is agnostic to the memory's searcher —
factories resolve engines through the backend registry of
:mod:`repro.core.search` — so the same episodes evaluate the
cosine/Euclidean software baselines, the TCAM+LSH baseline and the 2-/3-bit
MCAMs — exactly the comparison of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional


from ..exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.stats import SummaryStatistics, accuracy, summarize
from ..utils.validation import check_int_in_range
from ..core.search import make_searcher
from ..datasets.omniglot import SyntheticEmbeddingSpace
from ..runtime import default_worker_count, require_picklable, resolve_trial_runner
from ..runtime.trials import CHUNKS_PER_WORKER, SerialTrialRunner, chunk_units
from .episodes import Episode, EpisodeSampler
from .memory import MANNMemory, SearcherFactory


@dataclass(frozen=True)
class FewShotResult:
    """Accuracy of one method on one N-way K-shot task.

    Attributes
    ----------
    method:
        Name of the evaluated search method.
    n_way / k_shot:
        Task configuration.
    statistics:
        Episode-accuracy statistics (mean accuracy is
        ``statistics.mean``).
    """

    method: str
    n_way: int
    k_shot: int
    statistics: SummaryStatistics

    @property
    def accuracy(self) -> float:
        """Mean episode accuracy (fraction in [0, 1])."""
        return self.statistics.mean

    @property
    def accuracy_percent(self) -> float:
        """Mean episode accuracy in percent, as reported in the paper."""
        return 100.0 * self.statistics.mean

    @property
    def task_name(self) -> str:
        """Human-readable task name, e.g. ``"5-way 1-shot"``."""
        return f"{self.n_way}-way {self.k_shot}-shot"


class FewShotEvaluator:
    """Runs N-way K-shot episodes against a pluggable memory searcher.

    Parameters
    ----------
    space:
        The embedding space episodes are drawn from.
    n_way / k_shot:
        Task configuration.
    num_episodes:
        Number of episodes to average over.
    queries_per_class:
        Query embeddings per class in each episode.
    executor:
        Episode-dispatch strategy: ``"serial"`` (one searcher allocation,
        episodes in order — the reference path) or ``"processes"``
        (episodes chunked across a persistent worker-process pool, one
        searcher allocation per chunk).  Episodes and one classification
        seed per episode are drawn up front in the serial order, and every
        (method, episode) pair builds its own generator from its episode's
        seed, so both runners evaluate *identical* episodes with identical
        streams for every method; accuracies match the serial path for
        engines whose per-episode results do not depend on programming
        history — the LUT-mode MCAM, the seeded TCAM+LSH engine, the
        software baselines, and device-mode MCAMs using row-keyed
        ``program_seed`` programming.  Process dispatch also needs a
        picklable ``searcher_factory`` (e.g. a :func:`functools.partial`
        around ``make_searcher``, which :func:`default_method_factories`
        returns).
    num_workers:
        Worker bound for the process pool; defaults to the CPU count.
    """

    def __init__(
        self,
        space: SyntheticEmbeddingSpace,
        n_way: int,
        k_shot: int,
        num_episodes: int = 100,
        queries_per_class: int = 5,
        executor: str = "serial",
        num_workers: Optional[int] = None,
    ) -> None:
        self.space = space
        self.sampler = EpisodeSampler(
            space, n_way=n_way, k_shot=k_shot, queries_per_class=queries_per_class
        )
        self.num_episodes = check_int_in_range(num_episodes, "num_episodes", minimum=1)
        self.executor = executor
        self.num_workers = num_workers
        # One persistent runner for the evaluator's lifetime: pooled workers
        # stay warm across evaluate()/compare() calls (pools start lazily, so
        # an unused evaluator costs nothing).  Construction also validates
        # the executor name eagerly.
        self._runner = resolve_trial_runner(executor, num_workers=num_workers)

    def close(self) -> None:
        """Release the evaluator's trial runner (idempotent).

        Pooled runners restart lazily if the evaluator is used again; a
        finalizer also shuts worker pools down at garbage collection or
        interpreter exit, so forgetting close() cannot leak processes.
        """
        self._runner.close()

    def __enter__(self) -> "FewShotEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _episode_seeds(self, generator) -> List[int]:
        """One classification seed per episode, drawn before the episodes.

        The draw :func:`~repro.utils.rng.spawn_rngs` makes from a generator,
        so the same seed samples the same episodes and streams as before.
        """
        return generator.integers(0, 2**32 - 1, size=self.num_episodes).tolist()

    def _sampled_episodes(self, generator) -> List[Episode]:
        """Draw the run's episodes up front, in the canonical serial order."""
        return list(self.sampler.episodes(self.num_episodes, rng=generator))

    def _episode_jobs(self, factory: SearcherFactory, episodes, episode_seeds, runner):
        """Chunked ``(factory, episodes, seeds)`` jobs for process dispatch."""
        require_picklable(factory, "searcher_factory")
        workers = runner.num_workers or default_worker_count()
        num_chunks = workers * CHUNKS_PER_WORKER
        episode_chunks = chunk_units(list(episodes), num_chunks)
        seed_chunks = chunk_units(list(episode_seeds), num_chunks)
        return [
            (factory, chunk, seeds) for chunk, seeds in zip(episode_chunks, seed_chunks)
        ]

    def evaluate(
        self,
        searcher_factory: SearcherFactory,
        method_name: str = "custom",
        rng: SeedLike = None,
    ) -> FewShotResult:
        """Evaluate one method over ``num_episodes`` fresh episodes.

        One searcher is allocated up front and delta-reprogrammed per episode
        (the CAM workload: rewrite the support rows, then stream the
        episode's whole query block through one batched search); process
        dispatch keeps one searcher per worker chunk instead.  Episode
        sampling and classification use independent streams (as
        :meth:`compare` always has), so engines that draw randomness during
        search — stochastic sensing, sharded execution — cannot perturb
        which episodes are evaluated.
        """
        generator = ensure_rng(rng)
        episode_seeds = self._episode_seeds(generator)
        episodes = self._sampled_episodes(generator)
        runner = self._runner
        if isinstance(runner, SerialTrialRunner):
            episode_accuracies = _run_episode_chunk(
                (searcher_factory, episodes, episode_seeds)
            )
        else:
            jobs = self._episode_jobs(searcher_factory, episodes, episode_seeds, runner)
            episode_accuracies = []
            for chunk_accuracies in runner.map(_run_episode_chunk, jobs):
                episode_accuracies.extend(chunk_accuracies)
        return FewShotResult(
            method=method_name,
            n_way=self.sampler.n_way,
            k_shot=self.sampler.k_shot,
            statistics=summarize(episode_accuracies),
        )

    def compare(
        self,
        factories: Dict[str, SearcherFactory],
        rng: SeedLike = None,
    ) -> Dict[str, FewShotResult]:
        """Evaluate several methods on *identical* episodes.

        All methods see exactly the same support/query embeddings in every
        episode, which is the comparison the paper makes: the only moving
        part is the distance function / search hardware.  Each method keeps
        one searcher allocation for the whole run (serial) or per worker
        chunk (process dispatch, which runs every ``method x chunk`` pair
        independently).  Both runners give every method the same
        classification streams — the ones :meth:`evaluate` gives it alone —
        so a stochastic-sensing method's accuracy does not depend on which
        other methods are compared with it, or on the runner.
        """
        if not factories:
            raise ConfigurationError("factories must contain at least one method")
        generator = ensure_rng(rng)
        # Every (method, episode) pair builds its own generator from the
        # episode's seed, so no method advances another method's stream and
        # adding or removing a method leaves the others' results alone.
        episode_seeds = self._episode_seeds(generator)
        episodes = self._sampled_episodes(generator)
        runner = self._runner
        per_method_accuracies: Dict[str, list] = {}
        if isinstance(runner, SerialTrialRunner):
            per_method_accuracies = {name: [] for name in factories}
            memories = {
                name: MANNMemory(searcher_factory=factory, reuse_searcher=True)
                for name, factory in factories.items()
            }
            try:
                for episode, episode_seed in zip(episodes, episode_seeds):
                    for name, factory in factories.items():
                        per_method_accuracies[name].append(
                            run_episode(
                                episode, factory, rng=episode_seed, memory=memories[name]
                            )
                        )
            finally:
                for memory in memories.values():
                    memory.clear()
        else:
            jobs = []
            spans = []
            for name, factory in factories.items():
                method_jobs = self._episode_jobs(factory, episodes, episode_seeds, runner)
                spans.append((name, len(method_jobs)))
                jobs.extend(method_jobs)
            results = runner.map(_run_episode_chunk, jobs)
            cursor = 0
            for name, count in spans:
                accuracies: list = []
                for chunk_accuracies in results[cursor : cursor + count]:
                    accuracies.extend(chunk_accuracies)
                per_method_accuracies[name] = accuracies
                cursor += count
        return {
            name: FewShotResult(
                method=name,
                n_way=self.sampler.n_way,
                k_shot=self.sampler.k_shot,
                statistics=summarize(values),
            )
            for name, values in per_method_accuracies.items()
        }


def _run_episode_chunk(job) -> List[float]:
    """Run one ordered chunk of episodes on one searcher allocation.

    Module-level so pooled executors can ship it to worker processes; the
    job carries ``(searcher_factory, episodes, episode_seeds)``, and each
    episode classifies with a generator built from its seed.  One
    :class:`MANNMemory` with ``reuse_searcher=True`` serves the whole chunk,
    so every refit inside a worker rides the arrays' delta-reprogramming
    path.
    """
    factory, episodes, episode_seeds = job
    memory = MANNMemory(searcher_factory=factory, reuse_searcher=True)
    try:
        return [
            run_episode(episode, factory, rng=episode_seed, memory=memory)
            for episode, episode_seed in zip(episodes, episode_seeds)
        ]
    finally:
        # Deterministically release searcher resources (e.g. a sharded
        # worker pool) instead of waiting for garbage collection.
        memory.clear()


def run_episode(
    episode: Episode,
    searcher_factory: SearcherFactory,
    rng: SeedLike = None,
    memory: Optional[MANNMemory] = None,
) -> float:
    """Accuracy of one method on one episode.

    The support set programs the memory once; the episode's entire query
    batch then rides one vectorized ``predict_batch`` search.  Passing a
    ``memory`` (e.g. one with ``reuse_searcher=True``) lets callers serve
    many episodes from a single searcher allocation; otherwise a fresh
    single-episode memory is built from ``searcher_factory``.
    """
    if memory is None:
        memory = MANNMemory(searcher_factory=searcher_factory)
    memory.write(episode.support_embeddings, episode.support_labels)
    predictions = memory.classify(episode.query_embeddings, rng=rng)
    return accuracy(predictions, episode.query_labels)


def default_method_factories(
    embedding_dim: int,
    lsh_bits: Optional[int] = None,
    seed: SeedLike = None,
    shards: Optional[int] = None,
    max_rows_per_array: Optional[int] = None,
    executor: str = "serial",
) -> Dict[str, SearcherFactory]:
    """The five methods compared in Fig. 7, as searcher factories.

    Parameters
    ----------
    embedding_dim:
        Embedding width; also the CAM word length and the iso-word-length
        LSH signature size.
    lsh_bits:
        Override for the LSH signature length (e.g. 512 to reproduce the
        original TCAM+LSH configuration of the paper's footnote 1).
    seed:
        Seed for the stochastic engines (LSH hyperplanes).
    shards / max_rows_per_array / executor:
        Optional sharded-execution configuration forwarded to
        :func:`~repro.core.search.make_searcher`; when either ``shards`` or
        ``max_rows_per_array`` is given every method partitions its support
        set across fixed-capacity arrays (results stay identical — sharding
        is exact).
    """
    generator = ensure_rng(seed)
    seeds = generator.integers(0, 2**31 - 1, size=8)
    signature_bits = lsh_bits if lsh_bits is not None else embedding_dim
    sharding = {
        "shards": shards,
        "max_rows_per_array": max_rows_per_array,
        "executor": executor,
    }
    # functools.partial around the module-level make_searcher (rather than a
    # lambda) keeps every factory picklable, so the same method table drives
    # both in-process evaluation and the process-parallel episode runtime.
    return {
        "cosine": partial(make_searcher, "cosine", embedding_dim, **sharding),
        "euclidean": partial(make_searcher, "euclidean", embedding_dim, **sharding),
        "mcam-3bit": partial(
            make_searcher,
            "mcam-3bit",
            embedding_dim,
            seed=int(seeds[0]),
            **sharding,
        ),
        "mcam-2bit": partial(
            make_searcher,
            "mcam-2bit",
            embedding_dim,
            seed=int(seeds[1]),
            **sharding,
        ),
        "tcam-lsh": partial(
            make_searcher,
            "tcam-lsh",
            embedding_dim,
            lsh_bits=signature_bits,
            seed=int(seeds[2]),
            **sharding,
        ),
    }
