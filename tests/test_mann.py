"""Tests for the MANN memory, episode sampling and few-shot evaluation."""

import numpy as np
import pytest

from repro.core import MCAMSearcher, SoftwareSearcher
from repro.datasets import EmbeddingSpaceSpec, SyntheticEmbeddingSpace
from repro.exceptions import ConfigurationError, SearchError
from repro.mann import (
    EpisodeSampler,
    FewShotEvaluator,
    MANNMemory,
    PAPER_FEWSHOT_TASKS,
    default_method_factories,
    paper_convnet,
    run_episode,
    SyntheticFeatureExtractor,
)


class TestConvNetSpec:
    def test_paper_architecture_embedding_width(self):
        network = paper_convnet()
        assert network.embedding_dim == 64

    def test_layer_counts(self):
        network = paper_convnet()
        assert len(network.conv_layers) == 4
        assert len(network.dense_layers) == 2

    def test_macs_dominated_by_convolutions(self):
        network = paper_convnet()
        conv_macs = sum(layer.macs for layer in network.conv_layers)
        dense_macs = sum(layer.macs for layer in network.dense_layers)
        assert conv_macs > dense_macs

    def test_total_macs_in_expected_range(self):
        # Four 3x3 conv layers on 28x28/14x14 maps: tens of millions of MACs.
        assert 1e7 < paper_convnet().total_macs < 1e9

    def test_parameters_positive(self):
        assert paper_convnet().total_parameters > 1e5


class TestFeatureExtractor:
    def test_extract_shapes(self, small_space):
        extractor = SyntheticFeatureExtractor(small_space)
        embeddings, labels = extractor.extract([0, 1], samples_per_class=3, rng=0)
        assert embeddings.shape == (6, 64)
        assert len(labels) == 6

    def test_extraction_noise_adds_spread(self, small_space):
        clean = SyntheticFeatureExtractor(small_space, extraction_noise_sigma=0.0)
        noisy = SyntheticFeatureExtractor(small_space, extraction_noise_sigma=0.5)
        a, _ = clean.extract([0], 50, rng=1)
        b, _ = noisy.extract([0], 50, rng=1)
        assert b.std(axis=0).mean() > a.std(axis=0).mean()

    def test_inference_macs(self, small_space):
        extractor = SyntheticFeatureExtractor(small_space)
        assert extractor.inference_macs() == paper_convnet().total_macs


class TestEpisodeSampler:
    def test_episode_shapes(self, small_space):
        sampler = EpisodeSampler(small_space, n_way=5, k_shot=3, queries_per_class=4)
        episode = sampler.sample_episode(rng=0)
        assert episode.support_embeddings.shape == (15, 64)
        assert episode.query_embeddings.shape == (20, 64)
        assert episode.n_way == 5
        assert episode.k_shot == 3
        assert episode.num_queries == 20

    def test_labels_are_episode_local(self, small_space):
        sampler = EpisodeSampler(small_space, n_way=5, k_shot=1)
        episode = sampler.sample_episode(rng=1)
        assert set(episode.support_labels) == set(range(5))
        assert set(episode.query_labels) <= set(range(5))

    def test_classes_are_distinct(self, small_space):
        sampler = EpisodeSampler(small_space, n_way=20, k_shot=1)
        episode = sampler.sample_episode(rng=2)
        assert len(set(episode.class_indices.tolist())) == 20

    def test_episode_stream_count(self, small_space):
        sampler = EpisodeSampler(small_space, n_way=5, k_shot=1)
        episodes = list(sampler.episodes(7, rng=3))
        assert len(episodes) == 7

    def test_n_way_exceeding_classes_rejected(self, small_space):
        with pytest.raises(Exception):
            EpisodeSampler(small_space, n_way=1000, k_shot=1)

    def test_reproducible_episodes(self, small_space):
        a = EpisodeSampler(small_space, 5, 1).sample_episode(rng=11)
        b = EpisodeSampler(small_space, 5, 1).sample_episode(rng=11)
        assert np.allclose(a.support_embeddings, b.support_embeddings)
        assert np.array_equal(a.query_labels, b.query_labels)


class TestMANNMemory:
    def test_write_and_classify(self, small_space):
        embeddings, labels = small_space.sample([0, 1, 2], 5, rng=0)
        memory = MANNMemory()
        memory.write(embeddings, labels)
        predictions = memory.classify(embeddings)
        assert np.mean(predictions == labels) > 0.9

    def test_prototype_readout_stores_one_entry_per_class(self, small_space):
        embeddings, labels = small_space.sample([0, 1, 2], 5, rng=1)
        memory = MANNMemory(readout="prototype")
        memory.write(embeddings, labels)
        assert memory.num_entries == 3

    def test_nearest_readout_stores_all_shots(self, small_space):
        embeddings, labels = small_space.sample([0, 1, 2], 5, rng=2)
        memory = MANNMemory(readout="nearest")
        memory.write(embeddings, labels)
        assert memory.num_entries == 15

    def test_custom_searcher_factory(self, small_space):
        embeddings, labels = small_space.sample([0, 1], 3, rng=3)
        memory = MANNMemory(searcher_factory=lambda: MCAMSearcher(bits=3))
        memory.write(embeddings, labels)
        assert isinstance(memory.searcher, MCAMSearcher)

    def test_classify_before_write_rejected(self):
        with pytest.raises(SearchError):
            MANNMemory().classify(np.ones((1, 4)))

    def test_invalid_readout_rejected(self):
        with pytest.raises(ConfigurationError):
            MANNMemory(readout="softmax")

    def test_label_length_mismatch_rejected(self, small_space):
        embeddings, labels = small_space.sample([0], 3, rng=4)
        with pytest.raises(ConfigurationError):
            MANNMemory().write(embeddings, labels[:-1])

    def test_clear(self, small_space):
        embeddings, labels = small_space.sample([0], 3, rng=5)
        memory = MANNMemory()
        memory.write(embeddings, labels)
        memory.clear()
        assert not memory.is_written


class TestFewShotEvaluation:
    def test_run_episode_perfect_on_easy_space(self):
        space = SyntheticEmbeddingSpace(
            EmbeddingSpaceSpec(
                num_classes=30, within_class_sigma=0.05, shared_strength=0.2,
                family_spread=1.0, class_spread=1.0,
            ),
            seed=0,
        )
        episode = EpisodeSampler(space, 5, 1).sample_episode(rng=0)
        assert run_episode(episode, lambda: SoftwareSearcher("cosine")) == 1.0

    def test_evaluator_returns_result(self, small_space):
        evaluator = FewShotEvaluator(small_space, n_way=5, k_shot=1, num_episodes=5)
        result = evaluator.evaluate(lambda: SoftwareSearcher("cosine"), "cosine", rng=1)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.task_name == "5-way 1-shot"
        assert result.accuracy_percent == pytest.approx(100 * result.accuracy)

    def test_compare_uses_identical_episodes(self, small_space):
        evaluator = FewShotEvaluator(small_space, n_way=5, k_shot=1, num_episodes=5)
        results = evaluator.compare(
            {
                "cosine-a": lambda: SoftwareSearcher("cosine"),
                "cosine-b": lambda: SoftwareSearcher("cosine"),
            },
            rng=2,
        )
        # Two copies of the same method on the same episodes give identical
        # accuracy, which only holds if the episodes are shared.
        assert results["cosine-a"].accuracy == results["cosine-b"].accuracy

    def test_compare_empty_factories_rejected(self, small_space):
        evaluator = FewShotEvaluator(small_space, n_way=5, k_shot=1, num_episodes=2)
        with pytest.raises(ConfigurationError):
            evaluator.compare({}, rng=0)

    def test_default_factories_contain_paper_methods(self):
        factories = default_method_factories(64, seed=0)
        assert set(factories) == {"cosine", "euclidean", "mcam-3bit", "mcam-2bit", "tcam-lsh"}
        searcher = factories["mcam-3bit"]()
        assert isinstance(searcher, MCAMSearcher)

    def test_paper_tasks_constant(self):
        assert PAPER_FEWSHOT_TASKS == ((5, 1), (5, 5), (20, 1), (20, 5))

    def test_mcam_beats_chance_on_small_space(self, small_space):
        evaluator = FewShotEvaluator(small_space, n_way=5, k_shot=1, num_episodes=5)
        result = evaluator.evaluate(lambda: MCAMSearcher(bits=3), "mcam", rng=3)
        assert result.accuracy > 0.5


class TestSearcherReuse:
    """The evaluator serves every episode from one searcher allocation."""

    def test_memory_reuses_searcher_across_writes(self, small_space):
        calls = []

        def factory():
            calls.append(1)
            return SoftwareSearcher("cosine")

        memory = MANNMemory(searcher_factory=factory, reuse_searcher=True)
        for seed in range(3):
            embeddings, labels = small_space.sample([0, 1, 2], 3, rng=seed)
            memory.write(embeddings, labels)
        assert len(calls) == 1

        fresh = MANNMemory(searcher_factory=factory)
        for seed in range(3):
            embeddings, labels = small_space.sample([0, 1, 2], 3, rng=seed)
            fresh.write(embeddings, labels)
        assert len(calls) == 4

    def test_reused_memory_matches_fresh_memory_results(self, small_space):
        evaluator = FewShotEvaluator(small_space, n_way=5, k_shot=1, num_episodes=6)
        reused = evaluator.evaluate(lambda: MCAMSearcher(bits=3), "mcam", rng=5)
        # Episode-by-episode reference without any searcher reuse, replaying
        # the evaluator's stream structure (per-episode classification rngs).
        from repro.utils.rng import spawn_rngs

        sampler = EpisodeSampler(small_space, n_way=5, k_shot=1, queries_per_class=5)
        generator = np.random.default_rng(5)
        episode_rngs = spawn_rngs(generator, 6)
        reference = [
            run_episode(episode, lambda: MCAMSearcher(bits=3), rng=episode_rng)
            for episode, episode_rng in zip(sampler.episodes(6, rng=generator), episode_rngs)
        ]
        assert reused.statistics.mean == pytest.approx(np.mean(reference))

    def test_sharded_memory_classifies_like_unsharded(self, small_space):
        embeddings, labels = small_space.sample([0, 1, 2, 3], 6, rng=9)
        queries, _ = small_space.sample([0, 1, 2, 3], 4, rng=10)
        from repro.core import ShardedSearcher

        plain = MANNMemory(searcher_factory=lambda: MCAMSearcher(bits=3))
        sharded = MANNMemory(
            searcher_factory=lambda: ShardedSearcher(
                lambda: MCAMSearcher(bits=3), num_shards=3, executor="processes"
            )
        )
        plain.write(embeddings, labels)
        sharded.write(embeddings, labels)
        try:
            assert np.array_equal(plain.classify(queries), sharded.classify(queries))
        finally:
            sharded.clear()


def _spy_on_isfinite(monkeypatch):
    """Record the shape of every array handed to ``np.isfinite``."""
    shapes = []
    real_isfinite = np.isfinite

    def isfinite(values, *args, **kwargs):
        shapes.append(np.shape(values))
        return real_isfinite(values, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", isfinite)
    return shapes


class TestValidateOnce:
    """An episode's arrays are scanned for non-finite values once, at the memory."""

    ENGINES = ("mcam-3bit", "tcam-lsh", "cosine")

    @pytest.mark.parametrize("name", ENGINES)
    def test_one_isfinite_pass_per_write_and_per_classify(self, small_space, monkeypatch, name):
        from repro.core import make_searcher

        dim = small_space.embedding_dim
        memory = MANNMemory(
            searcher_factory=lambda: make_searcher(name, dim, seed=3), reuse_searcher=True
        )
        memory.write(*small_space.sample([0, 1, 2], 2, rng=1))  # builds the engine
        support, labels = small_space.sample([0, 1, 2], 2, rng=3)
        queries, _ = small_space.sample([0, 1, 2], 3, rng=4)
        shapes = _spy_on_isfinite(monkeypatch)
        memory.write(support, labels)
        assert shapes == [support.shape]
        shapes.clear()
        memory.classify(queries, rng=0)
        assert shapes == [queries.shape]

    @pytest.mark.parametrize("name", ENGINES)
    def test_public_entry_points_still_reject_non_finite_input(self, name):
        from repro.core import make_searcher

        rng = np.random.default_rng(8)
        features = rng.normal(size=(6, 8))
        labels = np.arange(6) % 3
        bad = features.copy()
        bad[2, 3] = np.nan
        searcher = make_searcher(name, 8, seed=3)
        with pytest.raises(ConfigurationError, match="^features must contain only finite values"):
            searcher.fit(bad, labels)
        searcher.fit(features, labels)
        for entry in (searcher.kneighbors_batch, searcher.predict_batch):
            with pytest.raises(SearchError, match="^queries must contain only finite values"):
                entry(bad)
        memory = MANNMemory(searcher_factory=lambda: make_searcher(name, 8, seed=3))
        with pytest.raises(
            ConfigurationError, match="^support_embeddings must contain only finite values"
        ):
            memory.write(bad, labels)
        memory.write(features, labels)
        with pytest.raises(
            ConfigurationError, match="^query_embeddings must contain only finite values"
        ):
            memory.classify(bad)

    def test_quantizer_and_encoder_still_reject_non_finite_input(self):
        from repro.core.quantization import UniformQuantizer
        from repro.encoding.lsh import RandomHyperplaneLSH

        features = np.random.default_rng(9).normal(size=(5, 4))
        bad = features.copy()
        bad[0, 0] = np.inf
        for transform, apply in (
            (UniformQuantizer(bits=3), "quantize"),
            (RandomHyperplaneLSH(num_bits=8, seed=0), "encode"),
        ):
            with pytest.raises(ConfigurationError, match="^features must contain only finite"):
                transform.fit(bad)
            transform.fit(features)
            with pytest.raises(ConfigurationError, match="^features must contain only finite"):
                getattr(transform, apply)(bad)

    def test_overflowing_prototypes_are_rejected(self):
        memory = MANNMemory(readout="prototype")
        with np.errstate(over="ignore"):
            with pytest.raises(
                ConfigurationError, match="^support_embeddings must contain only finite values"
            ):
                memory.write(np.full((2, 3), 1e308), [0, 0])
