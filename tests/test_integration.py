"""Integration tests spanning several subsystems end to end."""

import numpy as np

from repro.circuits import MCAMArray, build_varied_lut
from repro.core import (
    MCAMDistance,
    MCAMSearcher,
    SoftwareSearcher,
    TCAMLSHSearcher,
    UniformQuantizer,
)
from repro.datasets import SyntheticEmbeddingSpace, load_wine, train_test_split
from repro.devices import GaussianVthVariationModel
from repro.mann import EpisodeSampler, FewShotEvaluator, MANNMemory
from repro.utils import accuracy


class TestClassificationPipeline:
    """Dataset -> quantizer -> MCAM array -> prediction, end to end."""

    def test_mcam_tracks_software_on_iris(self, iris_split):
        split = iris_split
        software = SoftwareSearcher("euclidean").fit(split.train.features, split.train.labels)
        mcam = MCAMSearcher(bits=3, seed=0).fit(split.train.features, split.train.labels)
        soft_acc = accuracy(software.predict(split.test.features), split.test.labels)
        mcam_acc = accuracy(mcam.predict(split.test.features), split.test.labels)
        assert mcam_acc >= soft_acc - 0.10
        assert mcam_acc > 0.7

    def test_methods_rank_as_in_paper_on_wine(self):
        dataset = load_wine(rng=1)
        split = train_test_split(dataset, rng=1)
        accuracies = {}
        for name, searcher in (
            ("mcam-3bit", MCAMSearcher(bits=3, seed=1)),
            ("tcam-lsh", TCAMLSHSearcher(num_bits=dataset.num_features, seed=1)),
            ("cosine", SoftwareSearcher("cosine")),
        ):
            searcher.fit(split.train.features, split.train.labels)
            accuracies[name] = accuracy(
                searcher.predict(split.test.features), split.test.labels
            )
        assert accuracies["mcam-3bit"] >= accuracies["tcam-lsh"] - 0.02
        assert accuracies["cosine"] > 0.7

    def test_manual_pipeline_matches_searcher(self, iris_split):
        """Building the array by hand gives the same predictions as MCAMSearcher."""
        split = iris_split
        quantizer = UniformQuantizer(bits=3)
        train_states = quantizer.fit(split.train.features).quantize(split.train.features)
        array = MCAMArray(num_cells=split.train.num_features, bits=3)
        array.write(train_states, labels=list(split.train.labels))

        searcher = MCAMSearcher(bits=3).fit(split.train.features, split.train.labels)

        test_states = quantizer.quantize(split.test.features)
        manual = array.predict(test_states)
        integrated = searcher.predict(split.test.features)
        assert np.array_equal(manual, integrated)


class TestFewShotPipeline:
    def test_mann_with_mcam_memory(self, small_space):
        episode = EpisodeSampler(small_space, n_way=5, k_shot=5).sample_episode(rng=0)
        memory = MANNMemory(searcher_factory=lambda: MCAMSearcher(bits=3))
        memory.write(episode.support_embeddings, episode.support_labels)
        predictions = memory.classify(episode.query_embeddings)
        assert accuracy(predictions, episode.query_labels) > 0.6

    def test_variation_aware_lut_in_full_pipeline(self, small_space):
        lut = build_varied_lut(bits=3, variation=GaussianVthVariationModel(0.08), rng=0)
        evaluator = FewShotEvaluator(small_space, n_way=5, k_shot=1, num_episodes=5)
        nominal = evaluator.evaluate(lambda: MCAMSearcher(bits=3), "nominal", rng=1)
        varied = evaluator.evaluate(lambda: MCAMSearcher(bits=3, lut=lut), "varied", rng=1)
        # 80 mV of variation must not collapse accuracy (paper Fig. 8).
        assert varied.accuracy > nominal.accuracy - 0.1

    def test_full_method_comparison_ordering(self):
        space = SyntheticEmbeddingSpace(seed=3)
        evaluator = FewShotEvaluator(space, n_way=20, k_shot=1, num_episodes=15)
        results = evaluator.compare(
            {
                "cosine": lambda: SoftwareSearcher("cosine"),
                "mcam-3bit": lambda: MCAMSearcher(bits=3, seed=2),
                "tcam-lsh": lambda: TCAMLSHSearcher(num_bits=64, seed=2),
            },
            rng=4,
        )
        # Paper Fig. 7 ordering: software >= MCAM > TCAM+LSH.
        assert results["cosine"].accuracy >= results["mcam-3bit"].accuracy - 0.02
        assert results["mcam-3bit"].accuracy > results["tcam-lsh"].accuracy + 0.03


class TestDistanceFunctionConsistency:
    def test_array_search_consistent_with_distance_object(self, iris_split):
        split = iris_split
        searcher = MCAMSearcher(bits=3).fit(split.train.features, split.train.labels)
        distance = MCAMDistance(lut=searcher.array.lut)
        train_states = searcher.quantizer.quantize(split.train.features)
        query_states = searcher.quantizer.quantize(split.test.features[:5])
        for query_row, query in zip(query_states, split.test.features[:5]):
            distances = distance.to_rows(train_states, query_row)
            assert searcher.nearest(query) == int(np.argmin(distances))
            assert distances.tobytes() == searcher.array.row_conductances(query_row).tobytes()
