import numpy as np
import pytest

from morphlex.baseline import procrustes_fit
from morphlex.embeddings import EmbeddingSpace
from morphlex.translator import NoTrainablePairsError, TrainConfig, retrieve, seed_rows, train


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def rotated_spaces(rng, n_words, dim, noise=0.0):
    source = EmbeddingSpace(tuple(f"s{i}" for i in range(n_words)), rng.normal(size=(n_words, dim)))
    q = random_orthogonal(rng, dim)
    target_rows = source.vectors @ q.T
    if noise:
        target_rows = target_rows + noise * rng.normal(size=target_rows.shape)
    target = EmbeddingSpace(tuple(f"t{i}" for i in range(n_words)), target_rows)
    pairs = [(f"s{i}", f"t{i}") for i in range(n_words)]
    return source, target, pairs, q


class TestProcrustesFit:
    def test_identity_when_spaces_coincide(self):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(30)), rng.normal(size=(30, 5)))
        model = procrustes_fit([(w, w) for w in space.words], space, space)
        np.testing.assert_allclose(model.omega, np.eye(5), atol=1e-9)

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(1)
        source, target, pairs, q = rotated_spaces(rng, 60, 8)
        model = procrustes_fit(pairs, source, target)
        assert float(np.linalg.norm(model.omega - q, "fro")) < 1e-6

    def test_result_is_always_orthogonal(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            source, target, pairs, _ = rotated_spaces(rng, 40, 6, noise=0.5)
            model = procrustes_fit(pairs, source, target)
            gram = model.omega.T @ model.omega - np.eye(6)
            assert float(np.linalg.norm(gram, "fro")) < 1e-6

    def test_monte_carlo_objective_dominance(self):
        # Oracle: no random orthogonal matrix beats the SVD solution.
        rng = np.random.default_rng(3)
        source, target, pairs, _ = rotated_spaces(rng, 12, 4, noise=0.8)
        model = procrustes_fit(pairs, source, target)
        a = source.vectors.T
        b = target.vectors.T
        fitted = float(np.linalg.norm(model.omega @ a - b, "fro"))
        for _ in range(1000):
            q = random_orthogonal(rng, 4)
            assert fitted <= float(np.linalg.norm(q @ a - b, "fro")) + 1e-9

    def test_unresolvable_pairs_dropped(self):
        rng = np.random.default_rng(4)
        source, target, pairs, q = rotated_spaces(rng, 25, 5)
        noisy_pairs = pairs + [("nope", "t0"), ("s0", "nope")]
        model = procrustes_fit(noisy_pairs, source, target)
        assert float(np.linalg.norm(model.omega - q, "fro")) < 1e-6

    def test_zero_resolvable_pairs(self):
        rng = np.random.default_rng(5)
        source, target, _, _ = rotated_spaces(rng, 5, 3)
        with pytest.raises(NoTrainablePairsError):
            procrustes_fit([("a", "b")], source, target)

    def test_fewer_pairs_than_dimension_warns(self, caplog):
        rng = np.random.default_rng(6)
        source, target, pairs, _ = rotated_spaces(rng, 3, 8)
        with caplog.at_level("WARNING"):
            procrustes_fit(pairs, source, target)
        assert any("underdetermined" in rec.message for rec in caplog.records)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        source = EmbeddingSpace(("a",), rng.normal(size=(1, 3)))
        target = EmbeddingSpace(("b",), rng.normal(size=(1, 4)))
        with pytest.raises(ValueError):
            procrustes_fit([("a", "b")], source, target)


# Both fitters, as pairs -> model: they keep the seed pairs by one rule.
FITTERS = {
    "train": lambda pairs, source, target: train(
        seed_rows(pairs, source, target), target, TrainConfig(max_epochs=2)).model,
    "procrustes_fit": procrustes_fit,
}


@pytest.mark.parametrize("fit", FITTERS.values(), ids=FITTERS.keys())
class TestSeedPairRule:
    def test_pair_with_a_composed_target_is_dropped(self, fit):
        # A word outside the target space could only be composed from
        # n-grams; a fitter never composes, so its pair is dropped.
        rng = np.random.default_rng(11)
        source, target, pairs, _ = rotated_spaces(rng, 20, 4)
        without = fit(pairs, source, target)
        model = fit(pairs + [("s0", "composed")], source, target)
        np.testing.assert_array_equal(model.omega, without.omega)
        assert model.normalizer_vocab_size == 20

    def test_target_without_file_loaded_rows_is_untrainable(self, fit):
        rng = np.random.default_rng(12)
        source, _, pairs, _ = rotated_spaces(rng, 5, 3)
        empty = EmbeddingSpace((), np.zeros((0, 3)))
        with pytest.raises(NoTrainablePairsError):
            fit(pairs, source, empty)


def test_train_counts_a_pair_with_a_composed_target_as_dropped():
    rng = np.random.default_rng(11)
    source, target, pairs, _ = rotated_spaces(rng, 20, 4)
    seeds = seed_rows(pairs + [("s0", "composed")], source, target)
    result = train(seeds, target, TrainConfig(max_epochs=2))
    assert result.dropped_pairs == 1


class TestBaselinePredict:
    def test_identity_fit_returns_source_word(self):
        rng = np.random.default_rng(8)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(10)), rng.normal(size=(10, 4)))
        model = procrustes_fit([(w, w) for w in space.words], space, space)
        winners, _ = retrieve(model, space.vectors[[7]], space)
        assert space.words[winners[0]] == "w7"

    def test_rotated_counterpart_retrieved(self):
        rng = np.random.default_rng(9)
        source, target, pairs, _ = rotated_spaces(rng, 50, 10)
        model = procrustes_fit(pairs[:40], source, target)
        winners, _ = retrieve(model, source.vectors[40:50], target)
        for i, winner in zip(range(40, 50), winners):
            assert target.words[winner] == f"t{i}"

    def test_tie_broken_by_rank(self):
        source = EmbeddingSpace(("s",), np.array([[1.0, 0.0]]))
        target = EmbeddingSpace(
            ("first", "second"), np.array([[1.0, 0.0], [2.0, 0.0]])
        )
        model = procrustes_fit([("s", "first")], source, target)
        winners, _ = retrieve(model, source.vectors, target)
        assert target.words[winners[0]] == "first"

    def test_exact_recovery_precision_is_total(self):
        rng = np.random.default_rng(10)
        source, target, pairs, _ = rotated_spaces(rng, 80, 12)
        model = procrustes_fit(pairs[:40], source, target)
        winners, _ = retrieve(model, source.vectors, target)
        hits = sum(target.words[winner] == f"t{i}" for i, winner in enumerate(winners))
        assert hits == 80
