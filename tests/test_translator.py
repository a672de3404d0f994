import json
import logging
import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex import translator

from morphlex.embeddings import EmbeddingSpace, WordNotFoundError, preprocess
from morphlex.translator import (
    AdamState,
    ModelFormatError,
    NoTrainablePairsError,
    TrainConfig,
    TranslationModel,
    bilinear_score,
    load_model,
    log_prob,
    log_softmax,
    loss_and_gradient,
    orth_penalty,
    predict,
    retrieve,
    save_model,
    train,
)


def toy_space(rng, n, dim, prefix="w"):
    return EmbeddingSpace(tuple(f"{prefix}{i}" for i in range(n)), rng.normal(size=(n, dim)))


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


class TestBilinearScore:
    def test_identity_aligned(self):
        model = TranslationModel(np.eye(2), 1)
        assert bilinear_score(model, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_identity_orthogonal_vectors(self):
        model = TranslationModel(np.eye(2), 1)
        assert bilinear_score(model, np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        omega = rng.normal(size=(3, 3))
        target, source = rng.normal(size=3), rng.normal(size=3)
        model = TranslationModel(omega, 1)
        # Oracle: explicit sum over both indices.
        expected = sum(
            target[i] * omega[i, j] * source[j] for i in range(3) for j in range(3)
        )
        assert bilinear_score(model, target, source) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        model = TranslationModel(np.eye(2), 1)
        with pytest.raises(ValueError):
            bilinear_score(model, np.ones(3), np.ones(2))


class TestLogProb:
    def test_uniform_case(self):
        # Two equal target rows give equal scores, so each gets log(1/2).
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        model = TranslationModel(np.eye(2), 2)
        source = np.array([1.0, 0.0])
        assert log_prob(model, space, "a", source) == pytest.approx(math.log(0.5))
        assert log_prob(model, space, "b", source) == pytest.approx(math.log(0.5))

    def test_matches_brute_force_normalizer(self):
        rng = np.random.default_rng(1)
        space = toy_space(rng, 3, 4)
        omega = rng.normal(size=(4, 4))
        model = TranslationModel(omega, 3)
        source = rng.normal(size=4)
        # Oracle: direct summation of exponentials, no max subtraction.
        scores = [float(v @ omega @ source) for v in space.vectors]
        for i, word in enumerate(space.words):
            expected = scores[i] - math.log(sum(math.exp(s) for s in scores))
            assert log_prob(model, space, word, source) == pytest.approx(expected, abs=1e-9)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=20)
        shifted = log_softmax(scores + 123.456)
        np.testing.assert_allclose(shifted, log_softmax(scores), atol=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        space = toy_space(rng, 25, 6)
        model = TranslationModel(rng.normal(size=(6, 6)), 25)
        source = rng.normal(size=6)
        total = sum(
            math.exp(log_prob(model, space, w, source)) for w in space.words
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_word_outside_support(self):
        rng = np.random.default_rng(4)
        space = toy_space(rng, 5, 3)
        model = TranslationModel(rng.normal(size=(3, 3)), 3)
        with pytest.raises(ValueError, match="support"):
            log_prob(model, space, "w4", rng.normal(size=3))

    def test_unknown_word(self):
        rng = np.random.default_rng(5)
        space = toy_space(rng, 5, 3)
        model = TranslationModel(np.eye(3), 5)
        with pytest.raises(WordNotFoundError):
            log_prob(model, space, "nope", np.ones(3))


class TestOrthPenalty:
    def test_orthogonal_matrix_is_free(self):
        assert orth_penalty(TranslationModel(np.eye(4), 1), 7.0) == 0.0

    def test_scaled_identity(self):
        model = TranslationModel(2.0 * np.eye(2), 1)
        # Omega^T Omega - I = 3I (2x2), Frobenius norm 3*sqrt(2).
        assert orth_penalty(model, 1.0) == pytest.approx(3.0 * math.sqrt(2.0))

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(6)
        omega = rng.normal(size=(3, 3))
        model = TranslationModel(omega, 1)
        # Oracle: explicit element-wise Frobenius computation.
        gram = omega.T @ omega - np.eye(3)
        expected = 2.0 * math.sqrt(sum(gram[i, j] ** 2 for i in range(3) for j in range(3)))
        assert orth_penalty(model, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            orth_penalty(TranslationModel(np.eye(2), 1), -1.0)


def finite_difference_grad(fn, omega, step=1e-5):
    grad = np.zeros_like(omega)
    for i in range(omega.shape[0]):
        for j in range(omega.shape[1]):
            up = omega.copy()
            up[i, j] += step
            down = omega.copy()
            down[i, j] -= step
            grad[i, j] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


class TestLossAndGradient:
    def test_uniform_softmax_loss(self):
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 0.0], [1.0, 0.0]]))
        source_space = EmbeddingSpace(("s",), np.array([[1.0, 0.0]]))
        model = TranslationModel(np.eye(2), 2)
        config = TrainConfig(alpha=0.0)
        loss, _ = loss_and_gradient(model, [("s", "a")], source_space, space, config)
        assert loss == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0])
    def test_gradient_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(7)
        source_space = toy_space(rng, 6, 4, prefix="s")
        target_space = toy_space(rng, 8, 4, prefix="t")
        omega = rng.normal(size=(4, 4))
        model = TranslationModel(omega, 8)
        config = TrainConfig(alpha=alpha, batch_size=3)
        batch = [("s0", "t1"), ("s2", "t0"), ("s4", "t7")]

        def loss_of(matrix):
            m = TranslationModel(matrix, 8)
            return loss_and_gradient(m, batch, source_space, target_space, config)[0]

        _, analytic = loss_and_gradient(model, batch, source_space, target_space, config)
        numeric = finite_difference_grad(loss_of, omega)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        assert float(np.max(np.abs(analytic - numeric) / denom)) < 1e-4

    def test_penalty_silent_at_orthogonal_omega(self):
        rng = np.random.default_rng(8)
        source_space = toy_space(rng, 4, 3, prefix="s")
        target_space = toy_space(rng, 4, 3, prefix="t")
        model = TranslationModel(np.eye(3), 4)
        batch = [("s0", "t0"), ("s1", "t2")]
        with_alpha = loss_and_gradient(
            model, batch, source_space, target_space, TrainConfig(alpha=10.0)
        )
        without = loss_and_gradient(
            model, batch, source_space, target_space, TrainConfig(alpha=0.0)
        )
        assert with_alpha[0] == pytest.approx(without[0])
        np.testing.assert_allclose(with_alpha[1], without[1])

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(9)
        space = toy_space(rng, 3, 2)
        model = TranslationModel(np.eye(2), 3)
        with pytest.raises(ValueError):
            loss_and_gradient(model, [], space, space, TrainConfig())


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # With bias correction, the very first update is lr * sign(grad)
        # up to the epsilon fuzz.
        state = AdamState.for_shape((2, 2))
        param = np.zeros((2, 2))
        grad = np.array([[0.5, -3.0], [1e-4, 0.0]])
        updated = state.update(param, grad, 0.05)
        expected = -0.05 * grad / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(updated, expected, atol=1e-9)
        assert state.step == 1


def rotation_task(rng, n_words, dim):
    """Target space = source space rotated by a known orthogonal map."""
    source = toy_space(rng, n_words, dim, prefix="s")
    q = random_orthogonal(rng, dim)
    target_words = tuple(f"t{i}" for i in range(n_words))
    target = EmbeddingSpace(target_words, source.vectors @ q.T)
    pairs = [(f"s{i}", f"t{i}") for i in range(n_words)]
    return source, target, pairs, q


class TestTrain:
    def test_recovers_rotation(self):
        rng = np.random.default_rng(10)
        source, target, pairs, _ = rotation_task(rng, 70, 10)
        config = TrainConfig(alpha=1.0, max_epochs=60, seed=0)
        result = train(pairs[:50], source, target, config)
        hits = sum(
            predict(result.model, f"s{i}", source, target, k=1)[0][0] == f"t{i}"
            for i in range(50, 70)
        )
        assert hits / 20 >= 0.95

    def test_max_epochs_zero_returns_initialization(self):
        rng = np.random.default_rng(11)
        source, target, pairs, _ = rotation_task(rng, 10, 4)
        result = train(pairs, source, target, TrainConfig(max_epochs=0, seed=3))
        np.testing.assert_array_equal(result.model.omega, np.eye(4))
        assert result.epochs_run == 0 and result.best_epoch == 0

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(12)
        source, target, pairs, _ = rotation_task(rng, 30, 6)
        config = TrainConfig(alpha=5.0, max_epochs=8, seed=42)
        first = train(pairs, source, target, config)
        second = train(pairs, source, target, config)
        assert np.array_equal(first.model.omega, second.model.omega)
        assert first.dev_losses == second.dev_losses

    def test_unresolvable_pairs_dropped_and_counted(self):
        rng = np.random.default_rng(13)
        source, target, pairs, _ = rotation_task(rng, 10, 4)
        noisy = pairs + [("missing", "t0"), ("s0", "missing")]
        result = train(noisy, source, target, TrainConfig(max_epochs=1, seed=0))
        assert result.dropped_pairs == 2

    def test_non_finite_dev_loss_stops_with_the_best_finite_snapshot(self, monkeypatch, caplog):
        rng = np.random.default_rng(23)
        source, target, pairs, _ = rotation_task(rng, 30, 6)
        config = TrainConfig(alpha=1.0, max_epochs=10, seed=5)
        one_epoch = train(pairs, source, target, replace(config, max_epochs=1))
        real = translator._loss_and_grad_indexed
        dev_evaluations = 0

        def nan_after_first_epoch(*args, want_grad=True, **kwargs):
            nonlocal dev_evaluations
            if not want_grad:
                dev_evaluations += 1
                if dev_evaluations > 2:  # the initial loss, then epoch 1
                    return float("nan"), None
            return real(*args, want_grad=want_grad, **kwargs)

        monkeypatch.setattr(translator, "_loss_and_grad_indexed", nan_after_first_epoch)
        with caplog.at_level(logging.WARNING, logger="morphlex.translator"):
            result = train(pairs, source, target, config)
        assert result.epochs_run == 2
        assert result.dev_losses[:2] == one_epoch.dev_losses
        assert len(result.dev_losses) == 3 and math.isnan(result.dev_losses[2])
        assert result.best_epoch == one_epoch.best_epoch
        assert np.array_equal(result.model.omega, one_epoch.model.omega)
        assert "not finite" in caplog.text

    def test_all_pairs_unresolvable(self):
        rng = np.random.default_rng(14)
        source, target, _, _ = rotation_task(rng, 5, 3)
        with pytest.raises(NoTrainablePairsError):
            train([("x", "y")], source, target, TrainConfig())

    def test_penalty_pulls_omega_toward_orthogonality(self):
        rng = np.random.default_rng(15)
        source, target, pairs, _ = rotation_task(rng, 40, 6)
        # Perturb the target rows so the task is noisy and omega wants to
        # wander off the orthogonal manifold.
        noisy_target = EmbeddingSpace(
            target.words, target.vectors + 0.35 * rng.normal(size=target.vectors.shape)
        )
        def final_deviation(alpha):
            config = TrainConfig(alpha=alpha, max_epochs=20, seed=7)
            model = train(pairs, source, noisy_target, config).model
            gram = model.omega.T @ model.omega - np.eye(6)
            return float(np.linalg.norm(gram, "fro"))
        assert final_deviation(10.0) < final_deviation(0.0)


class TestPredict:
    def test_identity_shared_space(self):
        rng = np.random.default_rng(16)
        space = toy_space(rng, 12, 5)
        model = TranslationModel(np.eye(5), 12)
        assert predict(model, "w3", space, space, k=1)[0][0] == "w3"

    def test_rotation_construction(self):
        rng = np.random.default_rng(17)
        source, target, _, q = rotation_task(rng, 15, 5)
        model = TranslationModel(q, 15)
        for i in range(15):
            assert predict(model, f"s{i}", source, target, k=1)[0][0] == f"t{i}"

    def test_cosine_argmax_equals_bilinear_argmax_for_unit_rows(self):
        rng = np.random.default_rng(18)
        # Length-normalized only: a space marked centered is not centered again.
        target, _ = preprocess(replace(toy_space(rng, 20, 5, prefix="t"), center=np.zeros(5)))
        source = toy_space(rng, 3, 5, prefix="s")
        model = TranslationModel(rng.normal(size=(5, 5)), 20)
        for word in source.words:
            top = predict(model, word, source, target, k=1)[0][0]
            scores = [
                bilinear_score(model, target.vector(t), source.vector(word))
                for t in target.words
            ]
            assert top == target.words[int(np.argmax(scores))]

    def test_top1_invariant_to_target_row_reordering(self):
        rng = np.random.default_rng(22)
        source, target, _, q = rotation_task(rng, 12, 4)
        model = TranslationModel(q, 12)
        order = rng.permutation(12)
        shuffled = EmbeddingSpace(
            tuple(target.words[i] for i in order), target.vectors[order]
        )
        for i in range(12):
            assert (
                predict(model, f"s{i}", source, target, 1)[0][0]
                == predict(model, f"s{i}", source, shuffled, 1)[0][0]
            )

    def test_argmax_invariant_to_query_rescaling(self):
        rng = np.random.default_rng(19)
        source, target, _, q = rotation_task(rng, 15, 4)
        model_scaled = TranslationModel(3.7 * q, 15)
        model_plain = TranslationModel(q, 15)
        for i in range(15):
            assert (
                predict(model_plain, f"s{i}", source, target, 1)[0][0]
                == predict(model_scaled, f"s{i}", source, target, 1)[0][0]
            )

    def test_unresolvable_word(self):
        rng = np.random.default_rng(20)
        space = toy_space(rng, 4, 3)
        model = TranslationModel(np.eye(3), 4)
        with pytest.raises(WordNotFoundError):
            predict(model, "nope", space, space)


def reference_retrieval(omega, sources, targets, support):
    """Per-query cosine argmax (first maximum, zero rows at -inf) and the
    log-softmax at the winner over the first ``support`` rows, by loops."""
    out = []
    for source in sources:
        mapped = omega @ source
        mapped_norm = math.sqrt(sum(x * x for x in mapped))
        raw = [float(row @ mapped) for row in targets]
        cosines = []
        for row, score in zip(targets, raw):
            row_norm = math.sqrt(sum(x * x for x in row))
            cosines.append(-math.inf if row_norm == 0.0 else score / (mapped_norm * row_norm))
        best = 0
        for j, cosine in enumerate(cosines):
            if cosine > cosines[best]:
                best = j
        top = max(raw[:support])
        log_z = top + math.log(math.fsum(math.exp(r - top) for r in raw[:support]))
        out.append((best, raw[best] - log_z if best < support else None))
    return out


def integer_matrices(rows, cols):
    # Small integers keep every product and squared norm exact, so exact
    # cosine ties (duplicate and parallel rows) are ties in float64 too.
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: np.array(m, dtype=np.float64).reshape(rows, cols))


@st.composite
def retrieval_cases(draw):
    n_t, n_s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_rows, n_queries = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    targets = draw(integer_matrices(n_rows, n_t))
    duplicated = draw(st.lists(st.integers(0, n_rows - 1), max_size=3))
    targets = np.vstack([targets, targets[duplicated]])
    zeroed = draw(st.lists(st.integers(0, len(targets) - 1), max_size=2))
    targets[zeroed] = 0.0
    omega = draw(integer_matrices(n_t, n_s))
    sources = draw(integer_matrices(n_queries, n_s))
    support = draw(st.integers(1, len(targets)))
    block_rows = draw(st.integers(1, 4))
    return omega, sources, targets, support, block_rows


class TestRetrieve:
    def test_block_rows_take_a_sixteenth_of_a_large_target(self):
        # A 16k x 300 target gets blocks of 18 rows from a sixteenth of its
        # 38.4 MB; a 960 x 24 target keeps the 64 KB floor's 8 rows.
        large = EmbeddingSpace(tuple(map(str, range(16_000))), np.zeros((16_000, 300)))
        small = EmbeddingSpace(tuple(map(str, range(960))), np.zeros((960, 24)))
        assert translator.score_block_rows(large) == 18
        assert translator.score_block_rows(small) == translator.SCORE_BLOCK_BYTES // (8 * 960) == 8

    @settings(max_examples=300, deadline=None)
    @given(retrieval_cases())
    def test_matches_per_query_reference(self, case):
        omega, sources, targets, support, block_rows = case
        space = EmbeddingSpace(tuple(f"t{i}" for i in range(len(targets))), targets)
        model = TranslationModel(omega, support)
        budget = block_rows * 8 * len(targets)
        with mock.patch.object(translator, "SCORE_BLOCK_BYTES", budget):
            if not np.all((sources @ omega.T).any(axis=1)):
                with pytest.raises(ValueError, match="zero query"):
                    retrieve(model, sources, space)
                return
            winners, log_probs = retrieve(model, sources, space)
        expected = reference_retrieval(omega, sources, targets, support)
        assert list(winners) == [best for best, _ in expected]
        for got, (_, want) in zip(log_probs, expected):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_blocks_of_two_rows_cover_the_batch(self):
        # Seven queries over four blocks of two rows give the same answers
        # as one query at a time.
        rng = np.random.default_rng(24)
        space = toy_space(rng, 6, 3, prefix="t")
        model = TranslationModel(rng.normal(size=(3, 3)), 5)
        sources = rng.normal(size=(7, 3))
        with mock.patch.object(translator, "SCORE_BLOCK_BYTES", 2 * 8 * 6):
            assert translator.score_block_rows(space) == 2
            winners, log_probs = retrieve(model, sources, space)
        for source, winner, lp in zip(sources, winners, log_probs):
            word = space.words[winner]
            one = EmbeddingSpace(("s",), source[None, :])
            assert predict(model, "s", one, space)[0][0] == word
            if winner < 5:
                assert lp == pytest.approx(log_prob(model, space, word, source), abs=1e-12)
            else:
                assert lp is None


class TestModelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        model = TranslationModel(rng.normal(size=(4, 3)), 99)
        path = str(tmp_path / "m.omega")
        save_model(model, path, metadata={"source_center": [0.0, 0.1, 0.2]})
        reloaded = load_model(path)
        assert np.array_equal(reloaded.omega, model.omega)
        assert reloaded.normalizer_vocab_size == 99
        with open(f"{path}.meta.json", encoding="utf-8") as handle:
            assert json.load(handle) == {"source_center": [0.0, 0.1, 0.2]}

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        data=st.data(),
        support=st.integers(1, 10**6),
    )
    def test_round_trip_property_is_bit_exact(self, tmp_path_factory, shape, data, support):
        special = st.sampled_from([-0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
                                   -1.7976931348623157e308])
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | special,
                                    min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        model = TranslationModel(np.array(values).reshape(shape), support)
        path = str(tmp_path_factory.mktemp("model") / "m.omega")
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.omega.tobytes() == model.omega.tobytes()
        assert reloaded.normalizer_vocab_size == support

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1 0\n\n0 1 1\n", "line 4: expected 2 values, found 3 values"),
            ("1 0\n0 x\n", "line 3: non-numeric value"),
            ("1 0\n0 nan\n", "line 3: non-finite value"),
            ("1 0\n", "expected 2 rows, found 1"),
            ("1 0\n0 1\n1 1\n", "expected 2 rows, found 3"),
        ],
    )
    def test_bad_rows_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "m.omega"
        path.write_text("MORPHLEX-OMEGA v1 2 2 1\n" + body)
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("sizes", ["2 -1 1", "0 2 1", "2 2 0"])
    def test_non_positive_header_value_rejected(self, tmp_path, sizes):
        path = tmp_path / "m.omega"
        path.write_text(f"MORPHLEX-OMEGA v1 {sizes}\n1 0\n0 1\n")
        with pytest.raises(ModelFormatError, match="invalid header values"):
            load_model(str(path))

    def test_missing_metadata_is_none(self, tmp_path):
        model = TranslationModel(np.eye(2), 1)
        path = str(tmp_path / "m.omega")
        save_model(model, path)
        assert not os.path.exists(f"{path}.meta.json")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.omega"
        path.write_text("WRONG v1 2 2 1\n1 0\n0 1\n")
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.omega"
        path.write_text("MORPHLEX-OMEGA v1 2 2 1\n1 0\n")
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_model_invariants(self):
        with pytest.raises(ValueError):
            TranslationModel(np.array([[np.inf, 0.0]]), 1)
        with pytest.raises(ValueError):
            TranslationModel(np.eye(2), 0)
