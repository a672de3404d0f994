from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex.embeddings import (
    CompositionError,
    EmbeddingSpace,
    VecFormatError,
    WordNotFoundError,
    compose_oov,
    length_normalize,
    load_ngram_table,
    load_vec_file,
    mean_center,
    nearest,
    ngrams,
    preprocess,
    save_vec_file,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadVecFile:
    def test_basic_file(self, tmp_path):
        path = write(tmp_path / "a.vec", "3 2\na 1 0\nb 0 1\nc 1 1\n")
        space = load_vec_file(path)
        assert space.words == ("a", "b", "c")
        assert space.dim == 2
        assert space.frequency_rank("a") == 0
        np.testing.assert_array_equal(space.vector("c"), [1.0, 1.0])

    def test_max_words_truncates(self, tmp_path):
        path = write(tmp_path / "a.vec", "3 2\na 1 0\nb 0 1\nc 1 1\n")
        space = load_vec_file(path, max_words=2)
        assert space.words == ("a", "b")

    def test_wrong_float_count_names_line(self, tmp_path):
        path = write(tmp_path / "a.vec", "2 3\na 1 0\nb 0 1 0\n")
        with pytest.raises(VecFormatError, match="line 2"):
            load_vec_file(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "a.vec", "a 1 0\n")
        with pytest.raises(VecFormatError):
            load_vec_file(path)

    def test_short_header(self, tmp_path):
        path = write(tmp_path / "a.vec", "3\na 1 0\n")
        with pytest.raises(VecFormatError):
            load_vec_file(path)

    def test_duplicate_word_keeps_first(self, tmp_path, caplog):
        path = write(tmp_path / "a.vec", "3 2\na 1 0\na 9 9\nb 0 1\n")
        with caplog.at_level("WARNING"):
            space = load_vec_file(path)
        assert space.words == ("a", "b")
        np.testing.assert_array_equal(space.vector("a"), [1.0, 0.0])
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path / "a.vec", "1 2\na 1 x\n")
        with pytest.raises(VecFormatError, match="line 2"):
            load_vec_file(path)

    @pytest.mark.parametrize(
        "text, kept", [("3 2\na 1 0\nb 0 1\n", 2), ("3 2\na 1 0\na 0 1\n", 1)]
    )
    def test_fewer_rows_than_header_rejected(self, tmp_path, text, kept):
        # Lines are counted, not kept words: with a duplicate dropped the
        # file is still short, and two lines satisfy max_words=2.
        path = write(tmp_path / "a.vec", text)
        with pytest.raises(VecFormatError, match="expected 3 rows after the header, found 2"):
            load_vec_file(path)
        assert len(load_vec_file(path, max_words=2)) == kept

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = write(tmp_path / "a.vec", f"2 2\na 1 0\nb 0 {value}\n")
        with pytest.raises(VecFormatError, match="non-finite value in the vector of 'b'"):
            load_vec_file(path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        space = EmbeddingSpace(("w1", "w2", "w3"), rng.normal(size=(3, 5)))
        out = tmp_path / "out.vec"
        save_vec_file(space, str(out))
        reloaded = load_vec_file(str(out), max_words=None)
        assert reloaded.words == space.words
        assert np.array_equal(reloaded.vectors, space.vectors)
        # and a second round trip stays identical
        out2 = tmp_path / "out2.vec"
        save_vec_file(reloaded, str(out2))
        assert out.read_text() == out2.read_text()


class TestSpaceInvariants:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSpace(("a", "a"), np.eye(2))

    def test_lookup_contract(self):
        space = EmbeddingSpace(("a", "b"), np.eye(2))
        assert space.index("b") == 1
        assert space.index_or_none("zz") is None
        with pytest.raises(WordNotFoundError):
            space.index("zz")

    def test_with_composed_appends_after_file_rows(self):
        space = EmbeddingSpace(("a", "b"), np.eye(2))
        grown = space.with_composed([("c", np.array([1.0, 1.0]))])
        assert grown.words == ("a", "b", "c")
        assert grown.frequency_rank("a") == 0 and grown.frequency_rank("b") == 1
        assert grown.frequency_rank("c") is None and grown.frequency_rank("zz") is None
        assert grown.is_composed("c") and not grown.is_composed("a")
        assert grown.n_file_loaded == 2

    def test_with_composed_rejects_existing(self):
        space = EmbeddingSpace(("a",), np.ones((1, 2)))
        with pytest.raises(ValueError):
            space.with_composed([("a", np.zeros(2))])


class TestLengthNormalize:
    def test_three_four_five(self):
        space = EmbeddingSpace(("w",), np.array([[3.0, 4.0]]))
        normalized, warnings = length_normalize(space)
        np.testing.assert_allclose(normalized.vectors[0], [0.6, 0.8])
        assert warnings == []

    def test_zero_row_warned_and_unchanged(self):
        space = EmbeddingSpace(("z", "w"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        normalized, warnings = length_normalize(space)
        np.testing.assert_array_equal(normalized.vectors[0], [0.0, 0.0])
        assert warnings == ["z"]

    def test_unit_row_unchanged(self):
        space = EmbeddingSpace(("w",), np.array([[1.0, 0.0]]))
        normalized, _ = length_normalize(space)
        np.testing.assert_allclose(normalized.vectors[0], [1.0, 0.0])

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(20)), rng.normal(size=(20, 7)))
        normalized, _ = length_normalize(space)
        norms = np.linalg.norm(normalized.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)


class TestMeanCenter:
    def test_two_point_symmetry(self):
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 1.0], [3.0, 3.0]]))
        centered = mean_center(space)
        np.testing.assert_allclose(centered.vectors, [[-1.0, -1.0], [1.0, 1.0]])

    def test_single_row_goes_to_zero(self):
        space = EmbeddingSpace(("a",), np.array([[5.0, 7.0]]))
        centered = mean_center(space)
        np.testing.assert_allclose(centered.vectors, [[0.0, 0.0]])

    def test_idempotent_on_centered_data(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(6, 3))
        rows -= rows.mean(axis=0)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(6)), rows)
        centered = mean_center(space)
        np.testing.assert_allclose(centered.vectors, rows, atol=1e-12)

    def test_empty_space_errors(self):
        space = EmbeddingSpace((), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            mean_center(space)

    def test_mean_is_zero_after(self):
        rng = np.random.default_rng(2)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(9)), rng.normal(size=(9, 4)))
        centered = mean_center(space)
        np.testing.assert_allclose(centered.vectors.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(centered.center, space.vectors.mean(axis=0))


class TestComposeOov:
    def test_two_trigram_case(self):
        table = {"<ab": np.array([1.0, 0.0]), "ab>": np.array([0.0, 1.0])}
        np.testing.assert_array_equal(compose_oov("ab", table), [1.0, 1.0])

    def test_no_overlap_is_an_error(self):
        with pytest.raises(CompositionError):
            compose_oov("ab", {"xyz": np.array([9.0, 9.0])})

    def test_enumeration_matches_brute_force(self):
        # Oracle: enumerate all 3..6-grams of "<abc>" directly.
        wrapped = "<abc>"
        expected_grams = [
            wrapped[i : i + n]
            for n in range(3, 7)
            for i in range(len(wrapped) - n + 1)
        ]
        assert sorted(expected_grams) == sorted(ngrams("abc"))
        rng = np.random.default_rng(5)
        table = {g: rng.normal(size=4) for g in expected_grams}
        expected = sum(table[g] for g in expected_grams)
        np.testing.assert_allclose(compose_oov("abc", table), expected)

    def test_absent_ngrams_contribute_nothing(self):
        table = {"<ab": np.array([2.0, 0.0])}
        np.testing.assert_array_equal(compose_oov("ab", table), [2.0, 0.0])

    @given(st.text(alphabet="abcd", min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_additive_over_table_split(self, form, seed):
        rng = np.random.default_rng(seed)
        grams = sorted(set(ngrams(form)))
        table = {g: rng.normal(size=3) for g in grams}
        half = len(table) // 2
        items = sorted(table)
        left = {g: table[g] for g in items[:half]}
        right = {g: table[g] for g in items[half:]}
        whole = compose_oov(form, table)
        parts = np.zeros(3)
        for sub in (left, right):
            try:
                parts = parts + compose_oov(form, sub)
            except CompositionError:
                pass
        np.testing.assert_allclose(whole, parts, atol=1e-12)


class TestNgramTable:
    def test_load(self, tmp_path):
        path = write(tmp_path / "t.ngrams", "<ab 1 0\nab> 0 1\n")
        table = load_ngram_table(path, dim=2)
        assert set(table) == {"<ab", "ab>"}
        np.testing.assert_array_equal(table["<ab"], [1.0, 0.0])

    def test_dim_mismatch(self, tmp_path):
        path = write(tmp_path / "t.ngrams", "<ab 1 0 3\n")
        with pytest.raises(VecFormatError):
            load_ngram_table(path, dim=2)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        # A non-finite n-gram row would turn every composed vector that
        # uses it into NaN, and a cosine argmax over NaN still picks a word.
        path = write(tmp_path / "t.ngrams", f"<sa 1 {value}\n")
        with pytest.raises(VecFormatError, match="line 1: non-finite"):
            load_ngram_table(path, dim=2)


class TestNearest:
    def test_exact_match(self):
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert nearest(space, np.array([1.0, 0.0]), 1) == [("a", 1.0)]

    def test_symmetric_tie_prefers_lower_rank(self):
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        query = np.array([1.0, 1.0]) / np.sqrt(2.0)
        result = nearest(space, query, 2)
        assert [w for w, _ in result] == ["a", "b"]
        for _, score in result:
            assert score == pytest.approx(1.0 / np.sqrt(2.0))

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(10, 6))
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(10)), vectors)
        query = rng.normal(size=6)
        got = nearest(space, query, 10)
        # Oracle: brute-force cosine against every row, stable sort.
        cosines = [
            float(v @ query / (np.linalg.norm(v) * np.linalg.norm(query)))
            for v in vectors
        ]
        expected = sorted(range(10), key=lambda i: (-cosines[i], i))
        assert [w for w, _ in got] == [f"w{i}" for i in expected]
        for (_, score), i in zip(got, expected):
            assert score == pytest.approx(cosines[i], abs=1e-12)

    def test_zero_query_rejected(self):
        space = EmbeddingSpace(("a",), np.ones((1, 2)))
        with pytest.raises(ValueError):
            nearest(space, np.zeros(2), 1)

    def test_tie_break_is_permutation_stable(self):
        # Three identical directions: the winner is always the lowest rank,
        # whichever word occupies it.
        vectors = np.array([[2.0, 0.0], [1.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        for order in (("a", "b", "c", "d"), ("c", "a", "b", "d"), ("b", "c", "a", "d")):
            space = EmbeddingSpace(order, vectors)
            assert nearest(space, np.array([1.0, 0.0]), 1)[0][0] == order[0]

    def test_cosine_equals_dot_after_normalize(self):
        rng = np.random.default_rng(4)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(30)), rng.normal(size=(30, 5)))
        normalized, _ = length_normalize(space)
        query = rng.normal(size=5)
        query /= np.linalg.norm(query)
        for word, score in nearest(normalized, query, 30):
            dot = float(normalized.vector(word) @ query)
            assert abs(score - dot) < 1e-9

    def test_zero_rows_never_win(self):
        space = EmbeddingSpace(("z", "w"), np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert nearest(space, np.array([0.0, 1.0]), 1)[0][0] == "w"

    def test_row_norms_cached_and_rebuilt_by_replace(self):
        space = EmbeddingSpace(("a", "z"), np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert space.row_norms is space.row_norms
        np.testing.assert_array_equal(space.row_norms, [5.0, 0.0])
        scaled = replace(space, vectors=2.0 * space.vectors)
        np.testing.assert_array_equal(scaled.row_norms, [10.0, 0.0])
        np.testing.assert_array_equal(space.with_composed([("b", np.ones(2))]).row_norms,
                                      [5.0, 0.0, np.sqrt(2.0)])


class TestPreprocess:
    def test_order_normalize_then_center(self):
        rng = np.random.default_rng(8)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(12)), rng.normal(size=(12, 4)))
        processed, _ = preprocess(space)
        normalized, _ = length_normalize(space)
        np.testing.assert_allclose(
            processed.vectors, normalized.vectors - normalized.vectors.mean(axis=0)
        )
        # Norms are generally not unit after centering; only the mean is pinned.
        np.testing.assert_allclose(processed.vectors.mean(axis=0), 0.0, atol=1e-12)
