import json
import re
import tracemalloc
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
    load_ngram_table,
    load_space,
    ngrams,
    preprocess,
    save_space,
    save_vec_file,
)
from morphlex.translator import TranslationModel, retrieve


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# Words as fastText writes them: no ASCII whitespace, but any other
# character, including Unicode spaces such as U+00A0 and U+2003.
vec_words = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters=" \t\n\r\x0b\x0c")
    | st.sampled_from("\u00a0\u2003"),
    min_size=1,
    max_size=6,
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def vec_spaces(draw):
    words = draw(st.lists(vec_words, min_size=1, max_size=5, unique=True))
    dim = draw(st.integers(1, 4))
    values = draw(
        st.lists(finite_floats | st.sampled_from([-0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
                                                  -1.7976931348623157e308]),
                 min_size=len(words) * dim, max_size=len(words) * dim)
    )
    return EmbeddingSpace(tuple(words), np.array(values).reshape(len(words), dim))


def long_vec_text(bad_row, bad_lineno=1500, rows=2000, dim=3):
    """A ``rows``-row .vec file whose line 11 repeats the word of line 2
    and whose line ``bad_lineno`` is ``bad_row``."""
    lines = [f"{rows} {dim}"]
    for lineno in range(2, rows + 2):
        word = "w2" if lineno == 11 else f"w{lineno}"
        lines.append(bad_row if lineno == bad_lineno else f"{word} {lineno} 0.5 -1")
    return "\n".join(lines) + "\n"


class TestLoadVecFile:
    """Loading a .vec file without a sidecar."""

    def test_basic_file(self, tmp_path):
        path = write(tmp_path / "a.vec", "3 2\na 1 0\nb 0 1\nc 1 1\n")
        space = load_space(path)
        assert space.words == ("a", "b", "c")
        assert space.dim == 2
        assert space.frequency_rank("a") == 0
        np.testing.assert_array_equal(space.vector("c"), [1.0, 1.0])

    def test_max_words_truncates(self, tmp_path):
        path = write(tmp_path / "a.vec", "3 2\na 1 0\nb 0 1\nc 1 1\n")
        space = load_space(path, max_words=2)
        assert space.words == ("a", "b")

    def test_wrong_float_count_names_line(self, tmp_path):
        path = write(tmp_path / "a.vec", "2 3\na 1 0\nb 0 1 0\n")
        with pytest.raises(VecFormatError, match="line 2"):
            load_space(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path / "a.vec", "a 1 0\n")
        with pytest.raises(VecFormatError):
            load_space(path)

    def test_short_header(self, tmp_path):
        path = write(tmp_path / "a.vec", "3\na 1 0\n")
        with pytest.raises(VecFormatError):
            load_space(path)

    def test_duplicate_word_keeps_first(self, tmp_path, caplog):
        path = write(tmp_path / "a.vec", "3 2\na 1 0\na 9 9\nb 0 1\n")
        with caplog.at_level("WARNING"):
            space = load_space(path)
        assert space.words == ("a", "b")
        np.testing.assert_array_equal(space.vector("a"), [1.0, 0.0])
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path / "a.vec", "1 2\na 1 x\n")
        with pytest.raises(VecFormatError, match="line 2"):
            load_space(path)

    @pytest.mark.parametrize(
        "text, kept", [("3 2\na 1 0\nb 0 1\n", 2), ("3 2\na 1 0\na 0 1\n", 1)]
    )
    def test_fewer_rows_than_header_rejected(self, tmp_path, text, kept):
        # Lines are counted, not kept words: with a duplicate dropped the
        # file is still short, and two lines satisfy max_words=2.
        path = write(tmp_path / "a.vec", text)
        with pytest.raises(VecFormatError, match="expected 3 rows after the header, found 2"):
            load_space(path)
        assert len(load_space(path, max_words=2)) == kept

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = write(tmp_path / "a.vec", f"2 2\na 1 0\nb 0 {value}\n")
        with pytest.raises(VecFormatError, match="non-finite value in the vector of 'b'"):
            load_space(path)

    def test_word_with_no_break_space_loads(self, tmp_path):
        # A word ends at the first ASCII space or tab; U+00A0 is part of it.
        path = write(tmp_path / "a.vec", "2 2\na\u00a0b 1 0\nc 0 1\n")
        space = load_space(path)
        assert space.words == ("a\u00a0b", "c")
        np.testing.assert_array_equal(space.vectors, [[1.0, 0.0], [0.0, 1.0]])

    def test_tab_after_word_and_trailing_space_load(self, tmp_path):
        path = write(tmp_path / "a.vec", "2 2\na\t1 0\nc 0 1 \n")
        space = load_space(path)
        assert space.words == ("a", "c")
        np.testing.assert_array_equal(space.vectors, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("w1500 1 0.5", "expected a word and 3 values, found 2 values"),
            ("w1500 1 0.5 -1 7", "expected a word and 3 values, found 4 values"),
            ("w1500 1 x -1", "non-numeric value"),
            ("", "expected a word and 3 values, found 0 values"),
            ("w1500", "expected a word and 3 values, found 0 values"),
            ("w1500 1 nan -1", "non-finite value in the vector of 'w1500'"),
        ],
    )
    def test_late_fault_names_its_line(self, tmp_path, caplog, bad_row, message):
        path = write(tmp_path / "a.vec", long_vec_text(bad_row))
        with caplog.at_level("WARNING"), pytest.raises(VecFormatError) as info:
            load_space(path)
        assert str(info.value) == f"{path}: line 1500: {message}"
        assert any(
            "line 11: duplicate" in rec.message and "'w2'" in rec.message for rec in caplog.records
        )

    def test_long_file_with_a_duplicate_loads_in_order(self, tmp_path):
        path = write(tmp_path / "a.vec", long_vec_text("w1500 1500 0.5 -1"))
        space = load_space(path)
        assert len(space) == 1999
        assert space.words[:10] == tuple(f"w{n}" for n in range(2, 11)) + ("w12",)
        np.testing.assert_array_equal(space.vector("w2"), [2.0, 0.5, -1.0])
        np.testing.assert_array_equal(space.vectors[:, 0], [n for n in range(2, 2002) if n != 11])

    @settings(max_examples=200, deadline=None)
    @given(space=vec_spaces())
    def test_round_trip_property_is_bit_exact(self, tmp_path_factory, space):
        out = tmp_path_factory.mktemp("vec") / "out.vec"
        save_vec_file(space, str(out))
        reloaded = load_space(str(out), max_words=None)
        assert reloaded.words == space.words
        assert reloaded.vectors.tobytes() == space.vectors.tobytes()

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        space = EmbeddingSpace(("w1", "w2", "w3"), rng.normal(size=(3, 5)))
        out = tmp_path / "out.vec"
        save_vec_file(space, str(out))
        reloaded = load_space(str(out), max_words=None)
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
        assert grown.index("c") >= grown.n_file_loaded > grown.index("a")
        assert grown.n_file_loaded == 2

    def test_with_composed_rejects_existing(self):
        space = EmbeddingSpace(("a",), np.ones((1, 2)))
        with pytest.raises(ValueError):
            space.with_composed([("a", np.zeros(2))])


class TestSidecarChecks:
    """``center`` is None or ``dim`` finite floats, checked by the
    constructor, and composed rows come after every file-loaded row, the
    first ``n_file_loaded``: a ``load_space`` sidecar that breaks either is
    a VecFormatError."""

    @pytest.mark.parametrize("center", [[0.5], [0.5, 1.0, 2.0], [0.5, float("nan")], "ab"])
    def test_center_must_be_dim_finite_floats(self, center):
        with pytest.raises(ValueError, match="center must be None or 2 finite floats"):
            EmbeddingSpace(("a", "b", "c"), np.eye(3, 2), center=center)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 8), count=st.integers(-2, 10))
    def test_composed_rows_must_follow_file_rows(self, rows, count):
        words = tuple(f"w{i}" for i in range(rows))
        if 0 <= count <= rows:
            space = EmbeddingSpace(words, np.ones((rows, 2)), count)
            assert space.n_file_loaded == count
            ranks = [space.frequency_rank(word) for word in words]
            assert ranks == [i if i < count else None for i in range(rows)]
        else:
            with pytest.raises(ValueError, match="n_file_loaded must lie in"):
                EmbeddingSpace(words, np.ones((rows, 2)), count)

    @pytest.mark.parametrize("preprocessed", [False, True])
    @pytest.mark.parametrize(
        "meta, message",
        [
            ({"center": [0.5]}, "center must be None or 2 finite floats"),
            ({"center": [0.5, 1.0, 2.0]}, "center must be None or 2 finite floats"),
            ({"composed": ["x"]}, "composed rows must come after every file-loaded row"),
            ([0.5, 0.5], "expected a JSON object"),
        ],
    )
    def test_bad_sidecar_is_a_format_error_naming_it(self, tmp_path, meta, message, preprocessed):
        path = write(tmp_path / "s.vec", "3 2\nx 3 4\ny 1 0\nz 0 1\n")
        (tmp_path / "s.vec.meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(VecFormatError) as info:
            load_space(path, preprocessed=preprocessed)
        assert str(info.value) == f"{path}.meta.json: {message}"


def normalize_only(space):
    """``preprocess`` of a space marked centered (at the origin) only
    length-normalizes."""
    return preprocess(replace(space, center=np.zeros(space.dim)))


def center_only(space):
    """``preprocess`` of a space marked unit-normalized only centers."""
    return preprocess(replace(space, unit_normalized=True))[0]


class TestLengthNormalize:
    def test_three_four_five(self):
        space = EmbeddingSpace(("w",), np.array([[3.0, 4.0]]))
        normalized, warnings = normalize_only(space)
        np.testing.assert_allclose(normalized.vectors[0], [0.6, 0.8])
        assert warnings == []

    def test_zero_row_warned_and_unchanged(self):
        space = EmbeddingSpace(("z", "w"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        normalized, warnings = normalize_only(space)
        np.testing.assert_array_equal(normalized.vectors[0], [0.0, 0.0])
        assert warnings == ["z"]

    def test_unit_row_unchanged(self):
        space = EmbeddingSpace(("w",), np.array([[1.0, 0.0]]))
        normalized, _ = normalize_only(space)
        np.testing.assert_allclose(normalized.vectors[0], [1.0, 0.0])

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(20)), rng.normal(size=(20, 7)))
        normalized, _ = normalize_only(space)
        norms = np.linalg.norm(normalized.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)


class TestMeanCenter:
    def test_two_point_symmetry(self):
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 1.0], [3.0, 3.0]]))
        centered = center_only(space)
        np.testing.assert_allclose(centered.vectors, [[-1.0, -1.0], [1.0, 1.0]])

    def test_single_row_goes_to_zero(self):
        space = EmbeddingSpace(("a",), np.array([[5.0, 7.0]]))
        centered = center_only(space)
        np.testing.assert_allclose(centered.vectors, [[0.0, 0.0]])

    def test_idempotent_on_centered_data(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(6, 3))
        rows -= rows.mean(axis=0)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(6)), rows)
        centered = center_only(space)
        np.testing.assert_allclose(centered.vectors, rows, atol=1e-12)

    def test_empty_space_errors(self):
        space = EmbeddingSpace((), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            center_only(space)

    def test_mean_is_zero_after(self):
        rng = np.random.default_rng(2)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(9)), rng.normal(size=(9, 4)))
        centered = center_only(space)
        np.testing.assert_allclose(centered.vectors.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(centered.center, space.vectors.mean(axis=0))


def reference_preprocess(vectors, n_file_loaded, unit_normalized, center):
    """Preprocessing with whole-matrix arithmetic: norms of every row in
    one ``np.linalg.norm`` call, division by the norms with zero norms
    replaced by 1, then subtraction of the mean of the first
    ``n_file_loaded`` rows."""
    if not unit_normalized:
        norms = np.linalg.norm(vectors, axis=1)
        vectors = vectors / np.where(norms == 0.0, 1.0, norms)[:, None]
    if center is None:
        center = vectors[:n_file_loaded].mean(axis=0)
        vectors = vectors - center
    return vectors, center


@st.composite
def stored_spaces(draw):
    """A space with zero rows, a row count that is often not a multiple of
    the normalization block, composed rows or none, and a sidecar that
    marks it raw, normalized only or fully preprocessed, or no sidecar."""
    rows = draw(st.integers(1, 2600) | st.sampled_from([1023, 1024, 1025, 2048]))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(rows, dim))
    vectors[draw(st.lists(st.integers(0, rows - 1), max_size=3))] = 0.0
    n_file_loaded = rows - draw(st.integers(0, min(3, rows)))
    state = draw(st.sampled_from(["no sidecar", "raw", "normalized", "preprocessed"]))
    center = rng.normal(size=dim) if state == "preprocessed" else None
    space = EmbeddingSpace(
        tuple(f"w{i}" for i in range(rows)), vectors, n_file_loaded,
        unit_normalized=state in ("normalized", "preprocessed"), center=center,
    )
    return space, state


class TestPreprocessBits:
    @settings(max_examples=40, deadline=None)
    @given(stored=stored_spaces())
    def test_load_and_preprocess_match_the_reference_bit_for_bit(self, tmp_path_factory, stored):
        space, state = stored
        path = str(tmp_path_factory.mktemp("vec") / "s.vec")
        if state == "no sidecar":
            save_vec_file(space, path)
        else:
            save_space(space, path)
        before = space.vectors.tobytes()
        loaded_count = len(space) if state == "no sidecar" else space.n_file_loaded
        runs = (
            (lambda: load_space(path, max_words=None, preprocessed=True), loaded_count),
            (lambda: preprocess(space)[0], space.n_file_loaded),
        )
        for run, count in runs:
            if space.center is None and count == 0:
                with pytest.raises(ValueError, match="no file-loaded rows"):
                    run()
                continue
            expected, expected_center = reference_preprocess(
                space.vectors, count, space.unit_normalized, space.center
            )
            result = run()
            assert space.vectors.tobytes() == before
            assert result.vectors.tobytes() == expected.tobytes()
            assert result.center.tobytes() == expected_center.tobytes()
            assert result.unit_normalized and not result.vectors.flags.writeable
            assert result.n_file_loaded == count

    def test_constructor_copies_the_callers_array(self):
        array = np.arange(6.0).reshape(3, 2)
        space = EmbeddingSpace(("a", "b", "c"), array)
        preprocess(space)
        assert array.flags.writeable and not space.vectors.flags.writeable
        np.testing.assert_array_equal(array, np.arange(6.0).reshape(3, 2))
        assert not np.shares_memory(array, space.vectors)

    def test_load_and_preprocess_peak_memory_is_one_matrix(self, tmp_path):
        # Parsing, normalizing and centering hold one matrix, plus the
        # parser's growth slack and the words: not a copy per step.
        rng = np.random.default_rng(12)
        path = str(tmp_path / "big.vec")
        save_vec_file(EmbeddingSpace(tuple(f"w{i}" for i in range(4000)),
                                     rng.normal(size=(4000, 50))), path)
        tracemalloc.start()
        try:
            space = load_space(path, preprocessed=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.vectors.shape == (4000, 50)
        assert peak <= 1.5 * space.vectors.nbytes


class TestComposeOov:
    def test_two_trigram_case(self):
        table = EmbeddingSpace(("<ab", "ab>"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(compose_oov("ab", table), [1.0, 1.0])

    def test_no_overlap_is_an_error(self):
        with pytest.raises(CompositionError):
            compose_oov("ab", EmbeddingSpace(("xyz",), np.array([[9.0, 9.0]])))

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
        table = EmbeddingSpace(tuple(expected_grams), rng.normal(size=(len(expected_grams), 4)))
        expected = sum(table.vector(g) for g in expected_grams)
        np.testing.assert_allclose(compose_oov("abc", table), expected)

    def test_absent_ngrams_contribute_nothing(self):
        table = EmbeddingSpace(("<ab",), np.array([[2.0, 0.0]]))
        np.testing.assert_array_equal(compose_oov("ab", table), [2.0, 0.0])

    @given(
        st.text(alphabet="ab", min_size=1, max_size=16),
        st.sampled_from([2, 3, 7, 24, 300]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_is_the_left_to_right_loop_bit_for_bit(self, form, dim, seed):
        # The axis-0 sum of the gathered rows adds them in occurrence
        # order, repeats included. At dim 1 numpy sums the one column
        # pairwise instead, so the bits may differ there.
        rng = np.random.default_rng(seed)
        grams = sorted(set(ngrams(form)))[::2]
        table = EmbeddingSpace(tuple(grams), rng.normal(size=(len(grams), dim)))
        total = None
        for gram in ngrams(form):
            if gram in table:
                total = table.vector(gram) if total is None else total + table.vector(gram)
        assert compose_oov(form, table).tobytes() == total.tobytes()

    @given(st.text(alphabet="abcd", min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_additive_over_table_split(self, form, seed):
        rng = np.random.default_rng(seed)
        grams = sorted(set(ngrams(form)))
        table = EmbeddingSpace(tuple(grams), rng.normal(size=(len(grams), 3)))
        half = len(table) // 2
        left = EmbeddingSpace(table.words[:half], table.vectors[:half])
        right = EmbeddingSpace(table.words[half:], table.vectors[half:])
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
        assert isinstance(table, EmbeddingSpace)
        assert set(table.words) == {"<ab", "ab>"}
        np.testing.assert_array_equal(table.vector("<ab"), [1.0, 0.0])

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

    def test_non_finite_value_after_blank_lines_names_its_line(self, tmp_path):
        path = write(tmp_path / "t.ngrams", "<ab 1 0\n\n  \nab> 0 1\n\n\t\n<sa 1 nan\nsal 0 0\n")
        with pytest.raises(VecFormatError, match=re.escape(": line 7: non-finite value")):
            load_ngram_table(path, dim=2)

    def test_blank_lines_are_skipped_and_repeats_keep_the_first_row(self, tmp_path):
        path = write(tmp_path / "t.ngrams", "\n<ab 1 0\n\n<ab 5 5\nb\u00a0c> 0 1\n")
        table = load_ngram_table(path, dim=2)
        assert list(table.words) == ["<ab", "b\u00a0c>"]
        np.testing.assert_array_equal(table.vector("<ab"), [1.0, 0.0])


def nearest_word(space, query):
    """The cosine 1-best word of ``space`` for ``query``: ``retrieve``
    under the identity map."""
    model = TranslationModel(np.eye(space.dim), len(space))
    winners, _ = retrieve(model, np.asarray(query, dtype=np.float64)[None, :], space)
    return space.words[winners[0]]


class TestNearest:
    def test_exact_match(self):
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert nearest_word(space, np.array([1.0, 0.0])) == "a"

    def test_zero_query_rejected(self):
        space = EmbeddingSpace(("a",), np.ones((1, 2)))
        with pytest.raises(ValueError):
            nearest_word(space, np.zeros(2))

    def test_tie_break_is_permutation_stable(self):
        # Three identical directions: the winner is always the lowest rank,
        # whichever word occupies it.
        vectors = np.array([[2.0, 0.0], [1.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
        for order in (("a", "b", "c", "d"), ("c", "a", "b", "d"), ("b", "c", "a", "d")):
            space = EmbeddingSpace(order, vectors)
            assert nearest_word(space, np.array([1.0, 0.0])) == order[0]

    def test_zero_rows_never_win(self):
        space = EmbeddingSpace(("z", "w"), np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert nearest_word(space, np.array([0.0, 1.0])) == "w"

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
        normalized, _ = normalize_only(space)
        np.testing.assert_allclose(
            processed.vectors, normalized.vectors - normalized.vectors.mean(axis=0)
        )
        # Norms are generally not unit after centering; only the mean is pinned.
        np.testing.assert_allclose(processed.vectors.mean(axis=0), 0.0, atol=1e-12)
