import errno
import io
import json
import logging
import mmap
import os
import pickle
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlex import embeddings
from morphlex.embeddings import (
    CompositionError,
    EmbeddingSpace,
    VecFormatError,
    WordNotFoundError,
    _normalize_rows_in_place,
    compose_oov,
    load_ngram_table,
    load_space,
    load_spaces,
    ngrams,
    preprocess,
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
        assert space.index_or_none("a") == 0
        np.testing.assert_array_equal(space.vectors[space.index("c")], [1.0, 1.0])

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
        np.testing.assert_array_equal(space.vectors[space.index("a")], [1.0, 0.0])
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

    def test_header_claiming_more_rows_than_the_file_holds_is_a_short_file(self, tmp_path):
        # The matrix is sized by what the file can hold, not by the header.
        path = write(tmp_path / "a.vec", "1000000000000 3\na 1 0 2\n")
        message = "expected 1000000000000 rows after the header, found 1"
        with pytest.raises(VecFormatError, match=message):
            load_space(path, max_words=None)

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
        np.testing.assert_array_equal(space.vectors[space.index("w2")], [2.0, 0.5, -1.0])
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


class TestSidecarChecks:
    """``center`` is None or ``dim`` finite floats, checked by the
    constructor; a ``.meta.json`` sidecar beside a .vec file, which only
    the retired OOV-composition subcommand wrote, is a VecFormatError
    naming the sidecar."""

    @pytest.mark.parametrize("center", [[0.5], [0.5, 1.0, 2.0], [0.5, float("nan")], "ab"])
    def test_center_must_be_dim_finite_floats(self, center):
        with pytest.raises(ValueError, match="center must be None or 2 finite floats"):
            EmbeddingSpace(("a", "b", "c"), np.eye(3, 2), center=center)

    @pytest.mark.parametrize("preprocessed", [False, True])
    @pytest.mark.parametrize(
        "meta, flaw",
        [
            ({"center": [0.5]}, "center must be None or 2 finite floats"),
            ({"center": [0.5, 1.0, 2.0]}, "center must be None or 2 finite floats"),
            ({"composed": ["x"]}, "composed rows must come after every file-loaded row"),
            ([0.5, 0.5], "expected a JSON object"),
            ({"composed": ["z"], "unit_normalized": False, "center": None}, "well formed"),
            ({"composed": [], "unit_normalized": True, "center": [0.5, 0.5]}, "well formed"),
        ],
    )
    def test_bad_sidecar_is_a_format_error_naming_it(self, tmp_path, meta, flaw, preprocessed):
        # Malformed and well-formed sidecars alike are refused before the
        # .vec file is parsed; ``flaw`` names what a malformed one gets wrong.
        path = write(tmp_path / "s.vec", "3 2\nx 3 4\ny 1 0\nz 0 1\n")
        (tmp_path / "s.vec.meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(VecFormatError) as info:
            load_space(path, preprocessed=preprocessed)
        assert str(info.value) == (
            f"{path}.meta.json: spaces with stored composed rows are no longer read; "
            "translate with --ngrams on the raw space instead"
        )


def normalize_only(space):
    """The space's rows through the length-normalization kernel alone, and
    the words of its zero rows."""
    vectors = np.array(space.vectors)
    zero_rows = _normalize_rows_in_place(vectors)
    return EmbeddingSpace(space.words, vectors), [space.words[i] for i in zero_rows]


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
    # Centering follows normalization in a full ``preprocess`` of a raw space.

    def test_two_point_symmetry(self):
        # Normalized to (-1, 0) and (0, 1): the mean lies halfway between.
        space = EmbeddingSpace(("a", "b"), np.array([[-2.0, 0.0], [0.0, 3.0]]))
        centered, _ = preprocess(space)
        np.testing.assert_allclose(centered.vectors, [[-0.5, -0.5], [0.5, 0.5]])

    def test_single_row_goes_to_zero(self):
        space = EmbeddingSpace(("a",), np.array([[5.0, 7.0]]))
        centered, _ = preprocess(space)
        np.testing.assert_allclose(centered.vectors, [[0.0, 0.0]])

    def test_idempotent_on_centered_data(self):
        # Unit rows and their negatives: normalized already, mean zero.
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(3, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows = np.vstack([rows, -rows])
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(6)), rows)
        centered, _ = preprocess(space)
        np.testing.assert_allclose(centered.vectors, rows, atol=1e-12)

    def test_empty_space_errors(self):
        space = EmbeddingSpace((), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            preprocess(space)

    def test_mean_is_zero_after(self):
        rng = np.random.default_rng(2)
        space = EmbeddingSpace(tuple(f"w{i}" for i in range(9)), rng.normal(size=(9, 4)))
        centered, _ = preprocess(space)
        np.testing.assert_allclose(centered.vectors.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(centered.center, normalize_only(space)[0].vectors.mean(axis=0))


def reference_preprocess(vectors, center):
    """Preprocessing with whole-matrix arithmetic: norms of every row in
    one ``np.linalg.norm`` call, division by the norms with zero norms
    replaced by 1, then subtraction of the mean of every row. Rows with a
    center are preprocessed already and stay as they are."""
    if center is not None:
        return vectors, center
    norms = np.linalg.norm(vectors, axis=1)
    vectors = vectors / np.where(norms == 0.0, 1.0, norms)[:, None]
    center = vectors.mean(axis=0)
    return vectors - center, center


@st.composite
def stored_spaces(draw):
    """A space with zero rows and a row count that is often not a multiple
    of the normalization block, raw or marked preprocessed."""
    rows = draw(st.integers(1, 2600) | st.sampled_from([1023, 1024, 1025, 2048]))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(rows, dim))
    vectors[draw(st.lists(st.integers(0, rows - 1), max_size=3))] = 0.0
    center = rng.normal(size=dim) if draw(st.booleans()) else None
    return EmbeddingSpace(tuple(f"w{i}" for i in range(rows)), vectors, center=center)


class TestPreprocessBits:
    @settings(max_examples=40, deadline=None)
    @given(space=stored_spaces())
    def test_load_and_preprocess_match_the_reference_bit_for_bit(self, tmp_path_factory, space):
        # A file holds raw rows, so loading it gives both steps; preprocess
        # leaves an in-memory space with a center as it is.
        path = str(tmp_path_factory.mktemp("vec") / "s.vec")
        save_vec_file(space, path)
        before = space.vectors.tobytes()
        runs = (
            (lambda: load_space(path, max_words=None, preprocessed=True), None),
            (lambda: preprocess(space)[0], space.center),
        )
        for run, center in runs:
            expected, expected_center = reference_preprocess(space.vectors, center)
            result = run()
            assert space.vectors.tobytes() == before
            assert result.vectors.tobytes() == expected.tobytes()
            assert result.center.tobytes() == expected_center.tobytes()
            assert result.center is not None and not result.vectors.flags.writeable
        # A row composed outside the space (as --ngrams does) gets the bits
        # the same raw row gets as a file row.
        loaded = runs[0][0]()
        assert loaded.preprocessed_rows(space.vectors).tobytes() == loaded.vectors.tobytes()

    def test_constructor_copies_the_callers_array(self):
        array = np.arange(6.0).reshape(3, 2)
        space = EmbeddingSpace(("a", "b", "c"), array)
        preprocess(space)
        assert array.flags.writeable and not space.vectors.flags.writeable
        np.testing.assert_array_equal(array, np.arange(6.0).reshape(3, 2))
        assert not np.shares_memory(array, space.vectors)

    @pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeated-word"])
    def test_load_and_preprocess_peak_memory_is_one_matrix(self, tmp_path, repeat):
        # Parsing, normalizing and centering hold the one matrix the space
        # keeps, plus one chunk of parsed rows and one normalization block:
        # not a copy per step, and no copy to drop a repeated word's row. The
        # bound is on what the finished space holds, its matrix, words and
        # index, since at 4000 x 50 the words alone take a fifth of the
        # matrix's bytes.
        rng = np.random.default_rng(12)
        path = str(tmp_path / "big.vec")
        words = [f"w{i}" for i in range(4000)]
        if repeat:
            words[2000] = words[17]
        write(tmp_path / "big.vec", "4000 50\n" + "".join(
            f"{word} " + " ".join(map(repr, row)) + "\n"
            for word, row in zip(words, rng.normal(size=(4000, 50)).tolist())
        ))
        tracemalloc.start()
        try:
            space = load_space(path, preprocessed=True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.vectors.shape == (4000 - repeat, 50)
        assert peak <= 1.1 * held


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
        expected = sum(table.vectors[table.index(g)] for g in expected_grams)
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
                row = table.vectors[table.index(gram)]
                total = row if total is None else total + row
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
        np.testing.assert_array_equal(table.vectors[table.index("<ab")], [1.0, 0.0])

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
        np.testing.assert_array_equal(table.vectors[table.index("<ab")], [1.0, 0.0])


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
        # A zero query has no neighbour: retrieve marks it with winner -1
        # and log-prob None, and answers the rest of the batch.
        space = EmbeddingSpace(("a", "b"), np.array([[1.0, 1.0], [1.0, -1.0]]))
        model = TranslationModel(np.eye(2), len(space))
        winners, log_probs = retrieve(model, np.array([[0.0, 0.0], [1.0, -2.0]]), space)
        assert list(winners) == [-1, 1]
        assert log_probs[0] is None and log_probs[1] < 0.0

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
        grown = replace(space, words=("a", "z", "b"), vectors=np.vstack([space.vectors, np.ones(2)]))
        np.testing.assert_array_equal(grown.row_norms, [5.0, 0.0, np.sqrt(2.0)])


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

    def test_preprocessed_space_comes_back_as_it_is(self):
        # The zero row is reported once, by the preprocess that saw it raw.
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(6, 3))
        vectors[2] = 0.0
        space, zero_words = preprocess(EmbeddingSpace(tuple(f"w{i}" for i in range(6)), vectors))
        again, again_zero_words = preprocess(space)
        assert (zero_words, again_zero_words) == (["w2"], [])
        assert again.vectors.tobytes() == space.vectors.tobytes()
        assert again.center.tobytes() == space.center.tobytes()


def random_vec_file(path, rows, dim, seed, duplicate=None, zero=None, bad_row=None, count=None):
    """A .vec file of ``rows`` random rows whose values take about 20
    characters each, under a header of ``count`` rows (``rows`` by
    default); row ``duplicate`` repeats the word of row 0, row ``zero`` is
    all zeros and, when given, ``bad_row`` replaces the last."""
    values = np.random.default_rng(seed).normal(size=(rows, dim))
    words = [f"w{i}" for i in range(rows)]
    if duplicate is not None:
        words[duplicate] = words[0]
    if zero is not None:
        values[zero] = 0.0
    lines = [f"{w} " + " ".join(map(repr, row)) for w, row in zip(words, values.tolist())]
    if bad_row is not None:
        lines[-1] = bad_row
    return write(path, f"{count or rows} {dim}\n" + "\n".join(lines) + "\n")


def serial_error(path):
    with pytest.raises(VecFormatError) as info:
        load_space(path)
    return str(info.value)


@pytest.fixture
def forks(monkeypatch):
    """Every target with rows loads in a forked child; the returned list
    collects the pid of each fork."""
    monkeypatch.setattr(embeddings, "_FORK_MIN_VALUES", 0)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


class TestLoadSpaces:
    """``load_spaces`` returns what two ``load_space`` calls return, with
    the target parsed in a forked child above the floor."""

    @pytest.mark.parametrize("max_words", [None, 7])
    @pytest.mark.parametrize("preprocessed", [False, True])
    def test_spaces_equal_the_serial_ones_bit_for_bit(self, tmp_path, forks, max_words, preprocessed):
        src = random_vec_file(tmp_path / "s.vec", 10, 4, seed=1, zero=5)
        tgt = random_vec_file(tmp_path / "t.vec", 12, 3, seed=2, duplicate=4, zero=2)
        got = load_spaces(src, tgt, max_words, preprocessed=preprocessed)
        assert len(forks) == 1
        for space, path in zip(got, (src, tgt)):
            want = load_space(path, max_words, preprocessed=preprocessed)
            assert space.words == want.words
            assert space.vectors.shape == want.vectors.shape
            assert space.vectors.tobytes() == want.vectors.tobytes()
            assert not space.vectors.flags.writeable
            if preprocessed:
                assert space.center.tobytes() == want.center.tobytes()
                assert not space.center.flags.writeable
            else:
                assert space.center is None

    def test_small_target_loads_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the floor"))
        src = random_vec_file(tmp_path / "s.vec", 4, 2, seed=1)
        tgt = random_vec_file(tmp_path / "t.vec", 4, 2, seed=2)
        source, target = load_spaces(src, tgt)
        assert (source.words, target.words) == (load_space(src).words, load_space(tgt).words)

    @pytest.mark.parametrize(
        "count, bad_row",
        [(12, None), (10, "w9 1.0 nan 2.0"), (10, "w9 1.0 2.0"), (10, "w9 1.0 x 2.0")],
        ids=["short", "non-finite", "malformed", "non-numeric"],
    )
    def test_bad_target_raises_the_serial_error(self, tmp_path, forks, count, bad_row):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1)
        tgt = random_vec_file(tmp_path / "t.vec", 10, 3, seed=2, bad_row=bad_row, count=count)
        with pytest.raises(VecFormatError) as info:
            load_spaces(src, tgt)
        assert len(forks) == 1
        assert str(info.value) == serial_error(tgt)

    @pytest.mark.parametrize("header", [None, "10", "ten 3"], ids=["missing", "short", "non-integer"])
    def test_unreadable_target_header_loads_after_the_source(self, tmp_path, forks, caplog, header):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1, duplicate=3)
        tgt = str(tmp_path / "t.vec")
        if header is not None:
            write(tmp_path / "t.vec", f"{header}\nw0 1.0 2.0 3.0\n")
        with caplog.at_level(logging.WARNING), pytest.raises((VecFormatError, FileNotFoundError)) as info:
            load_spaces(src, tgt)
        assert forks == []
        assert [r.name for r in caplog.records] == ["morphlex.textio"]
        with pytest.raises(type(info.value)) as serial:
            load_space(tgt)
        assert str(info.value) == str(serial.value)
        bad_src = random_vec_file(tmp_path / "b.vec", 10, 3, seed=1, bad_row="w9 1.0 2.0")
        with pytest.raises(VecFormatError, match="b.vec"):
            load_spaces(bad_src, tgt)

    def test_source_error_wins(self, tmp_path, forks):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1, bad_row="w9 1.0 nan 2.0")
        tgt = random_vec_file(tmp_path / "t.vec", 10, 3, seed=2, bad_row="w9 1.0 2.0")
        with pytest.raises(VecFormatError) as info:
            load_spaces(src, tgt)
        assert len(forks) == 1
        assert str(info.value) == serial_error(src)

    @pytest.mark.parametrize("bad_row", [None, "w9 1.0 inf 2.0"])
    def test_warnings_reach_the_log_in_serial_order(self, tmp_path, forks, caplog, bad_row):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1, duplicate=3, zero=6)
        tgt = random_vec_file(
            tmp_path / "t.vec", 10, 3, seed=2, duplicate=2, zero=4, bad_row=bad_row
        )

        def warnings(load):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                try:
                    load()
                except VecFormatError:
                    pass
            return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

        def serial():
            load_space(src, preprocessed=True)
            load_space(tgt, preprocessed=True)

        forked = warnings(lambda: load_spaces(src, tgt, preprocessed=True))
        assert len(forks) == 1
        expected = warnings(serial)
        assert forked == expected
        assert [name for name, _, message in expected if "duplicate" in message] == [
            "morphlex.textio", "morphlex.textio"
        ]
        assert len(expected) == (4 if bad_row is None else 3)

    def test_source_error_drops_the_target_warnings(self, tmp_path, forks, caplog):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1, bad_row="w9 1.0 2.0")
        tgt = random_vec_file(tmp_path / "t.vec", 10, 3, seed=2, duplicate=2)
        with caplog.at_level(logging.WARNING), pytest.raises(VecFormatError, match="s.vec"):
            load_spaces(src, tgt)
        assert caplog.records == []

    def test_source_error_kills_a_child_still_parsing(self, tmp_path, forks):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1)
        tgt = random_vec_file(tmp_path / "t.vec", 10, 3, seed=2)

        def load(path, *args, **kwargs):
            if path == tgt:
                time.sleep(60)
            raise VecFormatError("source refused")

        start = time.perf_counter()
        with pytest.raises(VecFormatError, match="source refused"):
            load_spaces(src, tgt, load=load)
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_child_that_dies_is_replaced_by_an_in_process_load(self, tmp_path, forks):
        src = random_vec_file(tmp_path / "s.vec", 10, 3, seed=1)
        tgt = random_vec_file(tmp_path / "t.vec", 10, 3, seed=2)
        parent = os.getpid()

        def load(path, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return load_space(path, *args, **kwargs)

        source, target = load_spaces(src, tgt, load=load)
        assert len(forks) == 1
        assert target.vectors.tobytes() == load_space(tgt).vectors.tobytes()

    @pytest.mark.parametrize("floor", [0, None])
    def test_verbose_names_each_load_and_where_it_ran(self, tmp_path, caplog, monkeypatch, floor):
        if floor is not None:
            monkeypatch.setattr(embeddings, "_FORK_MIN_VALUES", floor)
        src = random_vec_file(tmp_path / "s.vec", 10, 4, seed=1)
        tgt = random_vec_file(tmp_path / "t.vec", 12, 3, seed=2)
        with caplog.at_level(logging.INFO, logger="morphlex.embeddings"):
            load_spaces(src, tgt, 11)
        lines = [r.getMessage() for r in caplog.records if r.name == "morphlex.embeddings"]
        child = "in-process" if floor is None else "in a forked child"
        assert len(lines) == 2
        assert re.fullmatch(rf"{re.escape(src)}: 10 x 4 loaded in \d+\.\d{{3}} s, in-process", lines[0])
        assert re.fullmatch(rf"{re.escape(tgt)}: 11 x 3 loaded in \d+\.\d{{3}} s, {child}", lines[1])

    def test_child_task_parses_the_target_into_the_shared_mapping(self, tmp_path, monkeypatch):
        # The forked child's task, run here: the space it loads is a view of
        # a real anonymous mapping, so the target's rows are never copied.
        package = logging.getLogger("morphlex")  # the task captures its records
        monkeypatch.setattr(package, "handlers", list(package.handlers))
        monkeypatch.setattr(package, "propagate", package.propagate)
        tgt = random_vec_file(tmp_path / "t.vec", 12, 3, seed=2, duplicate=4, zero=2)
        mapping = mmap.mmap(-1, 12 * 3 * 8)
        matrix = np.frombuffer(mapping, np.float64).reshape(12, 3)
        loaded = []

        def load(*args, **kwargs):
            loaded.append(load_space(*args, **kwargs))
            return loaded[-1]

        pipe = io.BytesIO()
        embeddings._load_in_child(matrix, load, tgt, None, True, pipe)
        (words, center), records = pickle.loads(pipe.getvalue())
        assert np.shares_memory(loaded[0].vectors, np.frombuffer(mapping, np.uint8))
        want = load_space(tgt, None, preprocessed=True)
        assert words == want.words and len(words) == 11
        assert matrix[: len(words)].tobytes() == want.vectors.tobytes()
        assert center.tobytes() == want.center.tobytes()
        assert [r.getMessage() for r in records if r.levelno == logging.WARNING] == [
            f"{tgt}: line 6: duplicate 'w0', keeping the first occurrence",
            f"{tgt}: 1 zero vectors could not be normalized",
        ]

    def test_rows_for_another_shape_mean_the_file_changed(self, tmp_path):
        # The child parses into a mapping sized from the header the parent
        # read; a file rewritten in between no longer fits it.
        tgt = random_vec_file(tmp_path / "t.vec", 12, 3, seed=2)
        with pytest.raises(VecFormatError, match="t.vec: changed while it was read"):
            load_space(tgt, out=np.empty((10, 3)))

    @pytest.mark.parametrize("failing", ["mmap", "pipe", "fork"])
    def test_failed_fork_loads_the_target_after_the_source(
        self, tmp_path, monkeypatch, caplog, descriptors, failing
    ):
        monkeypatch.setattr(embeddings, "_FORK_MIN_VALUES", 0)

        def fail(*args):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        owner = {"mmap": embeddings.mmap, "pipe": os, "fork": os}[failing]
        monkeypatch.setattr(owner, failing, fail)
        src = random_vec_file(tmp_path / "s.vec", 10, 4, seed=1, zero=5)
        tgt = random_vec_file(tmp_path / "t.vec", 12, 3, seed=2, duplicate=4)
        before = descriptors()
        with caplog.at_level(logging.WARNING):
            got = load_spaces(src, tgt, preprocessed=True)
        assert descriptors() == before
        assert [r.getMessage() for r in caplog.records] == [
            f"{tgt}: cannot load in a forked child ([Errno 11] Resource temporarily "
            "unavailable), loading it in-process",
            f"{src}: 1 zero vectors could not be normalized",
            f"{tgt}: line 6: duplicate 'w0', keeping the first occurrence",
        ]
        for space, path in zip(got, (src, tgt)):
            want = load_space(path, preprocessed=True)
            assert space.words == want.words
            assert space.vectors.tobytes() == want.vectors.tobytes()
            assert space.center.tobytes() == want.center.tobytes()
