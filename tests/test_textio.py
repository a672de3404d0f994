"""The shared tab-separated reader, through every format that uses it, the
writers' errors and the two-process float-row writer."""

import errno
import logging
import os
import subprocess
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlex import cli, textio
from morphlex.embeddings import (
    EmbeddingSpace,
    VecFormatError,
    load_ngram_table,
    load_space,
    save_vec_file,
)
from morphlex.evaluation import DictionaryFormatError, read_eval_dictionary, read_seed_dictionary
from morphlex.morph import MorphFormatError, load_rule_table, read_unimorph
from morphlex.textio import write_float_rows, write_json, write_tsv
from morphlex.translator import ModelFormatError, load_model

# name: (reader, its error, header lines, a good row, a row with a wrong
# column count, a row with a bad tag or None when the format has no tag,
# the error of a good row with its first or second field emptied or None
# when those fields may be empty)
READERS = {
    "unimorph": (read_unimorph, MorphFormatError, "",
                 "cantar\tcanto\tV;PRS;1;SG", "cantar\tcanto", "cantar\tcantas\tV;;SG",
                 "lemma and form must be non-empty"),
    "eval-dictionary": (read_eval_dictionary, DictionaryFormatError, "",
                        "canto\tsing\tV;PRS;1;SG", "canto\tsing\tV\tx", "cantas\tsing\tV;;SG",
                        "empty field"),
    "seed-dictionary": (read_seed_dictionary, DictionaryFormatError, "",
                        "canto\tsing", "canto", None, "empty field"),
    "inflect-rules": (load_rule_table, MorphFormatError, "MORPHLEX-RULES v1 inflect\n",
                      "V;PRS;1;SG\tar\to\t2", "V;PRS;1;SG\tar\to", "V;;SG\tar\tas\t1", None),
    "analyze-rules": (load_rule_table, MorphFormatError, "MORPHLEX-RULES v1 analyze\n",
                      "o\tar\tV;PRS;1;SG\t2", "o\tar\tV;PRS;1;SG\t2\t3", "as\tar\tV;;SG\t1",
                      None),
    "oracle-analyses": (cli._read_oracle_analyses, DictionaryFormatError, "",
                        "canto\tcantar\tV;PRS;1;SG", "canto\tcantar", "cantas\tcantar\tV;;SG",
                        "empty field"),
}


def line_three(header: str, good: str, bad: str) -> str:
    """A file whose line 3 is ``bad``, after the header and good rows."""
    rows = [good] * (2 - header.count("\n"))
    return header + "\n".join(rows + [bad]) + "\n"


@pytest.mark.parametrize("name", sorted(READERS))
def test_wrong_column_count_names_line_three(tmp_path, name):
    reader, error, header, good, wrong_columns, _, _ = READERS[name]
    path = tmp_path / "f.tsv"
    path.write_text(line_three(header, good, wrong_columns), encoding="utf-8")
    with pytest.raises(error, match="line 3: expected") as info:
        reader(str(path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", sorted(n for n, spec in READERS.items() if spec[5]))
def test_bad_tag_names_line_three(tmp_path, name):
    reader, error, header, good, _, bad_tag, _ = READERS[name]
    path = tmp_path / "f.tsv"
    path.write_text(line_three(header, good, bad_tag), encoding="utf-8")
    with pytest.raises(error, match="line 3: empty feature in tag 'V;;SG'") as info:
        reader(str(path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("field", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("name", sorted(n for n, spec in READERS.items() if spec[6]))
def test_empty_key_field_names_line_three(tmp_path, name, field):
    # An empty source, target, form or lemma is refused, never read as a
    # word that no space can hold.
    reader, error, header, good, _, _, message = READERS[name]
    fields = good.split("\t")
    fields[field] = ""
    path = tmp_path / "f.tsv"
    path.write_text(line_three(header, good, "\t".join(fields)), encoding="utf-8")
    with pytest.raises(error, match=f"line 3: {message}") as info:
        reader(str(path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_and_whitespace_lines_are_skipped(tmp_path, name):
    reader, _, header, good, _, _, _ = READERS[name]
    path = tmp_path / "f.tsv"
    path.write_text(header + good + "\n", encoding="utf-8")
    plain = reader(str(path))
    path.write_text(header + f"\n  \n{good}\n\t\n\t\t\t\n \t \n", encoding="utf-8")
    assert reader(str(path)) == plain


# name: (reader of a float-row file, its error, the file's text). Each
# text has a fault that the line-by-line pass, or the non-finite check,
# reports after the streaming pass.
FLOAT_ROW_FAULTS = {
    "vec-malformed": (load_space, VecFormatError, "2 2\na 1 2\nb 1\n"),
    "vec-non-numeric": (load_space, VecFormatError, "2 2\na 1 2\nb 1 x\n"),
    "vec-non-finite": (load_space, VecFormatError, "2 2\na 1 2\nb 1 nan\n"),
    "ngrams-malformed": (lambda path: load_ngram_table(path, 2), VecFormatError, "<ab 1 2\nab> 1\n"),
    "model-non-numeric": (load_model, ModelFormatError, "MORPHLEX-OMEGA v1 2 2 2\n1 0\n0 x\n"),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ROW_FAULTS))
def test_float_row_error_leaves_the_file_closed(tmp_path, descriptors, name):
    # The error is held, as a caller reporting it holds it: its traceback
    # must not keep the file open.
    reader, error, text = FLOAT_ROW_FAULTS[name]
    path = tmp_path / "rows.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=r": line \d+: ") as info:
        reader(str(path))
    assert info.value.__traceback__ is not None
    assert str(path) not in descriptors().values()


@st.composite
def float_row_files(draw):
    """(layout, dim, text, limit): a .vec body after a header line, read
    with a limit below, at or above its row count; a header-less n-gram
    table; or a model body without keys. Keys come from five letters, so
    repeats fall on either side of a chunk boundary, and rows are mostly
    good but may be blank, short, long, non-numeric or non-finite."""
    layout = draw(st.sampled_from(["vec", "ngrams", "model"]))
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["good"] * 6 + ["blank", "short", "long", "x", "nan", "-inf"]))
        values = [repr(draw(st.floats(allow_nan=False, allow_infinity=False))) for _ in range(dim)]
        if kind == "short":
            values.pop()
        elif kind == "long":
            values.append("1.5")
        elif kind != "good":
            values[draw(st.integers(0, dim - 1))] = kind
        if layout != "model":
            values.insert(0, draw(st.sampled_from("abcde")))
        row = " ".join(values)
        lines.append("" if kind == "blank" else row)
    limit = draw(st.integers(0, len(lines) + 2)) if layout == "vec" else None
    header = "" if layout == "ngrams" else "header\n"
    return layout, dim, header + "".join(line + "\n" for line in lines), limit


@settings(max_examples=300, deadline=None)
@given(case=float_row_files(), chunk_rows=st.integers(1, 4))
@example(case=("vec", 2, "header\na 1 2\nb 3 4\na 5 6\nc 7 8\n", 4), chunk_rows=2)
@example(case=("ngrams", 2, "a 1 2\n\nb 1\nc 1 2\n", None), chunk_rows=1)
@example(case=("model", 2, "header\n1 2\n3 x\n", None), chunk_rows=1)
@example(case=("vec", 2, "header\na 1 2\nb 3 4\n", 4), chunk_rows=1)
@example(case=("vec", 2, "header\na 1 2\nb 3 4\nc 5 6\n", 2), chunk_rows=1)
@example(case=("vec", 1, "header\na 1\nb 2\nc nan\n", 3), chunk_rows=2)
@example(case=("vec", 1, "header\na 1\nb 2\na inf\n", 3), chunk_rows=2)
def test_chunked_read_equals_a_one_chunk_read(tmp_path_factory, case, chunk_rows):
    # The rows a chunk holds change neither the kept keys and the bits of
    # their rows nor the text of the error: a repeat is dropped across a
    # chunk boundary as within one, and the first fault of the file wins.
    layout, dim, text, limit = case
    path = tmp_path_factory.mktemp("rows") / "rows.txt"
    path.write_text(text, encoding="utf-8")

    def read(rows_per_chunk):
        with mock.patch.object(textio, "_CHUNK_ROWS", rows_per_chunk):
            try:
                keys, matrix = textio.read_float_rows(
                    str(path), dim, first_lineno=1 if layout == "ngrams" else 2,
                    error=VecFormatError, limit=limit,
                    key=None if layout == "model" else "a word",
                )
            except VecFormatError as exc:
                return str(exc)
        return keys, matrix.shape, matrix.tobytes()

    assert read(chunk_rows) == read(len(text) + 1)


WRITERS = {
    "json": lambda path: write_json(path, {"rows": list(range(5000))}),
    "tsv": lambda path: write_tsv(path, ["a", "b"], [(i, i) for i in range(5000)]),
    "float-rows": lambda path: write_float_rows(path, "5000 2", np.ones((5000, 2))),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_error_names_the_file(name):
    # Every write to /dev/full fails with ENOSPC, an error that names no
    # file by itself.
    with pytest.raises(OSError) as info:
        WRITERS[name]("/dev/full")
    assert (info.value.errno, info.value.filename) == (errno.ENOSPC, "/dev/full")


# Keys the .vec reader reads back, and keys it does not: empty, or holding
# an ASCII space, a tab, a line break or a lone surrogate.
any_keys = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from(" \t\n\r\x0b\u00a0\ud800"),
    max_size=4,
)
special_floats = st.sampled_from([-0.0, 5e-324, 1e-05, 1e16, 1e22, -1.7976931348623157e308])


def refused(words, values) -> bool:
    """The space of ``words`` and ``values`` has a row the reader rejects."""
    unreadable = set(" \t\n\r") | {chr(c) for c in range(0xD800, 0xE000)}
    return any(not word or unreadable & set(word) for word in words) or not np.isfinite(values).all()


@settings(max_examples=200, deadline=None)
@given(words=st.lists(any_keys, max_size=4, unique=True), data=st.data())
def test_written_space_reloads_or_leaves_no_file(tmp_path_factory, words, data):
    dim = data.draw(st.integers(1, 3))
    values = np.array(
        data.draw(st.lists(st.floats() | special_floats,
                           min_size=len(words) * dim, max_size=len(words) * dim)),
        dtype=np.float64,
    ).reshape(len(words), dim)
    space = EmbeddingSpace(tuple(words), values)
    path = tmp_path_factory.mktemp("vec") / "out.vec"
    try:
        save_vec_file(space, str(path))
    except ValueError as exc:
        assert refused(words, values), exc
        assert str(exc).startswith(f"{path}: row ")
        assert not path.exists()
        return
    assert not refused(words, values)
    reloaded = load_space(str(path), max_words=None)
    assert reloaded.words == space.words
    assert reloaded.vectors.tobytes() == space.vectors.tobytes()


@pytest.mark.parametrize(
    "words, value, message",
    [
        (("a", ""), 1.0, "row 1: empty key"),
        (("a b", "c"), 1.0, "row 0: key 'a b' holds a space, tab, line break or lone surrogate"),
        (("a", "b\rc"), 1.0, "row 1: key 'b\\rc' holds a space, tab, line break or lone surrogate"),
        (("a", "b"), float("nan"), "row 1: non-finite value"),
    ],
    ids=["empty", "space", "carriage-return", "nan"],
)
def test_unreadable_row_is_refused_before_forking(tmp_path, monkeypatch, words, value, message):
    monkeypatch.setattr(textio, "_FORK_MIN_VALUES", 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a refused row"))
    path = tmp_path / "out.vec"
    with pytest.raises(ValueError) as info:
        save_vec_file(EmbeddingSpace(words, [[1.0, 2.0], [3.0, value]]), str(path))
    assert str(info.value) == f"{path}: {message}"
    assert not path.exists()


# Keys with U+00A0 and letters outside ASCII, which take several UTF-8 bytes.
forked_keys = st.text(st.sampled_from("ab\u00a0\u00e9\u00df\u4e2d\U0001f600"), min_size=1, max_size=5)


@st.composite
def float_rows(draw):
    """(matrix, keys or None): 0-9 rows of 1-5 values."""
    rows, dim = draw(st.integers(0, 9)), draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | special_floats,
                           min_size=rows * dim, max_size=rows * dim))
    keys = draw(st.none() | st.lists(forked_keys, min_size=rows, max_size=rows, unique=True))
    return np.array(values, dtype=np.float64).reshape(rows, dim), keys


def written_bytes(path, matrix, keys, floor):
    """The bytes ``write_float_rows`` writes to ``path`` with the fork
    floor at ``floor``, and the number of forks it made."""
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(textio, "_FORK_MIN_VALUES", floor), \
            mock.patch.object(os, "fork", recording_fork):
        write_float_rows(str(path), f"{len(matrix)} 0", matrix, keys)
    return path.read_bytes(), len(forks)


@settings(max_examples=60, deadline=None)
@given(rows=float_rows())
def test_forked_bytes_equal_in_process_bytes(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("rows")
    forked, forks = written_bytes(directory / "forked", *rows, floor=0)
    serial, no_forks = written_bytes(directory / "serial", *rows, floor=10**12)
    assert (forks, no_forks) == (1, 0)
    assert forked == serial


def sample_space():
    rng = np.random.default_rng(7)
    words = ("a", "b\u00a0c", "d\u00e9", "e", "f")
    return EmbeddingSpace(words, rng.normal(size=(len(words), 3)))


def in_process_bytes(tmp_path, space):
    path = tmp_path / "serial.vec"
    with mock.patch.object(textio, "_FORK_MIN_VALUES", 10**12):
        save_vec_file(space, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("failing", ["pipe", "fork"])
def test_failed_fork_writes_in_process(tmp_path, monkeypatch, caplog, descriptors, failing):
    space = sample_space()
    expected = in_process_bytes(tmp_path, space)
    monkeypatch.setattr(textio, "_FORK_MIN_VALUES", 0)

    def fail(*args):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, failing, fail)
    path = tmp_path / "out.vec"
    before = descriptors()
    with caplog.at_level(logging.WARNING):
        save_vec_file(space, str(path))
    assert descriptors() == before
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [(
        "morphlex.textio", logging.WARNING,
        f"{path}: cannot format rows in a forked child ([Errno 11] Resource temporarily "
        "unavailable), formatting them in-process",
    )]
    assert path.read_bytes() == expected


@pytest.mark.parametrize("death", ["exits", "raises", "partial-reply"])
def test_child_that_dies_has_its_rows_written_in_process(tmp_path, monkeypatch, caplog, death):
    space = sample_space()
    expected = in_process_bytes(tmp_path, space)
    monkeypatch.setattr(textio, "_FORK_MIN_VALUES", 0)
    parent = os.getpid()
    exit_now = os._exit

    def dying_task(*args):
        assert os.getpid() != parent, "the parent formatted through the child's task"
        if death == "exits":
            exit_now(1)
        if death == "raises":
            raise MemoryError
        return bytearray(b"not the rows")  # written whole, then the child exits 1

    monkeypatch.setattr(textio, "_encoded_lines", dying_task)
    if death == "partial-reply":
        monkeypatch.setattr(os, "_exit", lambda code: exit_now(1))
    path = tmp_path / "out.vec"
    with caplog.at_level(logging.WARNING):
        save_vec_file(space, str(path))
    assert path.read_bytes() == expected
    assert caplog.records == []


def test_small_matrix_is_written_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the floor"))
    space = sample_space()
    path = tmp_path / "out.vec"
    save_vec_file(space, str(path))
    assert load_space(str(path)).vectors.tobytes() == space.vectors.tobytes()


def test_output_that_is_a_directory_is_the_serial_error(tmp_path, monkeypatch):
    space = sample_space()
    blocked = tmp_path / "out.vec"
    blocked.mkdir()
    errors = []
    for floor in (10**12, 0):
        monkeypatch.setattr(textio, "_FORK_MIN_VALUES", floor)
        with pytest.raises(IsADirectoryError) as info:
            save_vec_file(space, str(blocked))
        errors.append(str(info.value))
    assert errors == [f"[Errno 21] Is a directory: {str(blocked)!r}"] * 2


def test_fifo_whose_reader_leaves_is_the_serial_error(tmp_path, monkeypatch):
    # More text than a pipe holds, so the write after the reader has left
    # fails in this process while the child may still be formatting.
    monkeypatch.setattr(textio, "_FORK_MIN_VALUES", 0)
    rng = np.random.default_rng(3)
    words = tuple(f"w{i}" for i in range(4000))
    space = EmbeddingSpace(words, rng.normal(size=(len(words), 20)))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["head", "-c", "1", str(fifo)], stdout=subprocess.DEVNULL)
    try:
        with pytest.raises(BrokenPipeError) as info:
            save_vec_file(space, str(fifo))
    finally:
        reader.wait(timeout=120)
    assert str(info.value) == f"[Errno 32] Broken pipe: {str(fifo)!r}"
