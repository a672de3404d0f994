"""Monolingual word-embedding spaces: loading, preprocessing, OOV composition.

The text format is the usual one: a ``<count> <dim>`` header line, then
one word and its coordinates per line. Row order doubles as the
frequency rank (row 0 = most frequent word).
"""

from __future__ import annotations

import contextlib
import functools
import logging
import mmap
import os
import pickle
import time
from dataclasses import InitVar, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .textio import (
    _FORK_MIN_VALUES,
    DataError,
    _forked,
    open_text,
    read_float_rows,
    write_float_rows,
)

logger = logging.getLogger(__name__)

DEFAULT_MAX_WORDS = 200_000
NGRAM_MIN = 3
NGRAM_MAX = 6


class VecFormatError(DataError):
    """A word-vector file or n-gram table violates the text format."""


class CompositionError(ValueError):
    """No character n-gram of the form is covered by the table."""


class WordNotFoundError(KeyError):
    """Lookup of a word that is absent from an embedding space."""


@dataclass(eq=False)
class EmbeddingSpace:
    """An ordered table of keyed rows: one dense vector per word (or, for
    an n-gram table, per n-gram).

    ``words[i]`` has frequency rank ``i``. ``center`` is None for raw rows;
    ``dim`` finite floats mark rows length-normalized, then shifted by that
    mean. Instances are treated as immutable once built: preprocessing
    returns new spaces, so concurrent reads are safe.

    The constructor stores a read-only copy of ``vectors``, so the
    caller's array is never touched. ``_adopt=True`` stores the array
    itself: only for a fresh float64 matrix this module has just made.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    center: np.ndarray | None = None
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt: bool) -> None:
        self.words = tuple(self.words)
        vectors = self.vectors if _adopt else np.array(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d matrix")
        if vectors.shape[0] != len(self.words):
            raise ValueError(
                f"{len(self.words)} words but {vectors.shape[0]} vector rows"
            )
        if self.center is not None:
            try:
                center = np.array(self.center, dtype=np.float64)
            except (TypeError, ValueError):
                center = None
            dim = vectors.shape[1]
            if center is None or center.shape != (dim,) or not np.isfinite(center).all():
                raise ValueError(f"center must be None or {dim} finite floats")
            center.setflags(write=False)
            self.center = center
        vectors.setflags(write=False)
        self.vectors = vectors
        index: dict[str, int] = {}
        for position, word in enumerate(self.words):
            if word in index:
                raise ValueError(f"duplicate word in space: {word!r}")
            index[word] = position
        self._index = index
        self._row_norms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __repr__(self) -> str:
        return f"EmbeddingSpace({len(self)} words, dim={self.dim})"

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row, computed on first use and kept.

        ``einsum`` sums the squares row by row without a V x d temporary.
        """
        if self._row_norms is None:
            norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
            norms.setflags(write=False)
            self._row_norms = norms
        return self._row_norms

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise WordNotFoundError(word) from None

    def index_or_none(self, word: str) -> int | None:
        """Row index, which is also the frequency rank; None when absent."""
        return self._index.get(word)

    def preprocessed_rows(self, rows: np.ndarray) -> np.ndarray:
        """A fresh copy of rows from outside the space (composed OOV
        vectors) in the space's state: unchanged for a raw space; for a
        preprocessed one, normalized by the kernel that normalized the
        space's own rows, then shifted by the stored center."""
        rows = np.array(rows, dtype=np.float64, ndmin=2)
        if self.center is not None:
            _normalize_rows_in_place(rows)
            rows -= self.center
        return rows


def _read_header(path: str, max_words: int | None) -> tuple[int, int]:
    """The rows a load of a .vec file reads, ``min(count, max_words)``, and
    its dim, from the header line."""
    with open_text(path) as handle:
        header = handle.readline()
    fields = header.split()
    if len(fields) != 2:
        raise VecFormatError(f"{path}: header must be '<count> <dim>', got {header!r}")
    try:
        count, dim = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise VecFormatError(f"{path}: non-integer header field in {header!r}") from exc
    if count < 0 or dim <= 0:
        raise VecFormatError(f"{path}: invalid header values in {header!r}")
    return (count if max_words is None else min(count, max_words)), dim


def save_vec_file(space: EmbeddingSpace, path: str) -> None:
    """Write a space in the .vec text format.

    Floats are rendered with repr, so reloading reproduces them
    bit-exactly.
    """
    write_float_rows(path, f"{len(space)} {space.dim}", space.vectors, space.words)


def load_space(
    path: str,
    max_words: int | None = DEFAULT_MAX_WORDS,
    *,
    preprocessed: bool = False,
    out: np.ndarray | None = None,
) -> EmbeddingSpace:
    """Load the first ``min(count, max_words)`` rows of a .vec file. A
    repeated word keeps its first row (with a warning); malformed rows,
    non-finite values and a short file raise VecFormatError. With
    ``preprocessed``, the space is then length-normalized and
    mean-centered (see ``preprocess``) in place on the one parsed matrix,
    and its zero rows draw one warning naming the file; a file with no rows
    is a ``VecFormatError``, as there is nothing to preprocess.

    The rows are parsed into ``out`` when it is given, a float64 matrix of
    the rows and dim the header gives (as ``read_float_rows`` takes it), so
    the space's vectors are a view of it; a file whose header no longer
    gives that shape is a ``VecFormatError``.

    A ``.meta.json`` sidecar beside the file is a ``VecFormatError`` naming
    the sidecar: only the retired OOV-composition subcommand wrote one, and
    the composed rows it lists would otherwise load as ranked vocabulary
    rows and move the center.
    """
    meta_file = f"{path}.meta.json"
    if os.path.exists(meta_file):
        raise VecFormatError(
            f"{meta_file}: spaces with stored composed rows are no longer read; "
            "translate with --ngrams on the raw space instead"
        )
    limit, dim = _read_header(path, max_words)
    words, vectors = read_float_rows(
        path, dim, first_lineno=2, error=VecFormatError, limit=limit, key="a word", out=out
    )
    if not preprocessed:
        return EmbeddingSpace(tuple(words), vectors, _adopt=True)
    if not words:
        raise VecFormatError(f"{path}: no vectors to preprocess")
    zero_words, center = _preprocess_in_place(words, vectors)
    if zero_words:
        logger.warning("%s: %d zero vectors could not be normalized", path, len(zero_words))
    return EmbeddingSpace(tuple(words), vectors, center, _adopt=True)


def load_spaces(
    src: str,
    tgt: str,
    max_words: int | None = DEFAULT_MAX_WORDS,
    *,
    preprocessed: bool = False,
    load: Callable[..., EmbeddingSpace] = load_space,
) -> tuple[EmbeddingSpace, EmbeddingSpace]:
    """The spaces of ``load(src, max_words, preprocessed=...)`` and of the
    same call on ``tgt``, as two calls one after the other return them.
    ``load`` is ``load_space`` as the caller binds it, so a wrapper
    installed there sees both calls.

    A target of at least ``_FORK_MIN_VALUES`` values loads in a forked
    child while the source loads here. The child passes ``load`` an
    ``out`` matrix that is a view of an anonymous shared mapping, so it
    parses its rows straight into the mapping, and sends back its words,
    center and log records; this process keeps a read-only view of the
    mapping. The serial semantics hold: a source error wins, and a target
    error is raised after the source has loaded; the target's log records
    follow the source's, and are dropped when the source fails. The child
    is reaped before this returns or raises, and killed first when its
    reply is not needed.

    Every other target takes the one fallback, an in-process load after
    the source: a smaller target, one whose header does not parse or that
    is too short for it, every target on a platform without ``os.fork``,
    one whose shared mapping, pipe or fork fails (with one warning naming
    the error and nothing of the attempt left open), and one whose child
    dies without a whole reply.
    """
    def cannot_fork(exc: OSError) -> None:
        logger.warning("%s: cannot load in a forked child (%s), loading it in-process", tgt, exc)

    try:
        rows, dim = _read_header(tgt, max_words)
        size = os.path.getsize(tgt)
    except (OSError, ValueError):
        rows = dim = size = 0  # the in-process load raises the same error
    child = contextlib.nullcontext(lambda: None)
    # A row holds a word and dim values, so 2 * dim + 1 bytes at least.
    if rows * dim >= _FORK_MIN_VALUES and 0 < rows * (2 * dim + 1) <= size:
        try:
            mapping = mmap.mmap(-1, rows * dim * 8)
        except OSError as exc:
            cannot_fork(exc)
        else:
            matrix = np.frombuffer(mapping, np.float64).reshape(rows, dim)
            task = functools.partial(_load_in_child, matrix, load, tgt, max_words, preprocessed)
            child = _forked(task, cannot_fork)
    with child as reply:
        source = _timed_load(load, src, max_words, preprocessed, "in-process")
        pickled = reply()
    if pickled is None:  # a small target, or no mapping, no fork or no whole reply
        return source, _timed_load(load, tgt, max_words, preprocessed, "in-process")
    outcome, records = pickle.loads(pickled)
    for record in records:
        logging.getLogger(record.name).handle(record)
    if isinstance(outcome, Exception):
        raise outcome
    words, center = outcome
    return source, EmbeddingSpace(words, matrix[: len(words)], center, _adopt=True)


def _timed_load(load, path, max_words, preprocessed, where, out=None) -> EmbeddingSpace:
    """``load``'s space, with an INFO line of its size, time and ``where``."""
    start = time.perf_counter()
    space = load(path, max_words, preprocessed=preprocessed, out=out)
    seconds = time.perf_counter() - start
    logger.info("%s: %d x %d loaded in %.3f s, %s", path, len(space), space.dim, seconds, where)
    return space


class _RecordList(logging.Handler):
    """Keeps every record, its message formatted, so it can be pickled."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _load_in_child(matrix, load, path, max_words, preprocessed, pipe) -> None:
    """The task of ``load_spaces``' forked child: load the target, its rows
    parsed into ``matrix``, a view of the shared mapping, and write
    ``(words, center)``, or the error, with the package's log records,
    pickled down the pipe."""
    package = logging.getLogger(__package__)
    collected = _RecordList()
    package.handlers, package.propagate = [collected], False
    try:
        space = _timed_load(load, path, max_words, preprocessed, "in a forked child", matrix)
    except Exception as exc:  # sent back and raised by the parent
        outcome: object = exc
    else:
        outcome = (space.words, space.center)
    pickle.dump((outcome, collected.records), pipe, pickle.HIGHEST_PROTOCOL)


# Rows per np.linalg.norm call when normalizing: the call squares its
# input, so one call over the whole matrix would need a second matrix.
# A row's norm has the same bits in any block; 64 rows keep the square as
# small as a parse chunk's rows (150 KB at dim 300), and normalizing
# 16k x 300 took 14 ms in blocks of 64 as in blocks of 1,024.
_NORM_BLOCK_ROWS = 64


def _normalize_rows_in_place(vectors: np.ndarray) -> list[int]:
    """Divide every row by its Euclidean norm, ``_NORM_BLOCK_ROWS`` rows per
    norm call; zero rows stay unchanged and their indices are returned."""
    zero_rows: list[int] = []
    for start in range(0, len(vectors), _NORM_BLOCK_ROWS):
        block = vectors[start : start + _NORM_BLOCK_ROWS]
        norms = np.linalg.norm(block, axis=1)
        zero = norms == 0.0
        norms[zero] = 1.0
        block /= norms[:, None]
        zero_rows.extend(start + int(i) for i in np.flatnonzero(zero))
    return zero_rows


def _preprocess_in_place(words: Sequence[str], vectors: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Both steps of ``preprocess`` on raw rows of a matrix this module
    owns, in place. Returns the words of the zero rows and the center, the
    mean of every normalized row."""
    if not len(vectors):
        raise ValueError("cannot mean-center a space with no rows")
    zero_words = [words[i] for i in _normalize_rows_in_place(vectors)]
    center = vectors.mean(axis=0)
    vectors -= center
    return zero_words, center


def preprocess(space: EmbeddingSpace) -> tuple[EmbeddingSpace, list[str]]:
    """Length-normalize a raw space, then subtract the mean of its rows
    from every row and store it as ``center``; zero rows stay unchanged
    and their words are returned, and a space with no rows cannot be
    centered (ValueError). A space with a center is preprocessed already:
    it comes back as it is, with no zero words. The input is not changed,
    and rows from outside the space, such as composed OOV vectors, get the
    same treatment from ``preprocessed_rows`` without moving the center.
    """
    if space.center is not None:
        return space, []
    vectors = np.array(space.vectors)
    zero_words, center = _preprocess_in_place(space.words, vectors)
    return replace(space, vectors=vectors, center=center, _adopt=True), zero_words


def ngrams(form: str) -> list[str]:
    """Boundary-wrapped character ``NGRAM_MIN``..``NGRAM_MAX``-grams of a
    form, one per occurrence."""
    wrapped = "<" + form + ">"
    out: list[str] = []
    for n in range(NGRAM_MIN, NGRAM_MAX + 1):
        out.extend(wrapped[i : i + n] for i in range(len(wrapped) - n + 1))
    return out


def compose_oov(form: str, ngram_table: EmbeddingSpace) -> np.ndarray:
    """Sum the table rows of every wrapped n-gram occurrence of ``form``,
    in occurrence order.

    N-grams absent from the table contribute nothing; if none is found
    at all the form cannot be composed and CompositionError is raised.
    """
    ids = [i for gram in ngrams(form) if (i := ngram_table.index_or_none(gram)) is not None]
    if not ids:
        raise CompositionError(f"no character n-gram of {form!r} found in the table")
    return ngram_table.vectors[ids].sum(axis=0)


def load_ngram_table(path: str, dim: int) -> EmbeddingSpace:
    """Read a header-less n-gram table, keyed by n-gram; every row
    carries ``dim`` finite values."""
    grams, vectors = read_float_rows(
        path, dim, first_lineno=1, error=VecFormatError, key="an n-gram"
    )
    return EmbeddingSpace(tuple(grams), vectors, _adopt=True)
