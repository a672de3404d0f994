"""Monolingual word-embedding spaces: loading, preprocessing, OOV composition.

The text format is the usual one: a ``<count> <dim>`` header line, then
one word and its coordinates per line. Row order doubles as the
frequency rank (row 0 = most frequent word).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import InitVar, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .textio import read_float_rows, sidecar_path, write_float_rows, write_json

logger = logging.getLogger(__name__)

DEFAULT_MAX_WORDS = 200_000
NGRAM_MIN = 3
NGRAM_MAX = 6


class VecFormatError(ValueError):
    """A word-vector file or n-gram table violates the text format."""


class CompositionError(ValueError):
    """No character n-gram of the form is covered by the table."""


class WordNotFoundError(KeyError):
    """Lookup of a word that is absent from an embedding space."""


@dataclass(eq=False)
class EmbeddingSpace:
    """An ordered vocabulary with one dense vector per word.

    ``words[i]`` has frequency rank ``i``. The first ``n_file_loaded``
    rows (None: every row) are the file-loaded vocabulary; vectors composed
    for OOV forms come after them, so they never displace the ranks of
    file-loaded words. ``center`` is None or ``dim`` finite floats.
    Instances are treated as immutable once built: preprocessing returns
    new spaces, so concurrent reads are safe.

    The constructor stores a read-only copy of ``vectors``, so the
    caller's array is never touched. ``_adopt=True`` stores the array
    itself: only for a fresh float64 matrix this module has just made.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    n_file_loaded: int | None = None
    unit_normalized: bool = False
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
        if self.n_file_loaded is None:
            self.n_file_loaded = len(self.words)
        elif not 0 <= self.n_file_loaded <= len(self.words):
            raise ValueError(f"n_file_loaded must lie in 0..{len(self.words)}")
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
        return self._index.get(word)

    def frequency_rank(self, word: str) -> int | None:
        """Row index of a file-loaded word; None when absent or composed."""
        index = self._index.get(word)
        return index if index is not None and index < self.n_file_loaded else None

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index(word)]

    def with_composed(self, additions: Iterable[tuple[str, np.ndarray]]) -> "EmbeddingSpace":
        """A new space with OOV rows appended after the existing ones."""
        additions = list(additions)
        if not additions:
            return self
        new_words = list(self.words)
        new_rows = [self.vectors]
        added: set[str] = set()
        for word, vec in additions:
            if word in self._index or word in added:
                raise ValueError(f"word already present: {word!r}")
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise ValueError(f"composed vector for {word!r} has wrong dimension")
            added.add(word)
            new_words.append(word)
            new_rows.append(vec[None, :])
        return replace(self, words=tuple(new_words), vectors=np.vstack(new_rows), _adopt=True)

    def preprocessed_rows(self, rows: np.ndarray) -> np.ndarray:
        """A fresh copy of rows from outside the space (composed OOV
        vectors) given the preprocessing the space has received, by the
        kernel a reload gives the space's own rows: row-wise unit
        normalization, then subtraction of the stored training mean."""
        rows = np.array(rows, dtype=np.float64, ndmin=2)
        if self.unit_normalized:
            _normalize_rows_in_place(rows)
        if self.center is not None:
            rows -= self.center
        return rows


def _read_vec_file(path: str, max_words: int | None) -> tuple[list[str], np.ndarray]:
    """The words and a fresh matrix of a .vec file's first ``min(count,
    max_words)`` rows. A repeated word keeps its first row (with a warning);
    malformed rows, non-finite values and a short file raise VecFormatError."""
    with open(path, encoding="utf-8") as handle:
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
        limit = count if max_words is None else min(count, max_words)
    return read_float_rows(
        path, dim, first_lineno=2, error=VecFormatError, limit=limit, key="a word"
    )


def save_vec_file(space: EmbeddingSpace, path: str) -> None:
    """Write a space in the .vec text format.

    Floats are rendered with repr, so reloading reproduces them
    bit-exactly.
    """
    write_float_rows(path, f"{len(space)} {space.dim}", space.vectors, space.words)


def save_space(space: EmbeddingSpace, path: str) -> None:
    """Write .vec plus a sidecar recording composed rows and preprocessing state."""
    save_vec_file(space, path)
    meta = {
        "composed": list(space.words[space.n_file_loaded:]),
        "unit_normalized": space.unit_normalized,
        "center": None if space.center is None else space.center.tolist(),
    }
    write_json(sidecar_path(path), meta)


def load_space(
    path: str, max_words: int | None = DEFAULT_MAX_WORDS, *, preprocessed: bool = False
) -> EmbeddingSpace:
    """Load a .vec file, restoring sidecar metadata when present.

    A sidecar that is not a JSON object, or that the space's own checks
    reject (a center that is not ``dim`` finite floats, a composed row
    before a file-loaded one), is a ``VecFormatError`` naming the sidecar.
    With ``preprocessed``, the
    space is then given whichever preprocessing step it has not had (see
    ``preprocess``), in place on the one parsed matrix, and its zero rows
    draw one warning naming the file; a file with no rows, or whose rows
    are all composed and have no stored center, is a ``VecFormatError``,
    as there is nothing to preprocess or no training mean to center on.
    """
    words, vectors = _read_vec_file(path, max_words)
    if preprocessed and not words:
        raise VecFormatError(f"{path}: no vectors to preprocess")
    meta_file = sidecar_path(path)
    try:
        meta = {}
        if os.path.exists(meta_file):
            with open(meta_file, encoding="utf-8") as handle:
                meta = json.load(handle)
        if not isinstance(meta, dict):
            raise ValueError("expected a JSON object")
        composed = set(meta.get("composed", []))
        n_file_loaded = next((i for i, w in enumerate(words) if w in composed), len(words))
        if not composed.issuperset(words[n_file_loaded:]):
            raise ValueError("composed rows must come after every file-loaded row")
        space = EmbeddingSpace(
            tuple(words), vectors, n_file_loaded,
            bool(meta.get("unit_normalized", False)), meta.get("center"), _adopt=True,
        )
    except (TypeError, ValueError) as exc:
        raise VecFormatError(f"{meta_file}: {exc}") from exc
    if not preprocessed:
        return space
    unit_normalized, center = space.unit_normalized, space.center
    if center is None and not n_file_loaded:
        raise VecFormatError(f"{path}: no file-loaded rows to mean-center")
    del space  # and its word index, before preprocessing and the final space's index
    vectors.setflags(write=True)  # still this function's own matrix
    zero_words, center = _preprocess_in_place(
        words, vectors, n_file_loaded, unit_normalized, center
    )
    if zero_words:
        logger.warning("%s: %d zero vectors could not be normalized", path, len(zero_words))
    return EmbeddingSpace(tuple(words), vectors, n_file_loaded, True, center, _adopt=True)


# Rows per np.linalg.norm call when normalizing: the call squares its
# input, so one call over the whole matrix would need a second matrix.
_NORM_BLOCK_ROWS = 1024


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


def _preprocess_in_place(
    words: Sequence[str],
    vectors: np.ndarray,
    n_file_loaded: int,
    unit_normalized: bool,
    center: np.ndarray | None,
) -> tuple[list[str], np.ndarray]:
    """``preprocess`` on a matrix this module owns, in place. Returns the
    words of the zero rows and the center. The center is the mean of the
    first ``n_file_loaded`` rows: composed rows come last and are centered
    on the training mean without moving it."""
    zero_words = [] if unit_normalized else [words[i] for i in _normalize_rows_in_place(vectors)]
    if center is None:
        if n_file_loaded == 0:
            raise ValueError("cannot mean-center a space with no file-loaded rows")
        center = vectors[:n_file_loaded].mean(axis=0)
        vectors -= center
    return zero_words, center


def preprocess(space: EmbeddingSpace) -> tuple[EmbeddingSpace, list[str]]:
    """Length-normalize unless ``unit_normalized`` is set, then subtract
    the mean of the file-loaded rows from every row and store it as
    ``center`` unless a center is set. Zero rows stay unchanged and are
    returned in the warning list; a space with no file-loaded rows cannot
    be centered (ValueError). The input is not changed.
    """
    vectors = np.array(space.vectors)
    zero_words, center = _preprocess_in_place(
        space.words, vectors, space.n_file_loaded, space.unit_normalized, space.center
    )
    processed = replace(space, vectors=vectors, unit_normalized=True, center=center, _adopt=True)
    return processed, zero_words


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
