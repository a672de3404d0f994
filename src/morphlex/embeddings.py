"""Monolingual word-embedding spaces: loading, preprocessing, retrieval.

The text format is the usual one: a ``<count> <dim>`` header line, then
one word and its coordinates per line. Row order doubles as the
frequency rank (row 0 = most frequent word).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import InitVar, dataclass, replace
from typing import Iterable, Mapping, Sequence

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

    ``words[i]`` has frequency rank ``i``. Vectors composed for OOV forms
    come after every file-loaded row and are marked in ``composed_flags``;
    they never displace the ranks of file-loaded words. ``center`` is None
    or ``dim`` finite floats. Instances are treated as immutable once
    built: preprocessing returns new spaces, so concurrent reads are safe.

    The constructor stores a read-only copy of ``vectors``, so the
    caller's array is never touched. ``_adopt=True`` stores the array
    itself: only for a fresh float64 matrix this module has just made.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    composed_flags: np.ndarray | None = None
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
        if self.composed_flags is None:
            flags = np.zeros(len(self.words), dtype=bool)
        else:
            flags = np.array(self.composed_flags, dtype=bool)
            if flags.shape != (len(self.words),):
                raise ValueError("composed_flags must have one entry per word")
            if np.any(flags[:-1] > flags[1:]):
                raise ValueError("composed rows must come after every file-loaded row")
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
        flags.setflags(write=False)
        self.vectors = vectors
        self.composed_flags = flags
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
    def n_file_loaded(self) -> int:
        """Number of rows read from file (rank range of the 'real' vocabulary)."""
        return int(np.count_nonzero(~self.composed_flags))

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
        if index is None or self.composed_flags[index]:
            return None
        return index

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index(word)]

    def is_composed(self, word: str) -> bool:
        return bool(self.composed_flags[self.index(word)])

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
        flags = np.concatenate([self.composed_flags, np.ones(len(additions), dtype=bool)])
        return replace(
            self,
            words=tuple(new_words),
            vectors=np.vstack(new_rows),
            composed_flags=flags,
            _adopt=True,
        )


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
        "composed": [w for w, f in zip(space.words, space.composed_flags) if f],
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
    draw one warning naming the file; a file with no rows is a
    ``VecFormatError``, as there is nothing to preprocess.
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
        space = EmbeddingSpace(
            tuple(words), vectors, [w in composed for w in words] if composed else None,
            bool(meta.get("unit_normalized", False)), meta.get("center"), _adopt=True,
        )
    except (TypeError, ValueError) as exc:
        raise VecFormatError(f"{meta_file}: {exc}") from exc
    if not preprocessed:
        return space
    flags, unit_normalized, center = space.composed_flags, space.unit_normalized, space.center
    del space  # and its word index, before preprocessing and the final space's index
    vectors.setflags(write=True)  # still this function's own matrix
    zero_words, center = _preprocess_in_place(words, vectors, unit_normalized, center)
    if zero_words:
        logger.warning("%s: %d zero vectors could not be normalized", path, len(zero_words))
    return EmbeddingSpace(tuple(words), vectors, flags, True, center, _adopt=True)


# Rows per np.linalg.norm call when normalizing: the call squares its
# input, so one call over the whole matrix would need a second matrix.
_NORM_BLOCK_ROWS = 1024


def _preprocess_in_place(
    words: Sequence[str],
    vectors: np.ndarray,
    unit_normalized: bool,
    center: np.ndarray | None,
) -> tuple[list[str], np.ndarray]:
    """``preprocess`` on a matrix this module owns, in place. Returns the
    words of the zero rows and the center."""
    zero_words: list[str] = []
    if not unit_normalized:
        for start in range(0, len(vectors), _NORM_BLOCK_ROWS):
            block = vectors[start : start + _NORM_BLOCK_ROWS]
            norms = np.linalg.norm(block, axis=1)
            zero = norms == 0.0
            norms[zero] = 1.0
            block /= norms[:, None]
            zero_words.extend(words[start + i] for i in np.flatnonzero(zero))
    if center is None:
        if len(vectors) == 0:
            raise ValueError("cannot mean-center an empty space")
        center = vectors.mean(axis=0)
        vectors -= center
    return zero_words, center


def preprocess(space: EmbeddingSpace) -> tuple[EmbeddingSpace, list[str]]:
    """Length-normalize unless ``unit_normalized`` is set, then subtract
    the mean of all rows and store it as ``center`` unless a center is
    set. Zero rows stay unchanged and are returned in the warning list; an
    empty space cannot be centered (ValueError). The input is not changed.
    """
    vectors = np.array(space.vectors)
    zero_words, center = _preprocess_in_place(
        space.words, vectors, space.unit_normalized, space.center
    )
    processed = replace(space, vectors=vectors, unit_normalized=True, center=center, _adopt=True)
    return processed, zero_words


def apply_preprocessing(space: EmbeddingSpace, vec: np.ndarray) -> np.ndarray:
    """Give a vector from outside the space (a composed OOV vector) the
    preprocessing the space has received: unit normalization, then
    subtraction of the stored training mean."""
    if space.unit_normalized:
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec = vec / norm
    if space.center is not None:
        vec = vec - space.center
    return vec


def ngrams(form: str, min_n: int = NGRAM_MIN, max_n: int = NGRAM_MAX) -> list[str]:
    """Boundary-wrapped character n-grams of a form, one per occurrence."""
    wrapped = "<" + form + ">"
    out: list[str] = []
    for n in range(min_n, max_n + 1):
        out.extend(wrapped[i : i + n] for i in range(len(wrapped) - n + 1))
    return out


def compose_oov(
    form: str,
    ngram_table: Mapping[str, np.ndarray],
    min_n: int = NGRAM_MIN,
    max_n: int = NGRAM_MAX,
) -> np.ndarray:
    """Sum the table vectors of every wrapped n-gram occurrence of ``form``.

    N-grams absent from the table contribute nothing; if none is found
    at all the form cannot be composed and CompositionError is raised.
    """
    total: np.ndarray | None = None
    for gram in ngrams(form, min_n, max_n):
        vec = ngram_table.get(gram)
        if vec is None:
            continue
        total = np.array(vec, dtype=np.float64) if total is None else total + vec
    if total is None:
        raise CompositionError(f"no character n-gram of {form!r} found in the table")
    return total


def load_ngram_table(path: str, dim: int) -> dict[str, np.ndarray]:
    """Read a header-less n-gram table; every row carries ``dim`` finite values."""
    grams, vectors = read_float_rows(
        path, dim, first_lineno=1, error=VecFormatError, key="an n-gram"
    )
    return dict(zip(grams, vectors))


def top_by_cosine(
    space: EmbeddingSpace, products: np.ndarray, query_norms: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best rows of the space for each query, from raw products.

    ``products[i, j]`` is the dot product of query i with row j and
    ``query_norms[i]`` the norm of query i. Cosine divides by the cached
    row norms times the query norm. Exact ties go to the lower (more
    frequent) rank, and zero rows score -inf, so they never beat a
    non-zero row. Returns the (queries, k) row indices and their cosines.
    """
    if not np.all(query_norms > 0.0):
        raise ValueError("cannot rank neighbours of a zero query vector")
    scores = np.multiply.outer(query_norms, space.row_norms)
    zero = scores == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(products, scores, out=scores)
    scores[zero] = -np.inf
    if k == 1:
        order = np.argmax(scores, axis=1)[:, None]
    else:
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def nearest(space: EmbeddingSpace, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The ``k`` words most cosine-similar to ``query``, best first,
    under the tie and zero-row rules of ``top_by_cosine``."""
    if k <= 0:
        raise ValueError("k must be positive")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (space.dim,):
        raise ValueError(f"query has shape {q.shape}, expected ({space.dim},)")
    order, scores = top_by_cosine(
        space, (space.vectors @ q)[None, :], np.array([np.linalg.norm(q)]), min(k, len(space))
    )
    return [(space.words[i], float(score)) for i, score in zip(order[0], scores[0])]
