"""Monolingual word-embedding spaces: loading, preprocessing, retrieval.

The text format is the usual one: a ``<count> <dim>`` header line, then
one word and its coordinates per line. Row order doubles as the
frequency rank (row 0 = most frequent word).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, NoReturn

import numpy as np

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
    are appended after every file-loaded row and marked in
    ``composed_flags``; they never displace the ranks of file-loaded
    words. Instances are treated as immutable once built: preprocessing
    returns new spaces, so concurrent reads are safe.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    composed_flags: np.ndarray | None = None
    unit_normalized: bool = False
    center: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.words = tuple(self.words)
        vectors = np.array(self.vectors, dtype=np.float64)
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
        )


def load_vec_file(path: str, max_words: int | None = DEFAULT_MAX_WORDS) -> EmbeddingSpace:
    """Read the leading ``min(count, max_words)`` entries of a .vec file.

    Duplicate words keep their first occurrence (later ones are dropped
    with a warning); malformed rows, non-finite values and a file shorter
    than its header promises raise VecFormatError.
    """
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
    words, vectors = _read_float_rows(path, dim, first_lineno=2, limit=limit, key="a word")
    return EmbeddingSpace(tuple(words), vectors)


# The key of a row (its word or n-gram): everything up to the first ASCII
# space or tab, after any leading ones. Other whitespace, such as U+00A0,
# belongs to the key, as in the words fastText writes.
_KEY = re.compile(r"[ \t]*([^ \t\n]*)")
_LOADTXT = dict(dtype=np.float64, comments=None, quotechar=None, ndmin=2)


def _read_float_rows(
    path: str,
    dim: int,
    *,
    first_lineno: int,
    limit: int | None = None,
    key: str | None = None,
    error: type[ValueError] = VecFormatError,
) -> tuple[list[str], np.ndarray]:
    """The rows of ``dim`` floats in a text file, parsed by one streaming
    ``np.loadtxt`` call; no line is kept in memory.

    Rows start at line ``first_lineno``. With a ``limit`` (a .vec body),
    exactly that many lines are read and a blank one is a malformed row;
    without one, rows run to the end of the file and blank lines are
    skipped. With ``key`` (the phrase naming it in messages, such as
    "a word"), each row opens with a key that ends at the first ASCII
    space or tab; a row whose key was seen before is dropped with a
    warning. Returns the kept keys (empty without ``key``) and their rows.
    A malformed or non-numeric row, then a short file, then a non-finite
    value in a kept row raise ``error`` naming the first offending line;
    a second, line-by-line pass finds the malformed or non-numeric one.
    """
    seen: dict[str, None] = {}  # the kept keys, in order
    linenos: list[int] = []  # lines of the kept rows
    dropped: list[int] = []  # positions of the rows dropped as repeats

    def rows() -> Iterator[tuple[int, str | None, str]]:
        """(line number, key, values text) of each row line."""
        stop = None if limit is None else first_lineno - 1 + limit
        with open(path, encoding="utf-8") as handle:
            lines = itertools.islice(handle, first_lineno - 1, stop)
            for lineno, line in enumerate(lines, start=first_lineno):
                if limit is None and line.isspace():
                    continue
                if key is None:
                    yield lineno, None, line
                else:
                    match = _KEY.match(line)
                    yield lineno, match.group(1), line[match.end():]

    def values() -> Iterator[str]:
        for position, (lineno, row_key, text) in enumerate(rows()):
            if not text or text.isspace():
                raise ValueError("no values")  # loadtxt would skip the line
            if row_key in seen:
                logger.warning(
                    "%s: line %d: duplicate %r, keeping the first occurrence",
                    path, lineno, row_key,
                )
                dropped.append(position)
            else:
                if row_key is not None:
                    seen[row_key] = None
                linenos.append(lineno)
            yield text

    def first_fault(cause: ValueError | None) -> NoReturn:
        """Parse the rows again one at a time, with the same parser, and
        raise ``error`` for the first malformed or non-numeric one."""
        expected = f"{dim} values" if key is None else f"{key} and {dim} values"
        for lineno, _, text in rows():
            found = len(text.split())
            try:
                row = np.loadtxt([text], **_LOADTXT) if found == dim else None
            except ValueError as exc:
                raise error(f"{path}: line {lineno}: non-numeric value") from exc
            if row is None or row.shape != (1, dim):
                raise error(f"{path}: line {lineno}: expected {expected}, found {found} values")
        raise error(f"{path}: unreadable rows") from cause

    stream = values()
    try:
        first = next(stream, None)  # loadtxt warns on an empty stream
        matrix = (
            np.zeros((0, dim))
            if first is None
            else np.loadtxt(itertools.chain([first], stream), **_LOADTXT)
        )
    except ValueError as exc:
        first_fault(exc)
    count = len(linenos) + len(dropped)
    if matrix.shape != (count, dim):
        first_fault(None)
    if limit is not None and count < limit:
        raise error(f"{path}: expected {limit} rows after the header, found {count}")
    if dropped:
        matrix = np.delete(matrix, dropped, axis=0)
    keys = list(seen)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        where = f" in the vector of {keys[bad]!r}" if keys else ""
        raise error(f"{path}: line {linenos[bad]}: non-finite value{where}")
    return keys, matrix


def save_vec_file(space: EmbeddingSpace, path: str) -> None:
    """Write a space in the .vec text format.

    Floats are rendered with repr, so reloading reproduces them
    bit-exactly.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(space)} {space.dim}\n")
        for word, row in zip(space.words, space.vectors):
            handle.write(word + " " + " ".join(repr(float(x)) for x in row) + "\n")


def metadata_path(vec_path: str) -> str:
    return f"{vec_path}.meta.json"


def save_space(space: EmbeddingSpace, path: str) -> None:
    """Write .vec plus a sidecar recording composed rows and preprocessing state."""
    save_vec_file(space, path)
    meta = {
        "composed": [w for w, f in zip(space.words, space.composed_flags) if f],
        "unit_normalized": space.unit_normalized,
        "center": None if space.center is None else [float(x) for x in space.center],
    }
    with open(metadata_path(path), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_space(path: str, max_words: int | None = DEFAULT_MAX_WORDS) -> EmbeddingSpace:
    """Load a .vec file, restoring sidecar metadata when present."""
    space = load_vec_file(path, max_words=max_words)
    meta_file = metadata_path(path)
    if not os.path.exists(meta_file):
        return space
    with open(meta_file, encoding="utf-8") as handle:
        meta = json.load(handle)
    composed = set(meta.get("composed", []))
    flags = np.array([w in composed for w in space.words], dtype=bool)
    center = meta.get("center")
    return replace(
        space,
        composed_flags=flags,
        unit_normalized=bool(meta.get("unit_normalized", False)),
        center=None if center is None else np.asarray(center, dtype=np.float64),
    )


def length_normalize(space: EmbeddingSpace) -> tuple[EmbeddingSpace, list[str]]:
    """Scale every row to unit Euclidean norm.

    Zero rows cannot be normalized; they are left unchanged and returned
    in the warning list.
    """
    norms = np.linalg.norm(space.vectors, axis=1)
    zero = norms == 0.0
    scaled = space.vectors / np.where(zero, 1.0, norms)[:, None]
    zero_words = [space.words[i] for i in np.flatnonzero(zero)]
    if zero_words:
        logger.warning("length_normalize: %d zero rows left unchanged", len(zero_words))
    return replace(space, vectors=scaled, unit_normalized=True), zero_words


def mean_center(space: EmbeddingSpace) -> EmbeddingSpace:
    """Subtract the per-coordinate mean of all rows from every row."""
    if len(space) == 0:
        raise ValueError("cannot mean-center an empty space")
    mean = space.vectors.mean(axis=0)
    total = mean if space.center is None else space.center + mean
    return replace(space, vectors=space.vectors - mean, center=total)


def preprocess(space: EmbeddingSpace) -> tuple[EmbeddingSpace, list[str]]:
    """Length-normalize, then mean-center, in that order."""
    normalized, zero_words = length_normalize(space)
    return mean_center(normalized), zero_words


def ensure_preprocessed(space: EmbeddingSpace) -> tuple[EmbeddingSpace, list[str]]:
    """Apply whichever of the two preprocessing steps has not run yet."""
    zero_words: list[str] = []
    if not space.unit_normalized:
        space, zero_words = length_normalize(space)
    if space.center is None:
        space = mean_center(space)
    return space, zero_words


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
    grams, vectors = _read_float_rows(path, dim, first_lineno=1, key="an n-gram")
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
