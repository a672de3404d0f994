"""The text rules every on-disk format shares: tab-separated rows, rows of
floats, JSON documents and the ``.meta.json`` sidecar path.

Each format's own details (headers, magic strings, what a column means)
stay in the module that owns the format; this module only reads and
writes the lines. Every file is UTF-8.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from typing import Callable, Collection, Iterable, Iterator, NoReturn, Sequence, TypeVar

import numpy as np

logger = logging.getLogger(__name__)

_Row = TypeVar("_Row")


def sidecar_path(path: str) -> str:
    """The JSON sidecar written next to a space or a model file."""
    return f"{path}.meta.json"


def write_json(path: str, obj: object) -> None:
    """Keys sorted, two-space indent and a final newline, so equal objects
    give equal bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_tsv(
    path: str,
    columns: int | Collection[int],
    error: Callable[[str], Exception],
    parse_row: Callable[[list[str]], _Row],
    first_lineno: int = 1,
) -> list[_Row]:
    """``parse_row`` of the tab-separated fields of every line from line
    ``first_lineno`` on.

    Blank and whitespace-only lines are skipped. A line with a number of
    fields outside ``columns``, or one whose ``parse_row`` raises
    ValueError, raises ``error("<path>: line N: ...")``.
    """
    allowed = {columns} if isinstance(columns, int) else set(columns)
    expected = " or ".join(map(str, sorted(allowed)))
    rows: list[_Row] = []
    with open(path, encoding="utf-8") as handle:
        lines = itertools.islice(handle, first_lineno - 1, None)
        for lineno, line in enumerate(lines, start=first_lineno):
            if line.isspace():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) not in allowed:
                raise error(f"{path}: line {lineno}: expected {expected} tab-separated columns")
            try:
                rows.append(parse_row(fields))
            except ValueError as exc:
                raise error(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_tsv(path: str, header: Sequence[str] | None, rows: Iterable[Sequence[object]]) -> None:
    """One line per row, fields joined by tabs, after the ``header``
    fields when there are any."""
    with open(path, "w", encoding="utf-8") as handle:
        if header is not None:
            handle.write("\t".join(header) + "\n")
        handle.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def write_float_rows(
    path: str, header: str, matrix: np.ndarray, keys: Sequence[str] | None = None
) -> None:
    """The ``header`` line, then one line of space-separated values per
    row, after the row's key when ``keys`` are given. Floats are written
    with repr, so ``read_float_rows`` gets every bit back."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for i, row in enumerate(matrix):
            text = " ".join(map(repr, row.tolist())) + "\n"
            handle.write(text if keys is None else keys[i] + " " + text)


# The key of a row (its word or n-gram): everything up to the first ASCII
# space or tab, after any leading ones. Other whitespace, such as U+00A0,
# belongs to the key, as in the words fastText writes.
_KEY = re.compile(r"[ \t]*([^ \t\n]*)")
_LOADTXT = dict(dtype=np.float64, comments=None, quotechar=None, ndmin=2)


def read_float_rows(
    path: str,
    dim: int,
    *,
    first_lineno: int,
    error: type[ValueError],
    limit: int | None = None,
    key: str | None = None,
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
    dropped: list[int] = []  # positions of the rows dropped as repeats
    count = 0  # rows read

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
        nonlocal count
        for position, (lineno, row_key, text) in enumerate(rows()):
            if not text or text.isspace():
                raise ValueError("no values")  # loadtxt would skip the line
            if row_key in seen:
                logger.warning(
                    "%s: line %d: duplicate %r, keeping the first occurrence",
                    path, lineno, row_key,
                )
                dropped.append(position)
            elif row_key is not None:
                seen[row_key] = None
            count += 1
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
        position = int(np.delete(np.arange(count), dropped)[bad])
        lineno = next(itertools.islice(rows(), position, None))[0]
        raise error(f"{path}: line {lineno}: non-finite value{where}")
    return keys, matrix
