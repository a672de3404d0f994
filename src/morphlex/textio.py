"""The text rules every on-disk format shares: tab-separated rows, rows of
floats and JSON documents, and the two error bases the CLI maps to exit
codes.

Each format's own details (headers, magic strings, what a column means)
stay in the module that owns the format; this module only reads and
writes the lines. Every file is UTF-8. Every reader opens its file with
``open_text``, so a byte sequence that does not decode is a
``DataError`` naming the file and line; every writer opens its file with
``open_output``, so an error a write raises names the file. Each
format's error subclasses ``DataError`` (exit 2) and each condition that
leaves nothing to train or score subclasses ``UntrainableError`` (exit 3).

``read_float_rows`` parses ``_CHUNK_ROWS`` rows at a time straight into
one matrix, a caller's when it passes one, such as a view of a shared
mapping, holding one chunk of lines and its parsed rows beside it.
``write_float_rows`` refuses a row ``read_float_rows`` would reject. A
matrix of ``_FORK_MIN_VALUES`` values or more it writes with one forked
child, which formats the second half of the rows and holds that text,
about half the file, until this process appends it.
``_forked`` is the one helper that forks, here and in
``embeddings.load_spaces``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import logging
import os
import re
import signal
from typing import Callable, Collection, Iterable, Iterator, NoReturn, Sequence, TextIO, TypeVar

import numpy as np

logger = logging.getLogger(__name__)

_Row = TypeVar("_Row")


class DataError(ValueError):
    """An input file violates its format or does not fit the other inputs."""


class UntrainableError(ValueError):
    """The inputs are well formed but leave nothing to train or score."""


# What a byte that does not decode becomes under the surrogateescape
# error handler; strict UTF-8 never decodes to these code points.
_UNDECODED = re.compile("[\udc80-\udcff]")


@contextlib.contextmanager
def decode_errors_named(path: str) -> Iterator[None]:
    """Raise a UnicodeDecodeError from the block as a DataError naming
    ``path`` and its first line that does not decode: ``<path>: line N: not
    UTF-8``. The text decoder works in 8 KB chunks, so the error cannot tell
    the line; a second pass over the file, each bad byte escaped, finds it.
    Standard input, ``-``, is named ``<stdin>``; it and any other path that
    is not a regular file, such as a FIFO, cannot be read twice and are
    named without a line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        where = "<stdin>" if path == "-" else path
        if path != "-" and os.path.isfile(path):
            with open(path, encoding="utf-8", errors="surrogateescape") as handle:
                found = (n for n, line in enumerate(handle, start=1) if _UNDECODED.search(line))
                where += f": line {next(found, '?')}"  # "?" if the file changed in between
        raise DataError(f"{where}: not UTF-8") from exc


@contextlib.contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """``path`` opened to read UTF-8 text, its decode errors named as
    ``decode_errors_named`` names them."""
    with open(path, encoding="utf-8") as handle, decode_errors_named(path):
        yield handle


class _NamedFileOutput(io.FileIO):
    """A file opened to write whose write errors name it: the OSError a
    write raises, such as a broken pipe on a FIFO, names no file itself."""

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            if exc.filename is not None:
                raise
            raise type(exc)(exc.errno, exc.strerror, self.name) from exc


def open_output(path: str) -> TextIO:
    """``path`` opened to write UTF-8 text, the writing twin of
    ``open_text``: an OSError that opening, writing or closing it raises
    names ``path``."""
    return io.TextIOWrapper(io.BufferedWriter(_NamedFileOutput(path, "w")), encoding="utf-8")


def write_json(path: str, obj: object) -> None:
    """Keys sorted, two-space indent and a final newline, so equal objects
    give equal bytes."""
    with open_output(path) as handle:
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
    with open_text(path) as handle:
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
    with open_output(path) as handle:
        if header is not None:
            handle.write("\t".join(header) + "\n")
        handle.writelines("\t".join(map(str, row)) + "\n" for row in rows)


# A matrix of at least this many values (rows x dim) is written by two
# processes, and a .vec target of this many (from its header) is loaded in
# a forked child (embeddings.load_spaces). Below it a fork's copy-on-write
# faults, tens of ms, are not won back. Loading two preprocessed spaces in
# a fresh process, forked against serial (2 vCPUs, one BLAS thread,
# medians of 8-15 alternating pairs): 960 x 24 took the same wall time
# and 4% more CPU time; 1000 x 100, -8% wall and +6% CPU; 2000 x 150,
# -27% and -7%; 4000 x 250, -35% and -3%. The floor keeps a margin above
# that crossover.
_FORK_MIN_VALUES = 1_000_000


@contextlib.contextmanager
def _forked(
    task: Callable[[io.BufferedWriter], object], cannot_fork: Callable[[OSError], None]
) -> Iterator[Callable[[], bytes | None]]:
    """Run ``task`` in a forked child while the block runs here. The block
    gets ``reply``: called once, it waits for the child's whole reply,
    reaps the child and returns the reply, or None when the child died
    before writing all of it (the caller then does the task itself).

    The child passes ``task`` the write end of a pipe to write its reply
    to, and leaves through ``os._exit``, 0 only once the whole reply is
    written: it runs no exit handler and flushes no buffer it inherited.
    When the block raises before ``reply`` returns, the child is killed and
    reaped before the error propagates. Where ``os.fork`` is missing, or
    the pipe or the fork fails, nothing of the attempt stays open,
    ``cannot_fork`` gets the OSError (if any) and ``reply`` returns None.

    Python 3.12 and later warn (DeprecationWarning) on ``os.fork`` in a
    process with more than one thread, such as one with a multi-threaded
    BLAS pool; the tests turn that warning into an error.
    """
    read_fd = pid = failed = None
    try:
        if hasattr(os, "fork"):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
    except OSError as exc:
        if read_fd is not None:
            os.close(read_fd)
            os.close(write_fd)
        failed = exc
    if pid is None:
        if failed is not None:
            cannot_fork(failed)
        yield lambda: None
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                task(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    status = None

    def reply() -> bytes | None:
        nonlocal status
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        return data if status == 0 else None

    with open(read_fd, "rb") as pipe:
        try:
            yield reply
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _float_lines(
    matrix: np.ndarray, keys: Sequence[str] | None, start: int, stop: int
) -> Iterator[str]:
    """The lines of rows ``start`` to ``stop``: each row's values by repr,
    space-separated, after its key when there are ``keys``."""
    for i in range(start, stop):
        text = " ".join(map(repr, matrix[i].tolist())) + "\n"
        yield text if keys is None else keys[i] + " " + text


def _encoded_lines(
    matrix: np.ndarray, keys: Sequence[str] | None, start: int, stop: int
) -> bytearray:
    """``_float_lines`` as UTF-8 in one buffer: no more than their text."""
    encoded = bytearray()
    for line in _float_lines(matrix, keys, start, stop):
        encoded += line.encode()
    return encoded


def write_float_rows(
    path: str, header: str, matrix: np.ndarray, keys: Sequence[str] | None = None
) -> None:
    """The ``header`` line, then one line of space-separated values per
    row, after the row's key when ``keys`` are given. Floats are written
    with repr, so ``read_float_rows`` gets every bit back.

    A row that ``read_float_rows`` would not read back, a key that is empty
    or holds a space, tab, line break or lone surrogate or a non-finite
    value, is a ValueError naming the row before anything is opened.

    A matrix of at least ``_FORK_MIN_VALUES`` values is written by two
    processes, with the bytes one process writes: a forked child formats
    the second half of the rows, while this process writes the header and
    the first half, then appends the child's text. The child holds about
    half the file's text until it is read back. If the fork fails (one
    warning) or the child dies, this process formats that half itself.
    """
    # The reader ends a key at an ASCII space or tab, text mode reads "\r"
    # as a line break, and UTF-8 cannot encode a lone surrogate.
    unreadable = re.compile("[ \t\n\r\ud800-\udfff]")
    for i, key in enumerate(keys or ()):
        if not key:
            raise ValueError(f"{path}: row {i}: empty key")
        if unreadable.search(key):
            raise ValueError(
                f"{path}: row {i}: key {key!r} holds a space, tab, line break or lone surrogate"
            )
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: row {int(np.argmin(finite))}: non-finite value")
    rows, half = len(matrix), len(matrix) // 2

    def cannot_fork(exc: OSError) -> None:
        logger.warning(
            "%s: cannot format rows in a forked child (%s), formatting them in-process", path, exc
        )

    child = (
        _forked(lambda pipe: pipe.write(_encoded_lines(matrix, keys, half, rows)), cannot_fork)
        if matrix.size >= _FORK_MIN_VALUES
        else contextlib.nullcontext(lambda: None)
    )
    with child as reply, open_output(path) as handle:
        handle.write(header + "\n")
        handle.writelines(_float_lines(matrix, keys, 0, half))
        tail = reply()
        if tail is None:
            handle.writelines(_float_lines(matrix, keys, half, rows))
        else:
            handle.flush()
            handle.buffer.write(tail)


# The key of a row (its word or n-gram): everything up to the first ASCII
# space or tab, after any leading ones. Other whitespace, such as U+00A0,
# belongs to the key, as in the words fastText writes.
_KEY = re.compile(r"[ \t]*([^ \t\n]*)")
_LOADTXT = dict(dtype=np.float64, comments=None, quotechar=None, ndmin=2)

# Rows per np.loadtxt call: one chunk of lines and its parsed rows, 380 KB
# and 150 KB at dim 300, are all the reader holds beside its result.
# Parsing 4,096 rows in chunks of 16 to 4,096 rows took the same time at
# dim 24 and at dim 300; one row per call took 14 to 75% longer.
_CHUNK_ROWS = 64


def read_float_rows(
    path: str,
    dim: int,
    *,
    first_lineno: int,
    error: type[ValueError],
    limit: int | None = None,
    key: str | None = None,
    out: np.ndarray | None = None,
) -> tuple[list[str], np.ndarray]:
    """The rows of ``dim`` floats in a text file, parsed ``_CHUNK_ROWS``
    lines per ``np.loadtxt`` call straight into one matrix with a row per
    line; one chunk of lines and its parsed rows are in memory beside it.

    Rows start at line ``first_lineno``. With a ``limit`` (a .vec body),
    exactly that many lines are read and a blank one is a malformed row;
    without one, rows run to the end of the file, blank lines are skipped
    and a first pass counts the rows. ``out``, a float64 matrix of that
    many rows and ``dim`` columns (such as a view of a shared mapping), is
    the matrix parsed into; without it a new one is made. With ``key``
    (the phrase naming it in messages, such as "a word"), each row opens
    with a key that ends at the first ASCII space or tab; a row whose key
    was seen before is parsed, then dropped with a warning, and the rows
    after it move up. Returns the kept keys (empty without ``key``) and the
    first rows of the matrix, one per kept row.

    A malformed or non-numeric row, then a short file, then a non-finite
    value in a kept row raise ``error`` naming the first offending line;
    a second, line-by-line pass finds the malformed or non-numeric one.
    How many lines a chunk holds changes none of this.
    """
    # One handle for every pass, closed on every error path: the raised
    # error must not keep the file open through a suspended generator.
    with open_text(path) as handle:

        def lines() -> Iterator[tuple[int, str]]:
            """(line number, line) of each row line, read from the start of
            the file."""
            handle.seek(0)
            stop = None if limit is None else first_lineno - 1 + limit
            numbered = enumerate(itertools.islice(handle, first_lineno - 1, stop), first_lineno)
            for lineno, line in numbered:
                if limit is not None or not line.isspace():
                    yield lineno, line

        def rows() -> Iterator[tuple[int, str | None, str]]:
            """(line number, key, values text) of each row line."""
            for lineno, line in lines():
                if key is None:
                    yield lineno, None, line
                else:
                    match = _KEY.match(line)
                    yield lineno, match.group(1), line[match.end():]

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

        total = limit if limit is not None else sum(1 for _ in lines())
        if out is None:
            # A row's line takes 2 * dim bytes at least (the last one may
            # lack its line break), so a header that claims more rows than
            # the file holds costs no memory.
            size = os.fstat(handle.fileno()).st_size
            matrix = np.empty((min(total, (size + 1) // (2 * dim)), dim))
        elif out.shape == (total, dim):
            matrix = out
        else:
            raise error(f"{path}: changed while it was read")
        seen: dict[str, None] = {}  # the kept keys, in order
        count = kept = 0  # rows read, rows kept
        non_finite: tuple[int, str | None] | None = None  # the first kept row with one
        stream = rows()
        while chunk := list(itertools.islice(stream, _CHUNK_ROWS)):
            if any(not text or text.isspace() for _, _, text in chunk):
                first_fault(None)  # loadtxt would skip the line
            try:
                parsed = np.loadtxt([text for _, _, text in chunk], **_LOADTXT)
            except ValueError as exc:
                first_fault(exc)
            if parsed.shape != (len(chunk), dim):
                first_fault(None)
            if count + len(chunk) > len(matrix):  # rows added since the count
                raise error(f"{path}: changed while it was read")
            count += len(chunk)
            keep = []  # whether each row's key is new
            for lineno, row_key, _ in chunk:
                new = row_key not in seen
                if not new:
                    logger.warning(
                        "%s: line %d: duplicate %r, keeping the first occurrence",
                        path, lineno, row_key,
                    )
                elif row_key is not None:
                    seen[row_key] = None
                keep.append(new)
            if not all(keep):
                chunk, parsed = [row for row, new in zip(chunk, keep) if new], parsed[keep]
            block = matrix[kept : kept + len(chunk)]
            block[...] = parsed
            kept += len(chunk)
            finite = np.isfinite(block).all(axis=1)
            if non_finite is None and not finite.all():
                non_finite = chunk[int(np.argmin(finite))][:2]
        if limit is not None and count < limit:
            raise error(f"{path}: expected {limit} rows after the header, found {count}")
        if non_finite is not None:
            lineno, row_key = non_finite
            where = "" if row_key is None else f" in the vector of {row_key!r}"
            raise error(f"{path}: line {lineno}: non-finite value{where}")
        return list(seen), matrix[:kept]
