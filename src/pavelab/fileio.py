"""Text formats: matrices, partitions, and the key=value config files.

Matrix format: first line "n_rows n_cols", then one line per row of
space-separated decimal literals.  The writer emits 17 significant digits so
files round-trip float64 exactly; the parser accepts scientific notation.

The matrix body is parsed in bulk, in chunks of `_CHUNK_ROWS` rows: each
chunk goes through one `np.loadtxt` call into one preallocated n_rows x
n_cols array, and the result is kept only when every chunk yields exactly
its rows.  loadtxt accepts a subset of what `float()` accepts and converts
it to the same bits, so on any other input (tabs, repeated or edge spaces,
`1_0`, non-ASCII digits, a malformed token, a short or long row) the per-row
loop decides.  That loop defines the grammar (whitespace-split tokens, each
read by `float()`) and is the only source of the row-numbered error
messages.  `read_matrix` feeds the chunks straight from the open file, so it
never holds the whole text, and then decodes the rest of the file.  Any
file they do not cleanly accept (too few rows, a header asking for more
entries than the file has bytes for, a decode error anywhere, a line break
that `str.splitlines` takes and file iteration does not) is read whole and
parsed by `matrix_from_text`, which gives the same bits or the same error.
The writer formats each row with one `%` on a row template and streams the
rows to the file.

Partition format: one line per block of space-separated indices, blocks
ordered by smallest element.

Every writer goes through `write_text`, which replaces the target atomically.
A file that does not decode as text is a `FormatError` naming the file.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import stat
import warnings
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import FormatError
from .matrices import DenseMatrix, Partition

_CHUNK_ROWS = 64


def _matrix_lines(a: DenseMatrix) -> Iterator[str]:
    yield f"{a.n_rows} {a.n_cols}\n"
    row_format = " ".join(["%.17g"] * a.n_cols) + "\n"
    for row in a.data:
        yield row_format % tuple(row.tolist())


def matrix_to_text(a: DenseMatrix) -> str:
    return "".join(_matrix_lines(a))


def _header(line: str) -> tuple[int, int]:
    head = line.split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n_rows n_cols', got {line!r}")
    try:
        n_rows, n_cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {line!r}") from exc
    if n_rows < 0 or n_cols < 0:
        raise FormatError("negative dimensions")
    return n_rows, n_cols


def matrix_from_text(text: str) -> DenseMatrix:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty matrix file")
    n_rows, n_cols = _header(lines[0])
    body = lines[1:]
    if len(body) < n_rows:
        raise FormatError(f"expected {n_rows} rows, found {len(body)}")
    data = _parse_rows(iter(body), n_rows, n_cols, len(text))
    if data is None:
        rows = []
        for i in range(n_rows):
            toks = body[i].split()
            if len(toks) != n_cols:
                raise FormatError(f"row {i}: expected {n_cols} entries, got {len(toks)}")
            try:
                rows.append([float(t) for t in toks])
            except ValueError as exc:
                raise FormatError(f"row {i}: non-numeric entry") from exc
        data = np.array(rows, dtype=float).reshape(n_rows, n_cols)
    return DenseMatrix(data)


def _parse_rows(
    lines: Iterator[str], n_rows: int, n_cols: int, size: int
) -> np.ndarray | None:
    """The next n_rows of `lines` parsed into one array, `_CHUNK_ROWS` lines
    per `np.loadtxt` call, or None where the per-row loop must decide.

    `size` bounds the length of the text: every entry takes at least one
    character and one separator, so a header asking for more than size / 2
    entries cannot be filled and nothing is allocated for it."""
    if not (n_rows and n_cols) or 2 * n_rows * n_cols > size:
        return None
    data = np.empty((n_rows, n_cols))
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = data[start:start + _CHUNK_ROWS]
        chunk = list(itertools.islice(lines, len(rows)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty or all-blank chunk warns
                parsed = np.loadtxt(chunk, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            return None
        if parsed.shape != rows.shape:
            return None
        rows[...] = parsed
    return data


def _single_lines(fh: TextIO) -> Iterator[str]:
    """The file's lines without their endings, up to the first one that
    `str.splitlines` would split further (at a form feed, \\x85, \\u2028 or
    another break that file iteration keeps inside a line)."""
    for line in fh:
        parts = line.splitlines()
        if len(parts) != 1:
            return
        yield parts[0]


def _read_text(path: str | os.PathLike) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{os.fspath(path)}: not {exc.encoding} text "
                f"({exc.reason} at byte {exc.start})"
            ) from None


def write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write `text`, a string or an iterable of strings, to `path` atomically.

    The text goes to a new temp file in the target's directory, created with
    the mode of the existing target (or the mode a plain open() would give
    a new file), which is then renamed onto the target; a failure mid-write,
    in writing or in producing the text, leaves any previous file untouched
    and no temp file behind.  An existing target that open() would not write
    (a read-only file) is refused the same way.  A symlink keeps pointing at
    the new file; a hard link to the old file keeps the old contents.  A
    target that exists but is no regular file (/dev/stdout, a pipe) cannot be
    replaced and is written in place.
    """
    pieces = [text] if isinstance(text, str) else text
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.writelines(pieces)
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
        except FileNotFoundError:
            mode = None
        else:  # open for writing without truncating: refused where open() was
            os.close(os.open(target, os.O_WRONLY))
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_matrix(a: DenseMatrix, path: str | os.PathLike) -> None:
    write_text(path, _matrix_lines(a))


def read_matrix(path: str | os.PathLike) -> DenseMatrix:
    """The matrix in the file at `path`, parsed from the open file in chunks
    of rows; a file the chunks do not cleanly accept is read whole and goes
    through `matrix_from_text`, the grammar and the source of every error."""
    data = None
    with open(path) as fh, contextlib.suppress(FormatError, UnicodeDecodeError):
        lines = _single_lines(fh)
        n_rows, n_cols = _header(next(lines, ""))
        parsed = _parse_rows(lines, n_rows, n_cols, os.fstat(fh.fileno()).st_size)
        for _ in fh:  # decode the rest too: a bad byte anywhere is the whole read's error
            pass
        data = parsed
    return matrix_from_text(_read_text(path)) if data is None else DenseMatrix._adopt(data)


def partition_to_text(part: Partition) -> str:
    return "\n".join(" ".join(str(i) for i in b.indices) for b in part.blocks) + "\n"


def partition_from_text(text: str, n: int) -> Partition:
    blocks = []
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        try:
            blocks.append([int(t) for t in toks])
        except ValueError as exc:
            raise FormatError(f"bad partition line {line!r}") from exc
    try:
        return Partition.from_blocks(n, blocks)
    except Exception as exc:
        raise FormatError(f"invalid partition: {exc}") from exc


def write_partition(part: Partition, path: str | os.PathLike) -> None:
    write_text(path, partition_to_text(part))


def read_config(path: str | os.PathLike) -> dict:
    """key=value lines; '#' starts a comment; values become int/float/str."""
    opts: dict = {}
    for raw in _read_text(path).split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line without '=': {raw.rstrip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        opts[key.replace("-", "_")] = _coerce(value)
    return opts


def _coerce(value: str):
    try:
        return int(value, 0)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value
