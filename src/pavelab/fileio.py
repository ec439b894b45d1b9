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
messages.  `read_matrix` parses the body of the open file in byte-range
shares over forked processes (`_read_shares`).  Any file they do not
cleanly accept (too few or too many rows, a header asking for more entries
than the file has bytes for, a decode error anywhere, a line break that
`str.splitlines` takes and file iteration does not, a non-UTF-8 locale) is
read whole and parsed by `matrix_from_text`, which gives the same bits or
the same error.
The writer formats each row with one `%` on a row template and streams the
rows to the file.

Partition format: one line per block of space-separated indices, blocks
ordered by smallest element.

Every writer goes through `replacing`, which replaces the target atomically
once the block that writes it succeeds.
A file that does not decode as text is a `FormatError` naming the file.
"""
from __future__ import annotations

import codecs
import contextlib
import functools
import itertools
import os
import stat
import warnings
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from . import forks
from .errors import CapacityError, FormatError
from .matrices import DenseMatrix, Partition

_CHUNK_ROWS = 64
# A split read takes one share, plus one per full _SHARE_BYTES of file.  Two
# shares broke even near 0.6 MB on a 2-core host: 13.9 ms in one process
# against 15.3 ms split at 0.48 MB, 37.1 against 31.5 ms at 1.3 MB.
_SHARE_BYTES = 1 << 20


def _matrix_lines(a: DenseMatrix) -> Iterator[str]:
    yield f"{a.n_rows} {a.n_cols}\n"
    row_format = " ".join(["%.17g"] * a.n_cols) + "\n"
    for row in a.data:
        yield row_format % tuple(row.tolist())


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
    data = _rows_for(n_rows, n_cols, len(text))
    if data is None or _fill(iter(body), data) != n_rows:
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


def _rows_for(n_rows: int, n_cols: int, size: int) -> np.ndarray | None:
    """An empty n_rows x n_cols array for the body of a `size`-byte text, or
    None where the per-row loop must decide: an empty shape, or a header the
    text cannot fill.  Every entry takes at least one character and one
    separator, so a header asking for more than size / 2 entries cannot be
    filled and nothing is allocated for it."""
    if not (n_rows and n_cols) or 2 * n_rows * n_cols > size:
        return None
    return np.empty((n_rows, n_cols))


def _fill(lines: Iterator[str], rows: np.ndarray) -> int | None:
    """Parse `lines` into the leading rows of `rows`, `_CHUNK_ROWS` lines per
    `np.loadtxt` call, until the lines run out or `rows` is full: the number
    of rows filled, or None at a chunk that is not one row per line."""
    filled = 0
    while filled < len(rows):
        chunk = list(itertools.islice(lines, min(_CHUNK_ROWS, len(rows) - filled)))
        if not chunk:
            break
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an all-blank chunk warns
                parsed = np.loadtxt(chunk, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            return None
        target = rows[filled:filled + len(chunk)]
        if parsed.shape != target.shape:
            return None
        target[...] = parsed
        filled += len(chunk)
    return filled


def _single_lines(lines: Iterable[str]) -> Iterator[str]:
    """`lines` without their endings; a `FormatError` at the first line that
    `str.splitlines` would split further (at a form feed, \\x85, \\u2028, a
    lone \\r or another break that file iteration keeps inside a line)."""
    for line in lines:
        parts = line.splitlines()
        if len(parts) != 1:
            raise FormatError("a line break inside a line")
        yield parts[0]


def _lines_between(fh: BinaryIO, start: int, end: int) -> Iterator[str]:
    """The lines of the binary file `fh` that begin in bytes [start, end),
    decoded as UTF-8.  A line begins after a newline byte, and `start` > 0
    lies past the header's.  No byte of a multi-byte character is a
    newline, so every line decodes whole."""
    fh.seek(start - 1)
    pos = start - 1 + len(fh.readline())
    while pos < end:
        line = fh.readline()
        if not line:
            return
        pos += len(line)
        yield line.decode()


def _parse_share(fh: BinaryIO, start: int, end: int, rows: np.ndarray) -> int:
    """The number of rows parsed into the leading rows of `rows` from the
    lines that begin in bytes [start, end) of the binary file `fh`; a
    `FormatError` unless each of those lines is one row."""
    lines = _single_lines(_lines_between(fh, start, end))
    filled = _fill(lines, rows)
    if filled is None or next(lines, None) is not None:
        raise FormatError("a line of the share is not one row")
    return filled


def _send_share(fd: int, start: int, end: int, rows: np.ndarray, pipe: BinaryIO) -> None:
    """In a child: parse a share of the file open at `fd` into this
    process's copy of `rows`, then send its row count and its raw float64
    rows down `pipe`; nothing if the share is not clean.  The file is
    opened afresh, so the offset is this process's own."""
    with open(f"/proc/self/fd/{fd}", "rb") as fh:
        filled = _parse_share(fh, start, end, rows)
    pipe.write(filled.to_bytes(8, "little"))
    pipe.write(rows[:filled])


def _receive_share(pipe: BinaryIO, rows: np.ndarray) -> int:
    """The number of rows a child sent down `pipe`, read in place into the
    leading rows of `rows`; a `FormatError` if it sent less than it
    announced (an unclean share, or a child killed before it sent them)."""
    head = pipe.read(8)
    count = int.from_bytes(head, "little")
    target = rows[:count]
    if len(head) < 8 or pipe.readinto(target) != target.nbytes:
        raise FormatError("a share sent fewer rows than it announced")
    return count


def _read_shares(fh: BinaryIO, encoding: str) -> np.ndarray:
    """The rows of the matrix file open as `fh` (binary, at its start),
    parsed in byte-range shares by this process and forked children.

    The body after the header is cut into N = `forks.processes(1 + size //
    _SHARE_BYTES)` shares of equal byte size; share w holds the lines that
    begin in its byte range.  This process parses share 0 from `fh` straight
    into the array; each child parses one other share and sends its rows
    down a pipe, read in place.  The array is returned only when every share
    is clean and the rows add up to exactly n_rows.  Anything else raises
    for `read_matrix` to read the whole text: a `FormatError` (a text
    `encoding` other than UTF-8, a bad or split line, a trailing row, a
    child killed before it sent all its rows) or `UnicodeDecodeError`, from
    inside the `forks.forked` block once the children run, so that they are
    killed instead of awaited, or a refused fork's `CapacityError`."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.readline()
    n_rows, n_cols = _header(next(_single_lines([head.decode()])))
    data = _rows_for(n_rows, n_cols, size)
    if data is None or codecs.lookup(encoding).name != "utf-8":
        raise FormatError("the whole text decides")
    shares = forks.processes(1 + size // _SHARE_BYTES)
    bounds = [len(head) + (size - len(head)) * w // shares for w in range(shares + 1)]
    jobs = [functools.partial(_send_share, fh.fileno(), bounds[w], bounds[w + 1], data)
            for w in range(1, shares)]
    with forks.forked(jobs, "read") as children:
        filled = _parse_share(fh, bounds[0], bounds[1], data)
        for pipe in children.pipes:
            filled += _receive_share(pipe, data[filled:])
        if filled != n_rows:
            raise FormatError(f"the shares hold {filled} rows, not {n_rows}")
    return data


def _read_text(path: str | os.PathLike) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{os.fspath(path)}: not {exc.encoding} text "
                f"({exc.reason} at byte {exc.start})"
            ) from None


@contextlib.contextmanager
def replacing(path: str | os.PathLike) -> Iterator[TextIO]:
    """A text file, open for writing, that replaces `path` when the block
    exits cleanly.

    On entry it is a new temp file in the target's directory, with the mode
    of the existing target (or the mode a plain open() would give a new
    file), so each error the target gives (a missing directory, a read-only
    file open() would refuse) is raised there, naming `path`.  Any error in
    the block leaves a previous file untouched and no temp file behind.  A
    symlink keeps pointing at the new file; a hard link to the old file
    keeps the old contents.  A target that exists but is no regular file
    (/dev/stdout, a pipe) cannot be replaced and is opened in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
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
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_matrix(a: DenseMatrix, path: str | os.PathLike) -> None:
    with replacing(path) as fh:
        fh.writelines(_matrix_lines(a))


def read_header(path: str | os.PathLike) -> tuple[int, int] | None:
    """(n_rows, n_cols) from the header line of the matrix file at `path`,
    read as `read_matrix` reads it, or None when that line cannot be read or
    parsed: `read_matrix` then names the error."""
    try:
        with open(path) as fh:
            return _header((fh.readline().splitlines() or [""])[0])
    except (OSError, UnicodeDecodeError, FormatError):
        return None


def read_matrix(path: str | os.PathLike) -> DenseMatrix:
    """The matrix in the file at `path`, parsed from the open file in
    byte-range shares (`_read_shares`), over forked processes when it is
    large.  A file the shares do not cleanly accept (they raise a
    `FormatError`, a `UnicodeDecodeError` or, at a refused fork, a
    `CapacityError`) is read whole and goes through `matrix_from_text`, the
    grammar and the source of every error."""
    with open(path) as fh:
        try:
            return DenseMatrix._adopt(_read_shares(fh.buffer, fh.encoding))
        except (FormatError, UnicodeDecodeError, CapacityError):
            pass
    return matrix_from_text(_read_text(path))


def partition_to_text(part: Partition) -> str:
    return "\n".join(" ".join(str(i) for i in b.indices) for b in part.blocks) + "\n"


def write_partition(part: Partition, path: str | os.PathLike) -> None:
    with replacing(path) as fh:
        fh.write(partition_to_text(part))


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
