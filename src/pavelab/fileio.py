"""Text formats: matrices, partitions, and the key=value config files.

Matrix format: first line "n_rows n_cols", then one line per row of
space-separated decimal literals.  The writer emits 17 significant digits so
files round-trip float64 exactly; the parser accepts scientific notation.

The matrix body is parsed in bulk: one `np.loadtxt` call over the n_rows body
lines, kept only when it yields exactly an n_rows x n_cols array.  loadtxt
accepts a subset of what `float()` accepts and converts it to the same bits,
so on any other input (tabs, repeated or edge spaces, `1_0`, non-ASCII
digits, a malformed token, a short or long row) the per-row loop decides.
That loop defines the grammar (whitespace-split tokens, each read by
`float()`) and is the only source of the row-numbered error messages.  The
writer formats each row with one `%` on a row template.

Partition format: one line per block of space-separated indices, blocks
ordered by smallest element.

Every writer goes through `write_text`, which replaces the target atomically.
A file that does not decode as text is a `FormatError` naming the file.
"""
from __future__ import annotations

import contextlib
import os
import stat
import warnings

import numpy as np

from .errors import FormatError
from .matrices import DenseMatrix, Partition


def matrix_to_text(a: DenseMatrix) -> str:
    row_format = " ".join(["%.17g"] * a.n_cols) + "\n"
    lines = [f"{a.n_rows} {a.n_cols}\n"]
    lines.extend(row_format % tuple(row.tolist()) for row in a.data)
    return "".join(lines)


def matrix_from_text(text: str) -> DenseMatrix:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n_rows n_cols', got {lines[0]!r}")
    try:
        n_rows, n_cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if n_rows < 0 or n_cols < 0:
        raise FormatError("negative dimensions")
    body = lines[1:]
    if len(body) < n_rows:
        raise FormatError(f"expected {n_rows} rows, found {len(body)}")
    data = _parse_bulk(body[:n_rows], (n_rows, n_cols)) if n_rows and n_cols else None
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


def _parse_bulk(lines: list[str], shape: tuple[int, int]) -> np.ndarray | None:
    """`lines` parsed in one call, or None where the per-row loop must decide."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-blank body warns; the loop rejects it
            data = np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == shape else None


def _read_text(path: str | os.PathLike) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{os.fspath(path)}: not {exc.encoding} text "
                f"({exc.reason} at byte {exc.start})"
            ) from None


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write `text` to `path` atomically.

    The text goes to a new temp file in the target's directory, created with
    the mode of the existing target (or the mode a plain open() would give
    a new file), which is then renamed onto the target; a failure mid-write
    leaves any previous file untouched and no temp file behind.  An existing
    target that open() would not write (a read-only file) is refused the
    same way.  A symlink keeps pointing at the new file; a hard link to the
    old file keeps the old contents.  A target that exists but is no regular
    file (/dev/stdout, a pipe) cannot be replaced and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
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
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_matrix(a: DenseMatrix, path: str | os.PathLike) -> None:
    write_text(path, matrix_to_text(a))


def read_matrix(path: str | os.PathLike) -> DenseMatrix:
    return matrix_from_text(_read_text(path))


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
