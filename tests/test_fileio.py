import builtins
import errno
import itertools
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelab import DenseMatrix, FormatError, Partition, PavelabError, fileio
from pavelab.fileio import (
    matrix_from_text,
    partition_to_text,
    read_config,
    read_matrix,
    write_matrix,
    write_partition,
)

from . import oracles
from .helpers import matrix_to_text, partition_from_text, write_path
from .test_cli import _assert_no_children
from .test_moments import _one_blas_thread_env


def test_matrix_round_trip_exact(rng, tmp_path):
    a = DenseMatrix(rng.uniform(-1e3, 1e3, (5, 3)) * 10.0 ** rng.integers(-8, 8, (5, 3)))
    path = tmp_path / "m.txt"
    write_path(write_matrix, a, path)
    back = read_matrix(path)
    assert back.same_entries(a)  # 17 significant digits round-trip float64


def test_matrix_header(rng, tmp_path):
    a = DenseMatrix(rng.uniform(-1, 1, (2, 4)))
    text = matrix_to_text(a)
    assert text.splitlines()[0] == "2 4"
    assert len(text.splitlines()) == 3


def test_parser_accepts_scientific_notation():
    a = matrix_from_text("1 2\n1.5e-3 -2E+4\n")
    assert a.data[0, 0] == 1.5e-3 and a.data[0, 1] == -2e4


def test_parser_rejects_bad_header():
    with pytest.raises(FormatError):
        matrix_from_text("2\n1 2\n")


def test_parser_rejects_short_row():
    with pytest.raises(FormatError):
        matrix_from_text("2 2\n1 2\n3\n")


def test_parser_rejects_non_numeric():
    with pytest.raises(FormatError):
        matrix_from_text("1 1\nfoo\n")


def test_empty_matrix_round_trip():
    a = DenseMatrix.zeros(0, 0)
    assert matrix_from_text(matrix_to_text(a)).shape == (0, 0)


def _outcome(parse, source):
    """The parsed entries' bits and shape, or the error's type and message."""
    try:
        a = parse(source)
    except PavelabError as exc:
        return type(exc).__name__, str(exc)
    return a.shape, a.data.tobytes()


def _assert_parses_like_reference(text):
    assert _outcome(matrix_from_text, text) == _outcome(oracles.matrix_from_text, text)


_READER_CORPUS = [
    "2 2\n1\t2\n3 4\n",                     # tab between entries
    "2 2\n1\t 2\n3 4\t\n",                 # tab beside a space, trailing tab
    "2 2\n1  2\n3 4\n",                      # repeated space
    "2 2\n 1 2\n3 4 \n",                     # leading and trailing space
    "2 2\r\n1 2\r\n3 4\r\n",                # CRLF
    "2 2\n1 2\n\n3 4\n",                     # blank line inside the body
    "2 2\n\n\n",                              # all-blank body
    "2 2\n1 2\n3 4\nnot a row\n\n7\n",        # extra trailing lines are ignored
    "1 2\n# 1\n",                            # '#' is no comment
    "1 2\n1 2 # note\n", "1 2\n1 2#note\n",
    "1 2\n1_0 0.1e1_0\n",                    # underscores
    "1 2\n\uff11 \u0662\n",                    # full-width and Arabic-Indic digits
    "1 3\n+1.5 -0 .5e1\n",
    "1 2\n1\xa0 \u30002\n",                    # non-ASCII whitespace beside a token
    "1 1\ninfinity\n", "1 1\n-Infinity\n", "1 1\nnan\n", "1 1\n1e400\n",
    "1 1\n4.9e-324\n", "1 1\n1e-400\n",
    "1 1\n0x10\n", "1 1\n1d0\n", "1 1\n1e+\n", "1 1\n.\n", "1 1\n1,5\n",
    '1 1\n"1"\n', "1 1\n1\x00\n",
    "3 2\n1\n2 3\n4 5\n", "3 2\n1 2 3\n4 5\n6 7\n",   # short or long first row
    "3 2\n1 2\n3 4\n5\n", "3 2\n1 2\n3 4\n5 6 7\n",  # short or long last row
    "3 2\n1 2\n3 4\n",                       # too few rows
    "0 3\n", "0 3\n1 2 3\n", "3 0\n\n\n\n", "3 0\n\n1\n\n", "3 0\n", "0 0\n",
    "1 1\n0.5\n", "1 1\n 0.5 \n",
    "", "2\n1 2\n", "a b\n", "-1 2\n", "2 2 2\n",
    # headers asking for more entries than the text could hold
    "1000000000 1000000000\n1 2\n", "100000 100000\n1 2\n",
    "1 1000000000000\n1 2\n", "2 4000000000000\n1\n2\n",
]


@pytest.mark.parametrize("text", _READER_CORPUS)
def test_reader_matches_reference(text):
    _assert_parses_like_reference(text)


_TOKENS = [
    "0", "1", "-1", "+1.5", "-0", "1e5", "1E-5", ".5", "5.", "1e400", "-1e400", "1e-400",
    "4.9e-324", "2.2250738585072014e-308", "inf", "-Infinity", "nan", "-nan",
    "1_0", "0.1e1_0", "\uff11", "\u0662", "\xa01", "1\u3000", "1e+", "0x10", "1d0", ".",
    "1,5", '"1"', "#", "e5", "--1", "1..2", "",
]
_rows = st.lists(
    st.lists(
        st.one_of(
            st.sampled_from(_TOKENS),
            st.floats(allow_nan=False).map(repr),
            st.floats(allow_nan=False).map(lambda x: "%.17g" % x),
        ),
        min_size=1, max_size=4,
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(
    rows=_rows,
    sep=st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\xa0"]),
    edge=st.sampled_from(["", "", " ", "\t"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    n_cols_shift=st.sampled_from([0, 0, 0, 1, -1]),
)
def test_reader_matches_reference_on_fuzzed_rows(rows, sep, edge, newline, n_cols_shift):
    n_cols = max(len(rows[0]) + n_cols_shift, 0)
    lines = [f"{len(rows)} {n_cols}"] + [sep.join(row) + edge for row in rows]
    _assert_parses_like_reference(newline.join(lines) + newline)


def test_reader_matches_reference_on_written_matrices(rng):
    for shape in [(1, 1), (7, 5), (40, 40)]:
        a = DenseMatrix(rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape))
        _assert_parses_like_reference(oracles.matrix_to_text(a))


def _assert_file_parses_like_reference(path, text):
    """The file at `path` holding `text` reads like the reference parses `text`,
    and so does `matrix_from_text`."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
    expected = _outcome(oracles.matrix_from_text, text)
    assert _outcome(read_matrix, path) == expected
    assert _outcome(matrix_from_text, text) == expected


_CHUNK_SIZES = [1, 2, 64]  # 64 rows is the default


@pytest.mark.parametrize("chunk_rows", _CHUNK_SIZES)
@pytest.mark.parametrize("text", _READER_CORPUS)
def test_file_reader_matches_reference(text, chunk_rows, tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    _assert_file_parses_like_reference(tmp_path / "m.txt", text)


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows,
    sep=st.sampled_from([" ", " ", "\t", "\xa0"]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    n_cols_shift=st.sampled_from([0, 0, 1, -1]),
    chunk_rows=st.sampled_from(_CHUNK_SIZES),
)
def test_file_reader_matches_reference_on_fuzzed_rows(
    rows, sep, newline, n_cols_shift, chunk_rows, tmp_path_factory
):
    n_cols = max(len(rows[0]) + n_cols_shift, 0)
    text = newline.join([f"{len(rows)} {n_cols}"] + [sep.join(row) for row in rows]) + newline
    with mock.patch.object(fileio, "_CHUNK_ROWS", chunk_rows):
        _assert_file_parses_like_reference(tmp_path_factory.mktemp("fuzz") / "m.txt", text)


# every break `str.splitlines` takes that file iteration does not
_SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("chunk_rows", _CHUNK_SIZES)
@pytest.mark.parametrize("brk", _SPLITLINES_ONLY_BREAKS, ids=ascii)
@pytest.mark.parametrize("template", [
    "2{}2\n1 2\n3 4\n",       # in the header
    "2 2{}\n1 2\n3 4\n",      # ending the header
    "2 2\n1{}2\n3 4\n",       # inside a row
    "2 2\n1 2{}3 4\n",        # between rows: the reference accepts it
    "2 2\n1 2{}\n3 4\n",      # ending a row
    "2 2\n1 2\n3 4{}",        # ending the file
    "3 2\n1 2\n3 4{}5 6\n",   # splitting the last row off the second chunk
])
def test_file_reader_line_breaks_match_reference(template, brk, chunk_rows, tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    _assert_file_parses_like_reference(tmp_path / "m.txt", template.format(brk))


def _later_chunk_file(tmp_path, rng, bad_row, bad_line):
    """A 70 x 3 matrix file whose row `bad_row` is `bad_line`, and its text."""
    lines = oracles.matrix_to_text(DenseMatrix(rng.uniform(-1, 1, (70, 3)))).splitlines()
    lines[1 + bad_row] = bad_line
    text = "\n".join(lines) + "\n"
    path = tmp_path / "m.txt"
    path.write_text(text)
    return path, text


@pytest.mark.parametrize("chunk_rows", _CHUNK_SIZES)
@pytest.mark.parametrize("bad_line", ["0.5 x 1", "0.5 1", "", "0.5  1 2"])  # the last is valid
def test_malformed_row_in_a_later_chunk(rng, tmp_path, monkeypatch, chunk_rows, bad_line):
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    path, text = _later_chunk_file(tmp_path, rng, 66, bad_line)
    assert _outcome(read_matrix, path) == _outcome(oracles.matrix_from_text, text)


@pytest.mark.parametrize("chunk_rows", _CHUNK_SIZES)
def test_non_utf8_byte_in_a_later_chunk(rng, tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    path, text = _later_chunk_file(tmp_path, rng, 68, "0.25 0.5 0.75")
    data = text.encode().replace(b"0.25 0.5 0.75", b"0.25 0.5 0.7\xff")
    path.write_bytes(data)
    offset = data.index(b"\xff")
    with pytest.raises(FormatError) as info:
        read_matrix(path)
    assert str(info.value) == f"{path}: not utf-8 text (invalid start byte at byte {offset})"


def test_non_utf8_byte_far_after_the_last_row(rng, tmp_path):
    """The rows parse, but a bad byte 20 KiB past them (more than one read
    buffer) still fails the read as it fails the whole text's decoding."""
    _, text = _later_chunk_file(tmp_path, rng, 0, "0.5 0.5 0.5")
    data = text.encode() + b"0 0 0\n" * 4000 + b"\xff\n"
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        read_matrix(path)
    offset = data.index(b"\xff")
    assert str(info.value) == f"{path}: not utf-8 text (invalid start byte at byte {offset})"


@pytest.mark.parametrize("chunk_rows", _CHUNK_SIZES)
def test_too_short_body(rng, tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    body = oracles.matrix_to_text(DenseMatrix(rng.uniform(-1, 1, (5, 2)))).split("\n", 1)[1]
    path = tmp_path / "m.txt"
    path.write_text("9 2\n" + body)
    assert _outcome(read_matrix, path) == ("FormatError", "expected 9 rows, found 5")


def _traced_peak(fn, *args):
    """The tracemalloc peak of `fn(*args)`, above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_matrix_io_memory_is_bounded(rng, tmp_path):
    a = DenseMatrix(rng.standard_normal((512, 512)))
    path = tmp_path / "m.txt"
    write_path(write_matrix, a, path)
    # the parsed array and the chunk temporaries; whole-text parsing peaks at 7.8x
    assert _traced_peak(read_matrix, path) < 3 * a.data.nbytes
    # a few rows' worth of formatting; joining the whole text peaks at about 10 MiB
    row_bytes = len(matrix_to_text(a).splitlines()[1])
    assert _traced_peak(write_path, write_matrix, a, tmp_path / "out.txt") < 8 * row_bytes
    assert (tmp_path / "out.txt").read_bytes() == path.read_bytes()


def test_read_matrix_keeps_the_parsed_array_without_a_copy(rng, tmp_path):
    """At n = 1024 the read peaks near 1.4x the array: the array, its
    finiteness mask and one chunk; a copy for DenseMatrix would make 2x."""
    a = DenseMatrix(rng.standard_normal((1024, 1024)))
    path = tmp_path / "m.txt"
    write_path(write_matrix, a, path)
    assert _traced_peak(read_matrix, path) < 1.6 * a.data.nbytes
    back = read_matrix(path)
    assert back.same_entries(a) and not back.data.flags.writeable


def test_well_formed_body_is_parsed_in_one_call(rng, monkeypatch):
    a = DenseMatrix(rng.standard_normal((6, 5)))
    text = matrix_to_text(a)

    def per_row(token):
        raise AssertionError("the per-row loop parsed a well-formed body")

    monkeypatch.setattr(fileio, "float", per_row, raising=False)
    assert matrix_from_text(text).same_entries(a)


def test_blank_body_warns_nothing(recwarn):
    with pytest.raises(FormatError, match="row 0: expected 2 entries, got 0"):
        matrix_from_text("2 2\n\n\n")
    assert len(recwarn) == 0


_WRITER_CASES = {
    "random": lambda rng: rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-300, 300, (9, 9)),
    "subnormal": lambda rng: [[5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]],
    "signed-zero": lambda rng: [[0.0, -0.0], [-0.0, 0.0]],
    "huge": lambda rng: [[1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]],
    "non-square": lambda rng: rng.uniform(-1, 1, (3, 8)),
    "0x0": lambda rng: np.zeros((0, 0)),
    "0x3": lambda rng: np.zeros((0, 3)),
    "3x0": lambda rng: np.zeros((3, 0)),
    "1x1": lambda rng: [[0.1]],
}


@pytest.mark.parametrize("case", list(_WRITER_CASES))
def test_writer_matches_reference(rng, case):
    a = DenseMatrix(np.asarray(_WRITER_CASES[case](rng), dtype=float))
    assert matrix_to_text(a) == oracles.matrix_to_text(a)


@pytest.mark.parametrize("case", list(_WRITER_CASES))
def test_written_file_matches_reference(rng, case, tmp_path):
    a = DenseMatrix(np.asarray(_WRITER_CASES[case](rng), dtype=float))
    write_path(write_matrix, a, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_bytes() == oracles.matrix_to_text(a).encode()


def test_partition_round_trip():
    part = Partition.from_blocks(6, [[4, 1], [0, 3], [2, 5]])
    text = partition_to_text(part)
    assert text == "0 3\n1 4\n2 5\n"  # blocks sorted by smallest element
    assert partition_from_text(text, 6) == part


def test_partition_rejects_bad_cover():
    with pytest.raises(FormatError):
        partition_from_text("0 1\n1 2\n", 3)


def test_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 0x10\ntrials=200\n# comment\nmethod = exact\nrate=0.25\n")
    opts = read_config(cfg)
    assert opts == {"seed": 16, "trials": 200, "method": "exact", "rate": 0.25}


def test_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just-a-word\n")
    with pytest.raises(FormatError):
        read_config(cfg)


def _previous(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous contents\n")
    return path


def _only(tmp_path, path):
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == b"previous contents\n"


def test_write_failing_midway_keeps_previous_file(rng, tmp_path, monkeypatch):
    path = _previous(tmp_path)

    class HalfWrite:
        """A file that takes half of the text, then runs out of space."""

        def __init__(self, fd, mode):
            self.fh = builtins.open(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        def writelines(self, pieces):  # as io.IOBase.writelines: one write per piece
            for piece in pieces:
                self.write(piece)

    monkeypatch.setattr(fileio, "open", HalfWrite, raising=False)
    with pytest.raises(OSError):
        write_path(write_matrix, DenseMatrix(rng.uniform(-1, 1, (4, 4))), path)
    _only(tmp_path, path)


def test_failing_serializer_keeps_previous_partition(tmp_path, monkeypatch):
    path = _previous(tmp_path)

    def boom(part):
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(fileio, "partition_to_text", boom)
    with pytest.raises(RuntimeError):
        write_path(write_partition, Partition.from_blocks(2, [[0], [1]]), path)
    _only(tmp_path, path)


def test_failure_midway_through_formatting_keeps_previous_file(rng, tmp_path, monkeypatch):
    path = _previous(tmp_path)
    lines = fileio._matrix_lines

    def fail_after_two_rows(a):
        yield from itertools.islice(lines(a), 3)
        raise MemoryError("formatting failed")

    monkeypatch.setattr(fileio, "_matrix_lines", fail_after_two_rows)
    with pytest.raises(MemoryError):
        write_path(write_matrix, DenseMatrix(rng.uniform(-1, 1, (4, 4))), path)
    _only(tmp_path, path)


def test_failing_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    path = _previous(tmp_path)

    def boom(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(fileio.os, "replace", boom)
    with pytest.raises(OSError):
        write_path(write_partition, Partition.from_blocks(2, [[0], [1]]), path)
    _only(tmp_path, path)


def test_write_gives_plain_mode_and_keeps_symlinks(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    link.symlink_to(target.name)
    write_path(write_partition, Partition.from_blocks(2, [[0, 1]]), link)
    assert link.is_symlink() and target.read_text() == "0 1\n"
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_write_keeps_existing_mode(tmp_path):
    path = _previous(tmp_path)
    path.chmod(0o640)
    write_path(write_partition, Partition.from_blocks(2, [[0, 1]]), path)
    assert path.read_text() == "0 1\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_write_to_fifo_writes_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_path(write_partition, Partition.from_blocks(2, [[0, 1]]), fifo)
        assert os.read(reader, 100) == b"0 1\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)


# ---------------------------------------------------------------------------
# the split read: byte-range shares over forked processes
# ---------------------------------------------------------------------------

_SPLIT_WORKERS = [1, 2, 3]


def _split_outcome(monkeypatch, path, workers):
    """(read_matrix's outcome, whether the split kept its array, children
    forked) with every file split into `workers` shares (the share size set
    to one byte), checking that no child is left and that a kept split forked
    one child per share past the first (`forks.processes` may give one)."""
    forks, kept, real_fork, real_shares = [], [], os.fork, fileio._read_shares
    monkeypatch.setattr(fileio, "_SHARE_BYTES", 1)
    monkeypatch.setattr(fileio.forks, "CPUS", workers)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(
        fileio, "_read_shares", lambda *a: kept.append(real_shares(*a)) or kept[-1]
    )
    try:
        return _outcome(read_matrix, path), bool(kept), len(forks)
    finally:
        monkeypatch.setattr(os, "fork", real_fork)
        _assert_no_children()
        assert len(forks) in (0, workers - 1)
        assert not kept or len(forks) == fileio.forks.processes(workers) - 1


def _assert_split_reads_like_reference(monkeypatch, path, text, workers):
    """The file at `path` holding `text` reads like the reference parses
    `text` with the split forced; whether the split kept its array."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
    outcome, kept, _ = _split_outcome(monkeypatch, path, workers)
    assert outcome == _outcome(oracles.matrix_from_text, text)
    return kept


@pytest.mark.skipif(sys.platform != "linux", reason="the read forks on Linux only")
class TestSplitRead:
    """`read_matrix` with its split forced on small files: the same bits or
    the same error as the reference parser in 1, 2 and 3 shares (one share
    forks nothing)."""

    @pytest.mark.parametrize("workers", _SPLIT_WORKERS)
    @pytest.mark.parametrize("text", _READER_CORPUS)
    def test_corpus(self, text, workers, tmp_path, monkeypatch):
        _assert_split_reads_like_reference(monkeypatch, tmp_path / "m.txt", text, workers)

    @pytest.mark.parametrize("workers", _SPLIT_WORKERS)
    @pytest.mark.parametrize("brk", _SPLITLINES_ONLY_BREAKS + ["\r"], ids=ascii)
    @pytest.mark.parametrize("template", [
        "2{}2\n1 2\n3 4\n", "2 2{}\n1 2\n3 4\n", "2 2\n1{}2\n3 4\n", "2 2\n1 2{}3 4\n",
        "2 2\n1 2{}\n3 4\n", "2 2\n1 2\n3 4{}", "3 2\n1 2\n3 4{}5 6\n",
    ])
    def test_line_breaks(self, template, brk, workers, tmp_path, monkeypatch):
        _assert_split_reads_like_reference(
            monkeypatch, tmp_path / "m.txt", template.format(brk), workers
        )

    @pytest.mark.parametrize("workers", _SPLIT_WORKERS)
    @pytest.mark.parametrize("bad_row", [0, 34, 66, 69])
    @pytest.mark.parametrize("bad_line", ["0.5 x 1", "0.5 1", "", "0.5  1 2"])
    def test_malformed_row(self, rng, tmp_path, monkeypatch, workers, bad_row, bad_line):
        path, text = _later_chunk_file(tmp_path, rng, bad_row, bad_line)
        outcome, _, _ = _split_outcome(monkeypatch, path, workers)
        assert outcome == _outcome(oracles.matrix_from_text, text)

    @pytest.mark.parametrize("workers", _SPLIT_WORKERS)
    @pytest.mark.parametrize("where", ["in a row", "past the last row"])
    def test_non_utf8_byte(self, rng, tmp_path, monkeypatch, workers, where):
        """A bad byte in a row, or 20 KiB past the last one, fails the read
        as it fails the whole text's decoding."""
        path, text = _later_chunk_file(tmp_path, rng, 68, "0.25 0.5 0.75")
        if where == "in a row":
            data = text.encode().replace(b"0.25 0.5 0.75", b"0.25 0.5 0.7\xff")
        else:
            data = text.encode() + b"0 0 0\n" * 4000 + b"\xff\n"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        outcome, _, _ = _split_outcome(monkeypatch, path, workers)
        assert outcome == (
            "FormatError", f"{path}: not utf-8 text (invalid start byte at byte {offset})"
        )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_non_utf8_byte_in_a_trailing_line(self, tmp_path, monkeypatch, workers):
        """The rows fill the array inside share 0 and no later share holds a
        line start: the rest of share 0 is still decoded, as the whole text
        is."""
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2\n1 2\n3 4\n\xff" + b"0" * 40 + b"\n")
        outcome, kept, _ = _split_outcome(monkeypatch, path, workers)
        assert outcome == ("FormatError", f"{path}: not utf-8 text (invalid start byte at byte 12)")
        assert not kept

    @pytest.mark.parametrize("workers", _SPLIT_WORKERS)
    def test_too_short_body(self, rng, tmp_path, monkeypatch, workers):
        body = oracles.matrix_to_text(DenseMatrix(rng.uniform(-1, 1, (5, 2)))).split("\n", 1)[1]
        path = tmp_path / "m.txt"
        path.write_text("9 2\n" + body)
        outcome, kept, _ = _split_outcome(monkeypatch, path, workers)
        assert outcome == ("FormatError", "expected 9 rows, found 5") and not kept

    @pytest.mark.parametrize("workers", _SPLIT_WORKERS)
    def test_well_formed_file_keeps_the_split(self, rng, tmp_path, monkeypatch, workers):
        a = DenseMatrix(rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7)))
        kept = _assert_split_reads_like_reference(
            monkeypatch, tmp_path / "m.txt", oracles.matrix_to_text(a), workers
        )
        assert kept

    def test_one_share_opens_nothing_under_proc(self, rng, tmp_path, monkeypatch):
        """Only the children reopen the file through /proc/self/fd, so a
        one-share read works where /proc cannot be opened."""
        real_open = open

        def no_proc(file, *args, **kwargs):
            if str(file).startswith("/proc/"):
                raise FileNotFoundError(errno.ENOENT, "No such file or directory", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(fileio, "open", no_proc, raising=False)
        a = DenseMatrix(rng.standard_normal((40, 7)))
        assert _assert_split_reads_like_reference(
            monkeypatch, tmp_path / "m.txt", oracles.matrix_to_text(a), 1
        )


def _body_with_boundary(where):
    """(text, offset) of a two-row file whose two-share boundary falls at a
    line start, inside a line, or inside a multi-byte UTF-8 character."""
    rows = {
        "line start": ["0.25 0.5", "0.75 1.5"],
        "inside a line": ["0.25 0.5", "0.75 1.5e0"],
        "inside a character": ["0.25 0.5", "１.5 ٢.5"],
    }[where]
    text = "2 2\n" + "".join(r + "\n" for r in rows)
    data = text.encode()
    head = len(b"2 2\n")
    return text, head + (len(data) - head) // 2


@pytest.mark.skipif(sys.platform != "linux", reason="the read forks on Linux only")
@pytest.mark.parametrize("where", ["line start", "inside a line", "inside a character"])
def test_share_boundary(where, tmp_path, monkeypatch):
    """Each line falls in exactly one share, whether the boundary lands on a
    line start, inside a line or inside a multi-byte character, and the
    split read gives the reference's outcome."""
    text, boundary = _body_with_boundary(where)
    data = text.encode()
    second_row = data.index(b"\n", 4) + 1
    if where == "line start":
        assert boundary == second_row
    else:
        assert boundary > second_row
        assert where != "inside a character" or data[boundary] & 0xC0 == 0x80
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        first = list(fileio._lines_between(fh, 4, boundary))
        second = list(fileio._lines_between(fh, boundary, len(data)))
    assert first + second == text.splitlines(keepends=True)[1:]
    assert len(first) == (1 if where == "line start" else 2)
    kept = _assert_split_reads_like_reference(monkeypatch, path, text, 2)
    assert kept or where == "inside a character"


@pytest.mark.skipif(sys.platform != "linux", reason="the read forks on Linux only")
class TestSplitReadFailures:
    """A share that cannot finish makes the read fall back to the whole text:
    the same bytes, and no child left behind."""

    def _file(self, rng, tmp_path):
        a = DenseMatrix(rng.standard_normal((300, 4)))
        path = tmp_path / "m.txt"
        write_path(write_matrix, a, path)
        return path, a

    def _read(self, monkeypatch, path, workers):
        """The outcome of the forced split read, which must fall back, after
        forking workers - 1 children."""
        outcome, kept, forks = _split_outcome(monkeypatch, path, workers)
        assert not kept and forks == workers - 1
        return outcome

    def test_killed_child(self, rng, tmp_path, monkeypatch):
        path, a = self._file(rng, tmp_path)
        parent, real_fill = os.getpid(), fileio._fill

        def die_in_child(lines, rows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_fill(lines, rows)

        monkeypatch.setattr(fileio, "_fill", die_in_child)
        assert self._read(monkeypatch, path, 2) == (a.shape, a.data.tobytes())

    def test_failed_second_fork(self, rng, tmp_path, monkeypatch):
        path, a = self._file(rng, tmp_path)
        calls, real_fork = [], os.fork

        def second_fails():
            calls.append(1)
            if len(calls) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert self._read(monkeypatch, path, 3) == (a.shape, a.data.tobytes())
        assert len(calls) == 2

    def test_no_fork_while_another_thread_runs(self, rng, tmp_path, monkeypatch):
        """A forked child would inherit the locks other threads hold: this
        process reads the file in one share and keeps it."""
        path, a = self._file(rng, tmp_path)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            outcome, kept, forks = _split_outcome(monkeypatch, path, 3)
            assert outcome == (a.shape, a.data.tobytes()) and kept and forks == 0
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_unclean_own_share_kills_children(self, rng, tmp_path, monkeypatch):
        """The whole-text read starts as soon as this process's share fails,
        without waiting for the children."""
        path, a = self._file(rng, tmp_path)
        parent, real_fill = os.getpid(), fileio._fill
        calls = []

        def stall_child_fail_parent(lines, rows):
            if os.getpid() != parent:
                time.sleep(60)
            calls.append(1)
            return None if len(calls) == 1 else real_fill(lines, rows)

        monkeypatch.setattr(fileio, "_fill", stall_child_fail_parent)
        start = time.perf_counter()
        assert self._read(monkeypatch, path, 3) == (a.shape, a.data.tobytes())
        assert time.perf_counter() - start < 30

    def test_interrupt_in_own_share_kills_children(self, rng, tmp_path, monkeypatch):
        path, _ = self._file(rng, tmp_path)
        parent = os.getpid()

        def stall_child_interrupt_parent(lines, rows):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(fileio, "_fill", stall_child_interrupt_parent)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _split_outcome(monkeypatch, path, 3)
        assert time.perf_counter() - start < 30


def _read_in_ascii_locale(path) -> str:
    """What `read_matrix(path)` gives in a child process under the C locale,
    with locale coercion and UTF-8 mode off, where text is ASCII: the hex of
    the parsed bits, or the `FormatError`'s message."""
    env = dict(_one_blas_thread_env(), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    script = (
        "import locale, sys\n"
        "from pavelab import FormatError, fileio\n"
        "print(locale.getpreferredencoding(False))\n"
        "try:\n"
        "    print(fileio.read_matrix(sys.argv[1]).data.tobytes().hex())\n"
        "except FormatError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    encoding, result = proc.stdout.splitlines()
    assert encoding == "ANSI_X3.4-1968"
    return result


class TestAsciiLocale:
    """Under a non-UTF-8 locale the shares refuse every file, and the whole
    text, decoded in the locale's encoding, decides."""

    def test_well_formed_file_gives_the_utf8_bits(self, rng, tmp_path):
        path = tmp_path / "m.txt"
        write_path(write_matrix, DenseMatrix(rng.uniform(-1, 1, (70, 5))), path)
        assert _read_in_ascii_locale(path) == read_matrix(path).data.tobytes().hex()

    def test_non_ascii_byte_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2\n1 2\n3 \xc3\xa94\n")
        assert _read_in_ascii_locale(path) == (
            f"{path}: not ascii text (ordinal not in range(128) at byte 10)"
        )
