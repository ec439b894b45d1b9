import builtins
import errno
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavelab import DenseMatrix, FormatError, Partition, PavelabError, fileio
from pavelab.fileio import (
    matrix_from_text,
    matrix_to_text,
    partition_from_text,
    partition_to_text,
    read_config,
    read_matrix,
    write_matrix,
    write_partition,
)

from . import oracles


def test_matrix_round_trip_exact(rng, tmp_path):
    a = DenseMatrix(rng.uniform(-1e3, 1e3, (5, 3)) * 10.0 ** rng.integers(-8, 8, (5, 3)))
    path = tmp_path / "m.txt"
    write_matrix(a, path)
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


def _outcome(parse, text):
    """The parsed entries' bits and shape, or the error's type and message."""
    try:
        a = parse(text)
    except PavelabError as exc:
        return type(exc).__name__, str(exc)
    return a.shape, a.data.tobytes()


def _assert_parses_like_reference(text):
    assert _outcome(matrix_from_text, text) == _outcome(oracles.matrix_from_text, text)


@pytest.mark.parametrize("text", [
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
])
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

    monkeypatch.setattr(fileio, "open", HalfWrite, raising=False)
    with pytest.raises(OSError):
        write_matrix(DenseMatrix(rng.uniform(-1, 1, (4, 4))), path)
    _only(tmp_path, path)


def test_failing_serializer_keeps_previous_partition(tmp_path, monkeypatch):
    path = _previous(tmp_path)

    def boom(part):
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(fileio, "partition_to_text", boom)
    with pytest.raises(RuntimeError):
        write_partition(Partition.from_blocks(2, [[0], [1]]), path)
    _only(tmp_path, path)


def test_failing_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    path = _previous(tmp_path)

    def boom(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(fileio.os, "replace", boom)
    with pytest.raises(OSError):
        write_partition(Partition.from_blocks(2, [[0], [1]]), path)
    _only(tmp_path, path)


def test_write_gives_plain_mode_and_keeps_symlinks(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    link.symlink_to(target.name)
    write_partition(Partition.from_blocks(2, [[0, 1]]), link)
    assert link.is_symlink() and target.read_text() == "0 1\n"
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_write_keeps_existing_mode(tmp_path):
    path = _previous(tmp_path)
    path.chmod(0o640)
    write_partition(Partition.from_blocks(2, [[0, 1]]), path)
    assert path.read_text() == "0 1\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_write_to_fifo_writes_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_partition(Partition.from_blocks(2, [[0, 1]]), fifo)
        assert os.read(reader, 100) == b"0 1\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
