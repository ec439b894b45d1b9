import builtins
import errno
import os
import stat

import pytest

from pavelab import DenseMatrix, FormatError, Partition, fileio
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
