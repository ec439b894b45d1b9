import errno
import itertools
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import pavelab

from pavelab import DenseMatrix, Seed, exact_moment, exhaustive_pave, mc_moment, spectral_norm
from pavelab import bounds, cli, fileio, moments, paving, suites
from pavelab.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, SCAN_HEADER, main
from pavelab.errors import CapacityError, ParameterError
from pavelab.fileio import read_matrix, write_matrix
from pavelab.sampling import Bernoulli, gen_ensemble

from . import oracles
from .helpers import write_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_hadamard(self, capsys, tmp_path):
        path = tmp_path / "h8.txt"
        code, out, _ = run(capsys, "gen", "hadamard", "8", "--seed", "1", "--out", str(path))
        assert code == EXIT_OK
        a = read_matrix(path)
        assert spectral_norm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(a.data) == pytest.approx(8 ** -0.5))
        assert "spectral_norm=" in out and "unit_norm=yes" in out

    def test_bounded_reports_entry_bound(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        code, out, _ = run(
            capsys, "gen", "bounded", "16", "--mu", "0.2", "--seed", "2", "--out", str(path)
        )
        assert code == EXIT_OK
        entry = float(next(l for l in out.splitlines() if l.startswith("max_abs_entry=")).split("=")[1])
        assert entry <= 0.2

    def test_same_seed_identical_files(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "sign", "8", "--seed", "7", "--out", str(p1))
        run(capsys, "gen", "sign", "8", "--seed", "7", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_artifact_is_reference_text(self, capsys, tmp_path):
        path = tmp_path / "s64.txt"
        assert run(capsys, "gen", "sign", "64", "--seed", "3", "--out", str(path))[0] == EXIT_OK
        a = gen_ensemble("sign_normalized", 64, Seed(3))
        assert path.read_text() == oracles.matrix_to_text(a)

    def test_hex_seed(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "gen", "sign", "4", "--seed", "0xFF", "--out", str(tmp_path / "m.txt")
        )
        assert code == EXIT_OK

    def test_bad_kind_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "wat", "4", "--out", str(tmp_path / "m.txt"))
        assert code == EXIT_USAGE and "error" in err

    def test_bad_params_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gen", "hadamard", "5", "--out", str(tmp_path / "m.txt"))
        assert code == EXIT_USAGE


    def test_bad_gamma_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, _, err = run(
            capsys, "gen", "bounded", "8", "--mu", "0.1", "--gamma", "0", "--out", str(path)
        )
        assert code == EXIT_USAGE and "error" in err
        assert not path.exists()

    @pytest.mark.parametrize("n", ["1", "2", "3"])
    def test_nonpositive_gamma_exits_2_at_every_n(self, capsys, tmp_path, monkeypatch, n):
        """`mu_bound`, which refuses the gamma too, runs only from n = 3; the
        flag is refused at every n before the output is opened."""
        def no_open(path):
            raise AssertionError("gen opened its output")

        monkeypatch.setattr(fileio, "replacing", no_open)
        path = tmp_path / "g.txt"
        code, out, err = run(capsys, "gen", "sign", n, "--gamma", "-1", "--out", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err == "error: gamma must be positive, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_index_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, out, err = run(capsys, "gen", "sign", "8", "--index", "-1", "--out", str(path))
        assert code == EXIT_USAGE and err.startswith("error: stream index")
        assert out == "" and not path.exists()

    @pytest.mark.parametrize("mu, message", [
        ("1e308", "error: bounded_random needs 2 * mu finite, got mu=1e+308\n"),
        ("8e307", "error: the spectral norm of this 8 x 8 matrix overflows float64\n"),
    ])
    def test_overflowing_mu_exits_2_and_writes_no_file(self, capsys, tmp_path, mu, message):
        path = tmp_path / "b.txt"
        code, out, err = run(capsys, "gen", "bounded", "8", "--mu", mu, "--out", str(path))
        assert code == EXIT_USAGE and out == "" and err == message
        assert not path.exists()


# the five kinds by their CLI names, at sizes each exists at (hadamard: powers of 2)
_GEN_CASES = [
    (kind, n)
    for kind in ("sign", "hadamard", "hadamard_hollow", "bounded", "diagonal_free")
    for n in ((8, 64, 128) if kind.startswith("hadamard") else (8, 64, 130))
]


class TestGenNormHelper:
    """`gen` norms its matrix in a forked helper process while it writes the
    file (`forks.split`), and in turn on one CPU."""

    @pytest.mark.parametrize("kind, n", _GEN_CASES)
    def test_printed_norm_and_file_match_the_references(self, capsys, tmp_path, kind, n):
        path = tmp_path / "m.txt"
        mu = ["--mu", "0.05"] if kind == "bounded" else []
        code, out, _ = run(capsys, "gen", kind, str(n), "--seed", "9", *mu, "--out", str(path))
        assert code == EXIT_OK
        assert f"spectral_norm={cli._fmt(spectral_norm(read_matrix(path)))}" in out.splitlines()
        a = gen_ensemble(cli._ENSEMBLE_ALIASES[kind], n, Seed(9), mu=0.05 if mu else None)
        assert path.read_text() == oracles.matrix_to_text(a)

    def _forks(self, monkeypatch, workers=2):
        """A list that grows by one for every fork, at `workers` CPUs."""
        forks, real_fork = [], os.fork
        monkeypatch.setattr(cli.forks, "CPUS", workers)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        return forks

    def _norm_in_child(self, monkeypatch, act):
        """cli.spectral_norm that calls act() first when run in a child."""
        parent = os.getpid()

        def norm(a):
            if os.getpid() != parent:
                act()
            return spectral_norm(a)

        monkeypatch.setattr(cli, "spectral_norm", norm)

    def test_helper_memory_error_exits_3(self, capsys, tmp_path, monkeypatch):
        def no_room():
            raise MemoryError("no room for the SVD")

        self._norm_in_child(monkeypatch, no_room)
        forks = self._forks(monkeypatch)
        code, out, err = run(capsys, "gen", "sign", "64", "--out", str(tmp_path / "m.txt"))
        assert code == EXIT_CAPACITY and out == "" and err == "error: no room for the SVD\n"
        assert forks == [1]
        _assert_no_children()

    @pytest.mark.parametrize("target", ["missing/m.txt", ".", "m.txt"])
    def test_unwritable_out_exits_2_and_joins_the_helper(
        self, capsys, tmp_path, monkeypatch, target
    ):
        """A missing directory, a directory, and a rename that fails after
        the temp file is written: exit 2, no temp file, and a norm child
        slower than the failed write is reaped before main returns.  The
        missing directory and the directory are refused when the output is
        opened, before the draw, so nothing forks."""
        if target == "m.txt":
            def no_space(*args):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(fileio.os, "replace", no_space)
        self._norm_in_child(monkeypatch, lambda: time.sleep(0.2))
        forks = self._forks(monkeypatch)
        code, out, err = run(capsys, "gen", "sign", "130", "--out", str(tmp_path / target))
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")
        assert forks == ([1] if target == "m.txt" else [])
        _assert_no_children()
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_kills_the_norm_child(self, capsys, tmp_path, monkeypatch):
        """The write is this process's first call: when it fails (here the
        disk fills after a few rows), the norm is not needed, so its child
        is killed instead of awaited."""
        lines = fileio._matrix_lines

        def no_space(a):
            yield from itertools.islice(lines(a), 3)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(fileio, "_matrix_lines", no_space)
        self._norm_in_child(monkeypatch, lambda: time.sleep(60))
        forks = self._forks(monkeypatch)
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "sign", "130", "--out", str(tmp_path / "m.txt"))
        assert time.perf_counter() - start < 30
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")
        assert forks == [1]
        _assert_no_children()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure, cpus", [("killed", 2), ("memory", 2), ("memory", 1)])
    def test_failed_norm_keeps_the_previous_target(
        self, capsys, tmp_path, monkeypatch, failure, cpus
    ):
        """A norm child that is killed, or a norm that runs out of memory (in
        the child, or on one CPU in this process after the write): exit 3,
        and a previous target keeps its bytes, with no temp file left."""
        path = tmp_path / "m.txt"
        path.write_text("previous\n")
        if failure == "killed":
            self._norm_in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        else:
            def no_room(a):
                raise MemoryError("no room for the SVD")

            monkeypatch.setattr(cli, "spectral_norm", no_room)
        forks = self._forks(monkeypatch, cpus)
        code, out, err = run(capsys, "gen", "sign", "64", "--out", str(path))
        assert code == EXIT_CAPACITY and out == "" and err.startswith("error: ")
        assert forks == ([1] if cpus == 2 else [])
        _assert_no_children()
        assert path.read_bytes() == b"previous\n"
        assert [f.name for f in tmp_path.iterdir()] == ["m.txt"]

    @pytest.mark.parametrize("target, errno_name", [
        ("missing/m.txt", "ENOENT"), ("file/m.txt", "ENOTDIR"), (".", "EISDIR"),
    ])
    def test_missing_directory_exits_2_before_the_draw(
        self, capsys, tmp_path, monkeypatch, target, errno_name
    ):
        """An output directory that is missing, or a file, and an output that
        is a directory are refused before the matrix is drawn, with the
        `error:` line the write would give."""
        (tmp_path / "file").write_text("")
        drawn = []
        monkeypatch.setattr(cli, "gen_ensemble", lambda *args, **kwargs: drawn.append(args))
        forks = self._forks(monkeypatch)
        path = str(tmp_path / target)
        code, out, err = run(capsys, "gen", "sign", "1000", "--out", path)
        code_number = getattr(errno, errno_name)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: [Errno {code_number}] {os.strerror(code_number)}: {path!r} (run gen)\n"
        assert drawn == [] and forks == []
        assert [f.name for f in tmp_path.iterdir()] == ["file"]

    def test_killed_helper_exits_3(self, capsys, tmp_path, monkeypatch):
        self._norm_in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        forks = self._forks(monkeypatch)
        code, out, err = run(capsys, "gen", "sign", "64", "--out", str(tmp_path / "m.txt"))
        assert code == EXIT_CAPACITY and out == "" and forks == [1]
        assert err.startswith("error: gen process ")
        assert err.endswith(" killed by signal 9 without a result\n")
        _assert_no_children()

    def test_refused_fork_exits_3_and_writes_no_file(self, capsys, tmp_path, monkeypatch):
        def refused():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli.forks, "CPUS", 2)
        monkeypatch.setattr(os, "fork", refused)
        path = tmp_path / "m.txt"
        code, out, err = run(capsys, "gen", "sign", "64", "--out", str(path))
        assert code == EXIT_CAPACITY and out == ""
        assert err == "error: cannot fork a gen process: [Errno 11] Resource temporarily unavailable\n"
        assert not path.exists()

    @pytest.mark.parametrize("refusal", ["one CPU", "another thread"])
    def test_no_fork_prints_and_writes_the_forked_bytes(self, capsys, tmp_path, monkeypatch, refusal):
        path = tmp_path / "m.txt"
        argv = ("gen", "bounded", "130", "--mu", "0.05", "--seed", "3", "--out", str(path))
        forks = self._forks(monkeypatch)
        forked = (run(capsys, *argv), path.read_bytes())
        assert forks == [1]
        forks.clear()
        if refusal == "one CPU":
            monkeypatch.setattr(cli.forks, "CPUS", 1)
            assert (run(capsys, *argv), path.read_bytes()) == forked
        else:
            release = threading.Event()
            other = threading.Thread(target=release.wait)
            other.start()
            try:
                assert (run(capsys, *argv), path.read_bytes()) == forked
            finally:
                release.set()
                other.join(timeout=10)
            assert not other.is_alive()
        assert forks == []


class TestPave:
    def test_single_block_quality_is_norm(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        a = gen_ensemble("bounded_random", 6, Seed(4), mu=0.4)
        write_path(write_matrix, a, src)
        code, out, _ = run(
            capsys, "pave", str(src), "-m", "1", "--trials", "3", "--seed", "1",
            "--out", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_OK
        lines = dict(l.split("=", 1) for l in out.splitlines() if "=" in l and " " not in l.split("=")[0])
        assert float(lines["quality"]) == float(lines["spectral_norm"])

    def test_hollow_singletons(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        write_path(write_matrix, gen_ensemble("diagonal_free_random", 5, Seed(2)), src)
        code, out, _ = run(
            capsys, "pave", str(src), "-m", "5", "--trials", "2", "--seed", "1",
            "--out", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_OK
        assert "quality=0\n" in out

    def test_matches_exhaustive_fixture(self, capsys, tmp_path):
        rng = Seed(71).rng("fixture:paving", 0)
        m = rng.uniform(-1.0, 1.0, size=(8, 8))
        np.fill_diagonal(m, 0.0)
        a = DenseMatrix(m)
        src = tmp_path / "m.txt"
        write_path(write_matrix, a, src)
        code, out, _ = run(
            capsys, "pave", str(src), "-m", "2", "--trials", "10000", "--seed", "3",
            "--eps", "0.6", "--out", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_OK
        quality = float(next(l for l in out.splitlines() if l.startswith("quality=")).split("=")[1])
        assert quality == pytest.approx(exhaustive_pave(a, 2).quality, abs=1e-12)
        assert "holds_3eps=" in out and "holds_6eps=" in out

    def test_padding_warning_and_original_coordinates(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        write_path(write_matrix, gen_ensemble("bounded_random", 5, Seed(9), mu=0.3), src)
        code, out, _ = run(
            capsys, "pave", str(src), "-m", "2", "--trials", "10", "--seed", "1",
            "--out", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_OK
        assert "warning: padded 5 -> 6" in out
        indices = {
            int(tok)
            for line in (tmp_path / "p.txt").read_text().splitlines()
            for tok in line.split()
        }
        assert indices == set(range(5))

    @pytest.mark.parametrize("flags", [("-m", "4", "--trials", "0"), ("-m", "0")])
    def test_bad_flags_rejected_before_padding_warning(self, capsys, tmp_path, flags):
        src = tmp_path / "s6.txt"
        write_path(write_matrix, gen_ensemble("sign_normalized", 6, Seed(1)), src)
        out_path = tmp_path / "p.txt"
        code, out, err = run(capsys, "pave", str(src), *flags, "--out", str(out_path))
        assert code == EXIT_USAGE and "error" in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("eps", ["0", "-0", "-1"])
    def test_nonpositive_eps_exits_2_before_reading(self, capsys, tmp_path, eps):
        """The flag is refused before the input is read: a missing file is
        not what the error names, and no partition is written."""
        out_path = tmp_path / "p.txt"
        code, out, err = run(
            capsys, "pave", str(tmp_path / "missing.txt"), "-m", "2", "--eps", eps,
            "--out", str(out_path),
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: eps must be positive, got {float(eps)}\n"
        assert not out_path.exists()

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        code, _, err = run(
            capsys, "pave", str(bad), "-m", "2", "--out", str(tmp_path / "p.txt")
        )
        assert code == EXIT_USAGE and "error" in err

    def test_binary_input_exit_2(self, capsys, tmp_path):
        src, out_path = tmp_path / "a.npy", tmp_path / "p.txt"
        np.save(src, np.eye(4))
        code, out, err = run(capsys, "pave", str(src), "-m", "2", "--out", str(out_path))
        assert code == EXIT_USAGE and f"error: {src}: not " in err
        assert out == ""
        assert not out_path.exists()

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "pave", str(tmp_path / "nope.txt"), "-m", "2",
            "--out", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_USAGE



@pytest.mark.parametrize("argv", [
    ("pave", "-m", "2"),
    ("scan", "--vary", "rho", "--grid", "0.5", "--p", "4", "--method", "mc"),
], ids=lambda a: a[0])
def test_huge_header_over_short_body_exit_2(capsys, tmp_path, argv):
    """A header far larger than its file is a format error, not an allocation."""
    src, out_path = tmp_path / "m.txt", tmp_path / "out.txt"
    src.write_text("1000000000 1000000000\n1 2\n")
    code, out, err = run(capsys, argv[0], str(src), *argv[1:], "--out", str(out_path))
    assert code == EXIT_USAGE
    assert err == "error: expected 1000000000 rows, found 1\n"
    assert out == ""
    assert not out_path.exists()


_DEGENERATE_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2)]
_DEGENERATE_RUNS = [("pave", "-m", m, "--trials", "5") for m in ("1", "2", "3")] + [
    ("scan", "--vary", vary, "--grid", grid, *extra, "--method", method, "--trials", "50")
    for vary, grid, extra in [
        ("rho", "0.5", ["--p", "4"]),
        ("p", "2,4", ["--rate", "0.5"]),
        ("delta", "0.3", ["--p", "4"]),
    ]
    for method in ("exact", "mc")
]


@pytest.mark.parametrize("shape", _DEGENERATE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("argv", _DEGENERATE_RUNS, ids=lambda a: "_".join(t.lstrip("-") for t in a))
def test_degenerate_shapes_exit_cleanly(capsys, tmp_path, shape, argv):
    """Every run on an empty, 1x1 or 2x2 matrix maps to a documented exit
    code, and a usage error leaves no output file."""
    src, out_path = tmp_path / "m.txt", tmp_path / "out.txt"
    write_path(write_matrix, DenseMatrix(np.full(shape, 0.5)), src)
    code, _, err = run(capsys, argv[0], str(src), *argv[1:], "--seed", "1",
                       "--out", str(out_path))
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CAPACITY)
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert err.startswith("error: ")
        assert not out_path.exists()
    if shape == (0, 0) and argv[0] == "pave":
        assert code == EXIT_USAGE


class TestVerify:
    def test_decoupling_tiny(self, capsys):
        code, out, _ = run(capsys, "verify", "DECOUPLING", "--size", "tiny")
        assert code == EXIT_OK
        assert "suite=DECOUPLING passed=10/10" in out
        assert "all_hold=yes" in out

    def test_markov_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "MARKOV")
        assert code == EXIT_OK and "suite=MARKOV passed=11/11" in out

    def test_all_smoke(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--size", "smoke")
        assert code == EXIT_OK and "all_hold=yes" in out

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "NOT_A_SUITE")
        assert code == EXIT_USAGE

    def test_seed_override_regenerates_instances(self, capsys):
        code, out, _ = run(capsys, "verify", "SCALAR_KHINTCHINE", "--size", "tiny",
                           "--seed", "0x2FF")
        assert code == EXIT_OK and "passed=10/10" in out

    def test_violation_exits_1(self, capsys, monkeypatch):
        import pavelab.cli as cli

        real = cli.verify_inequality

        def rigged(case_id, inst, method="exact", trials=0, seed=None):
            rep = real(case_id, inst, method=method, trials=trials, seed=seed)
            object.__setattr__(rep, "holds", False)
            return rep

        monkeypatch.setattr(cli, "verify_inequality", rigged)
        code, out, _ = run(capsys, "verify", "DECOUPLING", "--size", "smoke")
        assert code == EXIT_VIOLATION
        assert "violation case=DECOUPLING instance_seed=0" in out


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(sys.platform != "linux", reason="verify forks on Linux only")
class TestVerifyProcesses:
    """`verify` runs instance i in process i mod `forks.CPUS` (forked
    children besides this one) and prints the same bytes at any count."""

    def _each(self, capsys, monkeypatch, argv):
        """(code, stdout, stderr) of `argv` at 1, 2 and 3 workers, checking
        that N - 1 children are forked and all reaped, and that this process
        norms on its calling thread."""
        results = []
        real_fork, real_start = os.fork, threading.Thread.start
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli.forks, "CPUS", workers)
            forks, started = [], []
            monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            monkeypatch.setattr(
                threading.Thread, "start", lambda t: started.append(t) or real_start(t)
            )
            results.append(run(capsys, *argv))
            monkeypatch.setattr(os, "fork", real_fork)
            monkeypatch.setattr(threading.Thread, "start", real_start)
            assert len(forks) == workers - 1 and started == []
            _assert_no_children()
        return results

    def _rig(self, monkeypatch, act):
        """cli.verify_inequality that first calls act(label, report) with the
        instance's suite label (instances are made before any fork, so their
        ids are the same in every process)."""
        labels, real_instances, real_verify = {}, suites.suite_instances, cli.verify_inequality

        def instances(case_id, count, master=None):
            pool = real_instances(case_id, count, master)
            labels.update((id(inst), label) for label, inst in pool)
            return pool

        def rigged(case_id, inst, method="exact", trials=0, seed=None):
            rep = real_verify(case_id, inst, method=method, trials=trials, seed=seed)
            act(labels[id(inst)], rep)
            return rep

        monkeypatch.setattr(suites, "suite_instances", instances)
        monkeypatch.setattr(cli, "verify_inequality", rigged)

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--size", "small", "--seed", "0"],
        ["verify", "all", "--size", "small"],
        ["verify", "all", "--size", "tiny"],
        ["verify", "all", "--size", "smoke"],
        ["verify", "DECOUPLING", "--size", "tiny"],
    ])
    def test_stdout_identical_across_worker_counts(self, capsys, monkeypatch, argv):
        results = self._each(capsys, monkeypatch, argv)
        assert results[0][0] == EXIT_OK and "all_hold=yes" in results[0][1]
        assert results[0] == results[1] == results[2]

    def test_violations_identical_across_worker_counts(self, capsys, monkeypatch):
        def fail_odd(label, rep):
            if label % 2:
                object.__setattr__(rep, "holds", False)

        self._rig(monkeypatch, fail_odd)
        results = self._each(capsys, monkeypatch, ["verify", "all", "--size", "tiny"])
        code, out, _ = results[0]
        assert code == EXIT_VIOLATION
        assert "violation case=DECOUPLING instance_seed=5" in out
        assert "violation case=DECOUPLING instance_seed=4" not in out
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("error, code", [
        (CapacityError("too big"), EXIT_CAPACITY),
        (ParameterError("bad value"), EXIT_USAGE),
        (MemoryError("no room"), EXIT_CAPACITY),
    ])
    def test_child_error_matches_one_process(self, capsys, monkeypatch, error, code):
        def raise_at_5(label, rep):  # 5 falls to a child at 2 and 3 workers
            if label == 5:
                raise error

        self._rig(monkeypatch, raise_at_5)
        results = self._each(capsys, monkeypatch, ["verify", "DECOUPLING", "--size", "tiny"])
        got, out, err = results[0]
        assert got == code and err == f"error: {error}\n"
        assert out.count("case=DECOUPLING") == 5 and "suite=" not in out
        assert results[0] == results[1] == results[2]

    def test_killed_child_exits_3(self, capsys, monkeypatch):
        parent = os.getpid()

        def die_in_child(label, rep):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        self._rig(monkeypatch, die_in_child)
        monkeypatch.setattr(cli.forks, "CPUS", 2)
        code, _, err = run(capsys, "verify", "DECOUPLING", "--size", "tiny")
        assert code == EXIT_CAPACITY
        assert err.startswith("error: verify process ") and "killed by signal 9" in err
        _assert_no_children()

    def test_interrupt_in_parent_kills_child(self, capsys, monkeypatch):
        parent = os.getpid()

        def stall_child_interrupt_parent(label, rep):
            if os.getpid() != parent:
                if label == 1:
                    time.sleep(60)
            elif label == 2:
                raise KeyboardInterrupt

        self._rig(monkeypatch, stall_child_interrupt_parent)
        monkeypatch.setattr(cli.forks, "CPUS", 2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "DECOUPLING", "--size", "tiny"])
        assert time.perf_counter() - start < 30
        assert capsys.readouterr().out == ""
        _assert_no_children()

    def test_failed_fork_exits_3_and_reaps(self, capsys, monkeypatch):
        forks, real_fork = [], os.fork

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(cli.forks, "CPUS", 3)
        monkeypatch.setattr(os, "fork", second_fails)
        code, out, err = run(capsys, "verify", "MARKOV")
        assert code == EXIT_CAPACITY and out == ""
        assert err == "error: cannot fork a verify process: [Errno 11] Resource temporarily unavailable\n"
        _assert_no_children()

    def test_no_fork_while_another_thread_runs(self, capsys, monkeypatch):
        """A forked child would inherit the locks other threads hold.  The one
        process prints the forked run's bytes, the exact pair space included
        (DECOUPLING)."""
        forks, real_fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(cli.forks, "CPUS", 2)
        for argv in (("verify", "MARKOV"), ("verify", "DECOUPLING", "--size", "tiny")):
            forked = run(capsys, *argv)
            assert forks == [1]
            forks.clear()
            release = threading.Event()
            other = threading.Thread(target=release.wait)
            other.start()
            try:
                assert run(capsys, *argv) == forked
            finally:
                release.set()
                other.join(timeout=10)
            assert not other.is_alive() and forks == []

    def test_buffered_stdout_printed_once(self):
        """Children leave by os._exit, so the lines a block-buffered stdout
        holds when they are forked reach the pipe once, from the parent."""
        src = os.path.dirname(os.path.dirname(pavelab.__file__))
        script = (
            "from pavelab import cli, forks\n"
            "forks.CPUS = 3\n"
            "cli.main(['verify', 'MARKOV'])\n"
            "cli.main(['verify', 'MARKOV'])\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(env, PYTHONPATH=src),
            capture_output=True, check=True, timeout=120,
        )
        once = "".join(f"{line}\n" for line in (
            *(cli._markov_check(d)[0] for d in range(11)),
            "suite=MARKOV passed=11/11", "all_hold=yes",
        ))
        assert proc.stdout.decode() == once + once


@pytest.mark.skipif(sys.platform != "linux", reason="pave forks on Linux only")
class TestPaveProcesses:
    """`pave` scores trial t in process t mod `forks.CPUS` (forked children
    besides this one) from 256 Gram blocks a search (trials times m,
    k <= 64), and prints and writes the same bytes at any count."""

    def _each(self, capsys, monkeypatch, tmp_path, argv, split=True):
        """(code, stdout, stderr, partition file bytes) of `pave argv` at 1,
        2 and 3 workers, checking that N - 1 children are forked (none unless
        `split`) and all reaped, and that no thread starts."""
        results = []
        out = tmp_path / "part.txt"
        real_fork, real_start = os.fork, threading.Thread.start
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli.forks, "CPUS", workers)
            forks, started = [], []
            monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            monkeypatch.setattr(
                threading.Thread, "start", lambda t: started.append(t) or real_start(t)
            )
            results.append((*run(capsys, "pave", *argv, "--out", str(out)), out.read_bytes()))
            monkeypatch.setattr(os, "fork", real_fork)
            monkeypatch.setattr(threading.Thread, "start", real_start)
            assert len(forks) == (workers - 1 if split else 0) and started == []
            _assert_no_children()
        return results

    @pytest.mark.parametrize("kind, seed, best", [("identity", "0", 0), ("sign", "1", 25)])
    def test_pave_bitwise_across_worker_counts(self, capsys, monkeypatch, tmp_path, kind, seed, best):
        """40 trials of m = 8 at n = 64: 320 blocks of 8 x 8.  On the
        identity every trial ties and trial 0 wins; the sign matrix's best
        trial 25 lies in share 1 at 2 and at 3 processes."""
        src = tmp_path / "a.txt"
        a = DenseMatrix.identity(64) if kind == "identity" else gen_ensemble("sign_normalized", 64, Seed(6))
        write_path(write_matrix, a, src)
        results = self._each(capsys, monkeypatch, tmp_path,
                             [str(src), "-m", "8", "--trials", "40", "--seed", seed])
        assert results[0][0] == EXIT_OK and f"\nbest_trial={best}\n" in results[0][1]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n, m, trials", [(64, 8, 31), (130, 2, 200)])
    def test_one_process_below_the_split_at_any_worker_counts(
        self, capsys, monkeypatch, tmp_path, n, m, trials
    ):
        """31 trials of m = 8 are 248 blocks, under the split's 256; blocks of
        65 x 65 take the SVD, which stays in one process."""
        src = tmp_path / "a.txt"
        write_path(write_matrix, gen_ensemble("sign_normalized", n, Seed(3)), src)
        results = self._each(capsys, monkeypatch, tmp_path,
                             [str(src), "-m", str(m), "--trials", str(trials)], split=False)
        assert results[0][0] == EXIT_OK
        assert results[0] == results[1] == results[2]

    def test_killed_share_child_exits_3(self, capsys, monkeypatch, tmp_path):
        parent, real = os.getpid(), cli.random_pave_share

        def die_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(cli, "random_pave_share", die_in_child)
        monkeypatch.setattr(cli.forks, "CPUS", 2)
        src, out = tmp_path / "a.txt", tmp_path / "part.txt"
        write_path(write_matrix, DenseMatrix.identity(64), src)
        code, stdout, err = run(capsys, "pave", str(src), "-m", "8", "--trials", "40",
                                "--out", str(out))
        assert code == EXIT_CAPACITY and stdout == ""
        assert err.startswith("error: pave process ") and "killed by signal 9" in err
        assert not out.exists()
        _assert_no_children()


    def test_one_search_while_another_thread_runs(self, capsys, monkeypatch, tmp_path):
        """Where `may_fork` refuses, the search runs once in this process, not
        once per share: the same bytes, from one call over every trial."""
        src = tmp_path / "a.txt"
        write_path(write_matrix, gen_ensemble("sign_normalized", 64, Seed(6)), src)
        argv = ["pave", str(src), "-m", "8", "--trials", "64", "--out", str(tmp_path / "p.txt")]
        monkeypatch.setattr(cli.forks, "CPUS", 3)
        forked = (run(capsys, *argv), (tmp_path / "p.txt").read_bytes())
        calls, real = [], paving.random_pave_share

        def share(*args):
            calls.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(paving, "random_pave_share", share)
        monkeypatch.setattr(cli, "random_pave_share", share)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert (run(capsys, *argv), (tmp_path / "p.txt").read_bytes()) == forked
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and calls == [(0, 1)]


@pytest.mark.skipif(sys.platform != "linux", reason="the commands fork on Linux only")
def test_no_thread_starts_at_worker_counts(capsys, tmp_path, monkeypatch):
    """No package code starts a thread.  At two CPUs `gen` forks one child
    for its norm, and `pave` above its split threshold, `verify` and the
    read of a file of a MiB or more fork one each; the rest fork none."""
    started, forks = [], []
    real_fork, real_start = os.fork, threading.Thread.start
    monkeypatch.setattr(cli.forks, "CPUS", 2)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or real_start(t))
    big, a64, a8 = (str(tmp_path / name) for name in ("big.txt", "a64.txt", "a8.txt"))
    part, csv = str(tmp_path / "part.txt"), str(tmp_path / "scan.csv")
    runs = [
        (["gen", "sign", "250", "--out", big], 1),
        (["gen", "hadamard", "64", "--out", a64], 1),
        (["gen", "hadamard_hollow", "8", "--out", a8], 1),
        (["gen", "bounded", "64", "--mu", "0.05", "--out", a64], 1),
        (["gen", "diagonal_free", "64", "--out", a64], 1),
        (["gen", "sign", "8", "--out", a8], 1),
        (["pave", a64, "-m", "8", "--trials", "2", "--out", part], 0),
        (["pave", a64, "-m", "8", "--trials", "40", "--out", part], 1),
        (["pave", big, "-m", "5", "--trials", "2", "--out", part], 1),
        (["verify", "all", "--size", "tiny"], 1),
        (["scan", a8, "--vary", "rho", "--grid", "0.2,0.5", "--method", "exact", "--out", csv], 0),
        (["scan", a64, "--vary", "rho", "--grid", "0.1", "--method", "mc", "--trials", "20",
          "--out", csv], 0),
        (["bound", "pipeline", "--n", "1024", "--gamma", "1", "--m", "16"], 0),
    ]
    for argv, forked in runs:
        forks.clear()
        assert run(capsys, *argv)[0] == EXIT_OK, argv
        assert len(forks) == forked and started == [], argv
        _assert_no_children()
    assert os.path.getsize(big) >= fileio._SHARE_BYTES


# matrix files whose header the read refuses (None: no file), at n = 15 past the exact cap
_BAD_HEADERS = [None, "", "15\n", "15 x\n", "15 15 15\n", "-15 -15\n",
                "15 16\n" + "1 " * 16 + "\n", "15\x0c15\n", b"\xff\xfe 15\n"]


def _bad_header_file(tmp_path, text):
    src = tmp_path / "m.txt"
    if isinstance(text, bytes):
        src.write_bytes(text)
    elif text is not None:
        src.write_text(text)
    return src


class TestScan:
    def test_rate_one_estimate_is_spectral_norm(self, capsys, tmp_path):
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        a = gen_ensemble("bounded_random", 6, Seed(5), mu=0.4)
        write_path(write_matrix, a, src)
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", "rho", "--grid", "1.0",
            "--p", "4", "--seed", "2", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == SCAN_HEADER
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(spectral_norm(a), rel=1e-15)
        assert float(row[4]) == 0.0 and row[5] == "0"

    def test_exact_matches_exact_moment(self, capsys, tmp_path):
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        a = gen_ensemble("bounded_random", 10, Seed(6), mu=0.3)
        write_path(write_matrix, a, src)
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", "rho", "--grid", "0.25,0.5",
            "--p", "4", "--seed", "2", "--method", "exact", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        b = read_matrix(src)
        for line, rate in zip(out_csv.read_text().splitlines()[1:], (0.25, 0.5)):
            est = float(line.split(",")[3])
            expect = exact_moment(b, Bernoulli(10, rate), 4.0).value
            assert est == pytest.approx(expect, abs=1e-12)

    def test_bounds_dominate_estimates_under_hypotheses(self, capsys, tmp_path):
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        run(capsys, "gen", "sign", "8", "--seed", "11", "--out", str(src))
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", "delta", "--grid", "0.1,0.3,0.45",
            "--p", "6", "--seed", "2", "--method", "exact", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        for line in out_csv.read_text().splitlines()[1:]:
            cells = line.split(",")
            estimate, s3, extrap = float(cells[3]), float(cells[7]), float(cells[8])
            assert s3 >= estimate
            assert extrap >= estimate

    def test_vary_p_needs_rate(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        write_path(write_matrix, gen_ensemble("bounded_random", 6, Seed(5), mu=0.4), src)
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", "p", "--grid", "2,4",
            "--seed", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("vary, grid, extra", [
        ("rho", "0.1,0.2,0.5,7", ["--p", "6"]),
        ("p", "2,4,6.5", ["--rate", "0.3"]),
    ])
    def test_bad_grid_value_exits_2_before_any_moment(
        self, capsys, tmp_path, monkeypatch, vary, grid, extra
    ):
        src, out_csv = tmp_path / "m.txt", tmp_path / "s.csv"
        run(capsys, "gen", "sign", "8", "--seed", "11", "--out", str(src))
        calls = []
        real = cli.moment

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "moment", counting)
        code, out, err = run(
            capsys, "scan", str(src), "--vary", vary, "--grid", grid, *extra,
            "--method", "exact", "--out", str(out_csv),
        )
        assert code == EXIT_USAGE and "grid value" in err
        assert calls == [] and out == "" and not out_csv.exists()

    def test_capacity_exit_3(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        write_path(write_matrix, gen_ensemble("bounded_random", 16, Seed(5), mu=0.2), src)
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", "rho", "--grid", "0.5",
            "--method", "exact", "--seed", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_CAPACITY

    def test_unallocatable_trial_count_exit_3(self, capsys, tmp_path):
        """10^11 Monte Carlo draws at n = 12 ask for 8.7 TiB of uniform keys,
        which no machine allocates: exit 3 with an error line, no file."""
        src, out_csv = tmp_path / "a12.txt", tmp_path / "s.csv"
        write_path(write_matrix, gen_ensemble("sign_normalized", 12, Seed(5)), src)
        code, out, err = run(
            capsys, "scan", str(src), "--vary", "rho", "--grid", "0.5", "--p", "6",
            "--method", "mc", "--trials", str(10 ** 11), "--out", str(out_csv),
        )
        assert code == EXIT_CAPACITY and err.startswith("error: ") and "TiB" in err
        assert out == "" and not out_csv.exists()

    @pytest.mark.parametrize("gamma", ["0", "-1"])
    def test_nonpositive_gamma_exits_2_before_reading_or_writing(self, capsys, tmp_path, gamma):
        out_csv = tmp_path / "s.csv"
        for src in (tmp_path / "missing.txt", tmp_path / "m.txt"):
            if src.name == "m.txt":
                write_path(write_matrix, gen_ensemble("sign_normalized", 8, Seed(5)), src)
            code, out, err = run(
                capsys, "scan", str(src), "--vary", "rho", "--grid", "0.2,0.4",
                "--p", "6", "--gamma", gamma, "--out", str(out_csv),
            )
            assert code == EXIT_USAGE
            assert err.startswith("error: gamma must be positive")
            assert out == "" and not out_csv.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--vary", "rho", "--grid", "2"), "rate grid value 2.0 outside [0, 1]"),
        (("--vary", "rho", "--grid", ","), "grid must be nonempty"),
        (("--vary", "p", "--grid", "4"), "--rate is required when varying p"),
        (("--vary", "rho", "--grid", "0.2", "--seed", "x"), "cannot parse seed 'x'"),
    ])
    def test_bad_flags_exit_2_before_reading(self, capsys, tmp_path, flags, message):
        """As in `pave`, the flags are checked before the input is read: a
        missing file is not what the error names, and no csv is written."""
        out_csv = tmp_path / "s.csv"
        code, out, err = run(
            capsys, "scan", str(tmp_path / "missing.txt"), *flags, "--out", str(out_csv)
        )
        assert code == EXIT_USAGE and out == "" and err == f"error: {message}\n"
        assert not out_csv.exists()


    @pytest.mark.parametrize("vary, p", [("rho", "0"), ("delta", "-2")])
    def test_nonpositive_p_exits_2_before_reading(self, capsys, tmp_path, vary, p):
        """`--p` <= 0 with a rate grid is refused before the input is read
        (a missing file is not what the error names), with the message
        `moment` gives."""
        out_csv = tmp_path / "s.csv"
        code, out, err = run(
            capsys, "scan", str(tmp_path / "missing.txt"), "--vary", vary, "--grid", "0.2",
            "--p", p, "--out", str(out_csv),
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: p must be positive, got {float(p)}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("flags", [
        ("--vary", "rho", "--grid", "0.2", "--p", "6"),
        ("--vary", "p", "--grid", "2,4", "--rate", "0.3"),
    ])
    @pytest.mark.parametrize("trials", ["1", "0", "-5"])
    def test_mc_trials_below_two_exit_2_before_reading(self, capsys, tmp_path, flags, trials):
        """A Monte Carlo scan of fewer than two draws is refused before the
        input is read, with the message `mc_moment` gives; an exact scan
        ignores `--trials`."""
        out_csv = tmp_path / "s.csv"
        code, out, err = run(
            capsys, "scan", str(tmp_path / "missing.txt"), *flags, "--method", "mc",
            "--trials", trials, "--out", str(out_csv),
        )
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: need trials >= 2, got {trials}\n"
        assert not out_csv.exists()
        src = tmp_path / "m.txt"
        write_path(write_matrix, gen_ensemble("sign_normalized", 6, Seed(5)), src)
        code, _, _ = run(capsys, "scan", str(src), *flags, "--method", "exact",
                         "--trials", trials, "--out", str(out_csv))
        assert code == EXIT_OK and out_csv.exists()

    @pytest.mark.parametrize("trials", ["1", "0"])
    def test_auto_trials_below_two_exit_2_from_the_header(self, capsys, tmp_path, monkeypatch, trials):
        """Under `--method auto`, a square header past the exact cap is
        enough to refuse fewer than two draws: the body is not read."""
        n = moments.EXACT_BERNOULLI_MAX_N + 1
        src, out_csv = tmp_path / "m.txt", tmp_path / "s.csv"
        write_path(write_matrix, gen_ensemble("sign_normalized", n, Seed(5)), src)

        def no_read(path):
            raise AssertionError("scan read the matrix")

        monkeypatch.setattr(fileio, "read_matrix", no_read)
        code, out, err = run(capsys, "scan", str(src), "--vary", "rho", "--grid", "0.2",
                             "--trials", trials, "--out", str(out_csv))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: need trials >= 2, got {trials}\n")
        assert not out_csv.exists()

    def test_auto_trials_below_two_at_the_exact_cap_run_exact(self, capsys, tmp_path):
        n = moments.EXACT_BERNOULLI_MAX_N
        src, out_csv = tmp_path / "m.txt", tmp_path / "s.csv"
        write_path(write_matrix, gen_ensemble("sign_normalized", n, Seed(5)), src)
        flags = ("--vary", "rho", "--grid", "0.2", "--out", str(out_csv))
        assert run(capsys, "scan", str(src), *flags, "--method", "exact")[0] == EXIT_OK
        exact = out_csv.read_bytes()
        assert run(capsys, "scan", str(src), *flags, "--trials", "1")[0] == EXIT_OK
        assert out_csv.read_bytes() == exact

    @pytest.mark.parametrize("text", _BAD_HEADERS)
    def test_auto_trials_below_two_keep_the_read_error(self, capsys, tmp_path, text):
        """A missing file, an empty one, a header that is malformed, not
        UTF-8 or not square: `--trials 1` under auto gives the error line
        of the default `--trials`."""
        src = _bad_header_file(tmp_path, text)
        flags = ("scan", str(src), "--vary", "rho", "--grid", "0.2", "--out", str(tmp_path / "s.csv"))
        want = run(capsys, *flags)
        assert want[0] == EXIT_USAGE and want[2].startswith("error: ")
        assert run(capsys, *flags, "--trials", "1") == want


def _symmetric_contraction(n: int) -> DenseMatrix:
    m = Seed(4).rng("test:sym").uniform(-1.0, 1.0, (n, n))
    m = m + m.T
    return DenseMatrix(m / np.linalg.norm(m, 2))


_SIGN5 = gen_ensemble("sign_normalized", 5, Seed(3))


class TestScanBoundColumns:
    """When each bound column of `scan` is nan, and what it holds otherwise.

    Each case is (matrix, flags, step3 column, extrap column): "nan" for nan,
    "step3" for `bounds.step3_bound(max|a_ij|, rate, n)`, and C = 30 or 60 for
    `extrapolation_bound(C, rate, rho_ref, lambda, exact reference moment)`.
    """

    CASES = {
        "n2": (gen_ensemble("sign_normalized", 2, Seed(3)),
               ("--vary", "rho", "--grid", "0.3", "--p", "4"), ["nan"], ["nan"]),
        "n5": (_SIGN5, ("--vary", "rho", "--grid", "0.1,0.3", "--p", "4"),
               ["nan"] * 2, [60.0] * 2),
        "n5-symmetric": (_symmetric_contraction(5),
                         ("--vary", "delta", "--grid", "0.3", "--p", "4"), ["nan"], [30.0]),
        "n8": (gen_ensemble("sign_normalized", 8, Seed(3)),
               ("--vary", "rho", "--grid", "0.3", "--p", "6"), ["step3"], [60.0]),
        "norm2": (DenseMatrix(2.0 * _SIGN5.data),
                  ("--vary", "rho", "--grid", "0.3", "--p", "4"), ["nan"], ["nan"]),
        "odd-p": (_SIGN5, ("--vary", "rho", "--grid", "0.3", "--p", "5"), ["nan"], ["nan"]),
        "rates-0-1": (_SIGN5, ("--vary", "rho", "--grid", "0,1", "--p", "4"),
                      ["nan"] * 2, ["nan"] * 2),
        "vary-p": (_SIGN5, ("--vary", "p", "--rate", "0.3", "--grid", "2,3,4"),
                   ["nan"] * 3, ["nan", "nan", 60.0]),
        "rho-ref-over-half": (_SIGN5, ("--vary", "rho", "--grid", "0.3", "--p", "4",
                                       "--gamma", "0.1"), ["nan"], ["nan"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bound_columns(self, capsys, tmp_path, name):
        a, flags, step3, extrap = self.CASES[name]
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        write_path(write_matrix, a, src)
        code, _, _ = run(capsys, "scan", str(src), *flags, "--seed", "2",
                         "--method", "exact", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows) == len(step3) == len(extrap)
        a, n = read_matrix(src), a.n_rows
        gamma = float(flags[flags.index("--gamma") + 1]) if "--gamma" in flags else 1.0
        for cells, s3_kind, extrap_kind in zip(rows, step3, extrap):
            rate = float(cells[1]) if flags[1] != "p" else 0.3
            p = float(cells[2])
            s3, bound = float(cells[7]), float(cells[8])
            if s3_kind == "nan":
                assert math.isnan(s3)
            else:
                assert s3 == bounds.step3_bound(float(np.max(np.abs(a.data))), rate, n)
            if extrap_kind == "nan":
                assert math.isnan(bound)
                continue
            rho_ref = bounds.reference_rate(n, gamma)
            ref = exact_moment(a, Bernoulli(n, rho_ref), p).value
            lam = bounds.extrapolation_exponent(gamma)
            assert bound == bounds.extrapolation_bound(extrap_kind, rate, rho_ref, lam, ref)

    def test_monte_carlo_streams(self, capsys, tmp_path):
        """Row i estimates on stream 2i and its reference moment on 2i + 1."""
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        write_path(write_matrix, _SIGN5, src)
        code, _, _ = run(capsys, "scan", str(src), "--vary", "rho", "--grid", "0.1,0.3",
                         "--p", "4", "--seed", "2", "--method", "mc", "--trials", "40",
                         "--out", str(out_csv))
        assert code == EXIT_OK
        a, rho_ref = read_matrix(src), bounds.reference_rate(5, 1.0)
        lam = bounds.extrapolation_exponent(1.0)
        for i, line in enumerate(out_csv.read_text().splitlines()[1:]):
            cells = line.split(",")
            rate = float(cells[1])
            est = mc_moment(a, Bernoulli(5, rate), 4.0, 40, Seed(2), 2 * i)
            ref = mc_moment(a, Bernoulli(5, rho_ref), 4.0, 40, Seed(2), 2 * i + 1)
            assert float(cells[3]) == est.value
            extrap = bounds.extrapolation_bound(60.0, rate, rho_ref, lam, ref.value)
            assert float(cells[8]) == extrap


class TestScanEnumeratesOnce:
    """An exact scan computes the pattern norms of its matrix once."""

    @pytest.fixture
    def masked_calls(self, monkeypatch):
        monkeypatch.setattr(moments, "_last_norms", None, raising=False)
        calls = []
        real = moments.masked_norms

        def counting(a, row_bits, col_bits):
            calls.append(row_bits.shape[0])
            return real(a, row_bits, col_bits)

        monkeypatch.setattr(moments, "masked_norms", counting)
        return calls

    @pytest.mark.parametrize("vary, grid, extra", [
        ("rho", "0.1,0.3,0.5,0.7,0.9", ["--p", "6"]),
        ("p", "2,4,6,8", ["--rate", "0.3"]),
    ])
    def test_one_masked_norms_call(self, capsys, tmp_path, masked_calls, vary, grid, extra):
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        run(capsys, "gen", "sign", "10", "--seed", "3", "--out", str(src))
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", vary, "--grid", grid, *extra,
            "--method", "exact", "--out", str(out_csv),
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert len(rows) == len(grid.split(","))
        assert any(math.isfinite(float(row[8])) for row in rows)  # rho_ref rows ran
        assert masked_calls == [1 << 10]


class TestPaveRefusesBeforeTheRead:
    """`pave` opens its `--out` after its flag checks and the seed, before
    the read: a refused output or seed prints nothing and reads nothing,
    and a search that fails leaves a previous target as it was."""

    @pytest.fixture
    def no_read(self, monkeypatch):
        def no_read(path):
            raise AssertionError("pave read the matrix")

        monkeypatch.setattr(fileio, "read_matrix", no_read)

    @pytest.mark.parametrize("target", ["missing/x.txt", "."])
    def test_unwritable_out(self, capsys, tmp_path, no_read, target):
        src, path = tmp_path / "a.txt", str(tmp_path / target)
        src.write_text("2 2\n1 0\n0 1\n")
        code, out, err = run(capsys, "pave", str(src), "-m", "2", "--out", path)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {path!r} (run pave)\n")
        assert [f.name for f in tmp_path.iterdir()] == ["a.txt"]

    def test_bad_seed(self, capsys, tmp_path, no_read):
        src = tmp_path / "a.txt"
        src.write_text("2 2\n1 0\n0 1\n")
        code, out, err = run(capsys, "pave", str(src), "-m", "2", "--seed", "nope",
                             "--out", str(tmp_path / "p.txt"))
        assert code == EXIT_USAGE and out == ""
        assert err == "error: cannot parse seed 'nope'\n"
        assert [f.name for f in tmp_path.iterdir()] == ["a.txt"]

    @pytest.mark.parametrize("failure, cpus", [("killed", 2), ("memory", 2), ("memory", 1)])
    def test_failed_search_keeps_the_previous_target(
        self, capsys, tmp_path, monkeypatch, failure, cpus
    ):
        """A share child that is killed, or a search that runs out of memory
        (split over two processes, or in this one): exit 3, no result line,
        and a previous target keeps its bytes, with no temp file left."""
        parent, real = os.getpid(), cli.random_pave_share

        def die_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        def no_room(*args):
            raise MemoryError("no room for the search")

        if failure == "killed":
            monkeypatch.setattr(cli, "random_pave_share", die_in_child)
        else:
            monkeypatch.setattr(cli, "random_pave_share", no_room)
            monkeypatch.setattr(cli, "random_pave", no_room)
        monkeypatch.setattr(cli.forks, "CPUS", cpus)
        src, path = tmp_path / "a.txt", tmp_path / "part.txt"
        write_path(write_matrix, DenseMatrix.identity(64), src)
        path.write_text("previous\n")
        code, out, err = run(capsys, "pave", str(src), "-m", "8", "--trials", "40",
                             "--out", str(path))
        assert code == EXIT_CAPACITY and out == "" and err.startswith("error: ")
        if failure == "memory":
            assert err == "error: no room for the search\n"
        _assert_no_children()
        assert path.read_bytes() == b"previous\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.txt", "part.txt"]


class TestScanRefusesBeforeTheRead:
    """Errors `scan` can tell from its flags, the matrix file's header or
    the output path are raised without reading the matrix."""

    @pytest.fixture
    def no_read(self, monkeypatch):
        def no_read(path):
            raise AssertionError("scan read the matrix")

        monkeypatch.setattr(fileio, "read_matrix", no_read)

    def _src(self, tmp_path, n):
        src = tmp_path / "m.txt"
        write_path(write_matrix, gen_ensemble("sign_normalized", n, Seed(5)), src)
        return src

    @pytest.mark.parametrize("rate", ["1.5", "-0.25"])
    def test_rate_outside_unit_interval(self, capsys, tmp_path, no_read, rate):
        src, out_csv = self._src(tmp_path, 8), tmp_path / "s.csv"
        code, out, err = run(capsys, "scan", str(src), "--vary", "p", "--grid", "2,4",
                             "--rate", rate, "--out", str(out_csv))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: rate must be in [0, 1], got {float(rate)}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("vary, grid", [("rho", "0.1"), ("p", "2")])
    def test_exact_past_the_cap_from_the_header(self, capsys, tmp_path, no_read, vary, grid):
        n = moments.EXACT_BERNOULLI_MAX_N + 1
        src, out_csv = self._src(tmp_path, n), tmp_path / "s.csv"
        code, out, err = run(capsys, "scan", str(src), "--vary", vary, "--grid", grid,
                             "--rate", "0.5", "--method", "exact", "--out", str(out_csv))
        assert code == EXIT_CAPACITY and out == ""
        assert err == f"error: exact Bernoulli enumeration needs 2^{n} patterns\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("target", ["missing/s.csv", "."])
    def test_unwritable_out(self, capsys, tmp_path, no_read, target):
        src = self._src(tmp_path, 8)
        out_csv = str(tmp_path / target)
        code, out, err = run(capsys, "scan", str(src), "--vary", "rho", "--grid", "0.2",
                             "--out", out_csv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {out_csv!r} (run scan)\n")
        assert [f.name for f in tmp_path.iterdir()] == ["m.txt"]

    @pytest.mark.parametrize("text", _BAD_HEADERS)
    def test_exact_keeps_the_read_error(self, capsys, tmp_path, text):
        """A missing file, an empty one, a header that is malformed, not
        UTF-8 or not square: `--method exact` gives the error line of the
        read, as Monte Carlo does."""
        src = _bad_header_file(tmp_path, text)
        flags = ("scan", str(src), "--vary", "rho", "--grid", "0.2", "--out", str(tmp_path / "s.csv"))
        want = run(capsys, *flags, "--method", "mc")
        assert want[0] == EXIT_USAGE and want[2].startswith("error: ")
        assert run(capsys, *flags, "--method", "exact") == want


class TestAtomicWrites:
    def test_failed_scan_write_keeps_previous_csv(self, capsys, tmp_path, monkeypatch):
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        run(capsys, "gen", "sign", "8", "--seed", "3", "--out", str(src))
        out_csv.write_text("previous\n")

        def boom(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(fileio.os, "replace", boom)
        code, _, err = run(
            capsys, "scan", str(src), "--vary", "rho", "--grid", "0.2,0.4",
            "--method", "exact", "--out", str(out_csv),
        )
        assert code == EXIT_USAGE and "No space left" in err
        assert out_csv.read_text() == "previous\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.txt", "scan.csv"]

    def test_read_only_target_is_refused_where_open_refuses(self, capsys, tmp_path):
        out = tmp_path / "m.txt"
        out.write_text("previous\n")
        out.chmod(0o444)
        try:  # a superuser may write a read-only file; open() decides, as before
            open(out, "a").close()
            refused = False
        except PermissionError:
            refused = True
        code, _, err = run(capsys, "gen", "sign", "8", "--seed", "3", "--out", str(out))
        if refused:
            assert code == EXIT_USAGE and "Permission denied" in err and str(out) in err
            assert out.read_text() == "previous\n"
        else:
            assert code == EXIT_OK and out.read_text() != "previous\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o444
        assert [f.name for f in tmp_path.iterdir()] == ["m.txt"]


class TestBound:
    def test_paving_size(self, capsys):
        code, out, _ = run(capsys, "bound", "paving-size", "--gamma", "2", "--eps", "0.5")
        assert code == EXIT_OK
        assert float(out.split("=")[1]) == pytest.approx(8e6, rel=1e-9)

    def test_khintchine_exact_one(self, capsys):
        code, out, _ = run(capsys, "bound", "khintchine", "--p", "2")
        assert code == EXIT_OK and "khintchine_exact = 1\n" in out

    def test_pipeline_prints_lambda(self, capsys):
        code, out, _ = run(capsys, "bound", "pipeline", "--n", "1024", "--gamma", "1", "--m", "4")
        assert code == EXIT_OK and "lambda = 0.25\n" in out

    def test_unknown_name_exit_2(self, capsys):
        code, _, _ = run(capsys, "bound", "mystery")
        assert code == EXIT_USAGE

    def test_missing_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "bound", "paving-size", "--gamma", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, line", [
        (("paving-size", "--gamma", "1e-3", "--eps", "0.5"), "paving_size_bound = inf"),
        (("pipeline", "--n", "1024", "--gamma", "1e300", "--m", "16"),
         "log2_n_threshold = 33239694 (artifact surrogate)"),
        (("khintchine", "--p", "1e308"), "khintchine_exact = -"),
    ])
    def test_overflow_prints_inf_or_dash(self, capsys, argv, line):
        code, out, _ = run(capsys, "bound", *argv)
        assert code == EXIT_OK and line in out.splitlines()

    def test_pipeline_gamma_with_zero_lambda_exits_2(self, capsys):
        # gamma / (2 + 2 gamma) rounds to 0 at the smallest subnormal
        code, out, err = run(capsys, "bound", "pipeline", "--n", "1024", "--gamma", "5e-324",
                             "--m", "16")
        assert code == EXIT_USAGE and out == "" and err.startswith("error: gamma too small")

    def test_khintchine_past_float_factorials(self, capsys):
        # (p - 1)!! = p! / (2^(p/2) (p/2)!) exceeds float range from p = 302
        code, out, _ = run(capsys, "bound", "khintchine", "--p", "400")
        assert code == EXIT_OK
        exact = float(out.splitlines()[0].split(" = ")[1])
        log_ratio = sum(math.log(k) for k in range(1, 400, 2))
        assert exact == pytest.approx(math.exp(log_ratio / 400), rel=1e-13)

    def test_khintchine_large_p_in_bounded_time(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pavelab.cli", "bound", "khintchine", "--p", "2e6"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pavelab.__file__))},
        )
        assert proc.returncode == EXIT_OK
        exact = float(proc.stdout.splitlines()[0].split(" = ")[1])
        assert exact == pytest.approx(math.sqrt(2e6 / math.e), rel=1e-6)

    @pytest.mark.parametrize("argv", [
        ("rudelson", "--p", "-1", "--col-norm", "1", "--spec-norm", "1"),
        ("pipeline", "--n", "1024", "--gamma", "1e308", "--m", "16"),
        ("rudelson", "--p", "4", "--col-norm", "-1", "--spec-norm", "1"),
        ("rudelson", "--p", "4", "--col-norm", "1", "--spec-norm", "-1"),
        ("step3", "--mu", "0.1", "--rho", "1.5", "--n", "16"),
    ])
    def test_out_of_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "bound", *argv)
        assert code == EXIT_USAGE and err.startswith("error:") and out == ""


    @pytest.mark.parametrize("argv, code, out, err", [
        (("haagerup", "--q", "3"), EXIT_OK,
         f"haagerup_bound = {cli._fmt(bounds.haagerup_constant(3.0))}\n", ""),
        (("haagerup",), EXIT_USAGE, "", "error: bound haagerup needs --q\n"),
        (("mu", "--n", "100", "--gamma", "1"), EXIT_OK,
         f"mu_bound = {cli._fmt(bounds.mu_bound(100, 1.0))}\n", ""),
        (("mu", "--n", "100"), EXIT_USAGE, "", "error: bound mu needs --gamma\n"),
        (("pipeline", "--n", "1024", "--gamma", "1", "--delta", "0.25", "--m", "4"), EXIT_USAGE,
         "", "error: bound pipeline needs exactly one of --delta or --m\n"),
        (("pipeline", "--n", "1024", "--gamma", "1"), EXIT_USAGE,
         "", "error: bound pipeline needs exactly one of --delta or --m\n"),
    ], ids=["haagerup", "haagerup-no-q", "mu", "mu-no-gamma", "pipeline-both", "pipeline-neither"])
    def test_named_bound_lines(self, capsys, argv, code, out, err):
        assert run(capsys, "bound", *argv) == (code, out, err)


class TestConfig:
    def test_equals_form_runs_as_the_separate_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nmu=0.2\n")
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        joined = run(capsys, f"--config={cfg}", "gen", "bounded", "8", "--out", str(p1))
        apart = run(capsys, "--config", str(cfg), "gen", "bounded", "8", "--out", str(p2))
        assert joined[0] == EXIT_OK
        assert joined == (apart[0], apart[1].replace(str(p2), str(p1)), apart[2])
        assert p1.read_bytes() == p2.read_bytes()
        missing = tmp_path / "missing.cfg"
        assert run(capsys, f"--config={missing}", "bound", "haagerup", "--q", "3")[0] == EXIT_USAGE

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nmu=0.2\n")
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "--config", str(cfg), "gen", "bounded", "8", "--out", str(p1))
        run(capsys, "gen", "bounded", "8", "--mu", "0.2", "--seed", "5", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "--config", str(cfg), "gen", "sign", "8", "--seed", "9", "--out", str(p1))
        run(capsys, "gen", "sign", "8", "--seed", "9", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_defaults_never_reach_a_later_run(self, capsys, tmp_path):
        """Runs without --config share one parser; a config run builds its own."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nmu=0.2\n")
        before, configured, after = (tmp_path / f"{name}.txt" for name in ("b", "c", "a"))
        run(capsys, "gen", "sign", "8", "--out", str(before))
        assert run(capsys, "--config", str(cfg), "gen", "bounded", "8",
                   "--out", str(configured))[0] == EXIT_OK
        assert run(capsys, "gen", "bounded", "8", "--out", str(after))[0] == EXIT_USAGE  # no mu
        run(capsys, "--config", str(cfg), "gen", "sign", "8", "--out", str(configured))
        run(capsys, "gen", "sign", "8", "--out", str(after))
        assert after.read_bytes() == before.read_bytes() != configured.read_bytes()
        assert cli._plain_parser() is cli._plain_parser()

    def test_reused_parser_parses_as_a_fresh_one(self):
        argvs = [
            ["gen", "sign", "8", "--seed", "3", "--out", "a.txt"],
            ["pave", "a.txt", "-m", "2", "--eps", "0.4", "--out", "p.txt"],
            ["verify", "all", "--size", "small", "--seed", "7"],
            ["scan", "a.txt", "--vary", "rho", "--grid", "0.1,0.2", "--p", "6", "--out", "s.csv"],
            ["bound", "pipeline", "--n", "1024", "--gamma", "1", "--m", "16"],
            ["gen", "bounded", "8", "--out", "b.txt"],
        ]
        for argv in argvs + argvs:  # each parse after every other one
            assert cli._plain_parser().parse_args(argv) == cli.build_parser().parse_args(argv)

    def test_binary_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe" + "seed=5\n".encode("utf-16-le"))
        code, out, err = run(capsys, "--config", str(cfg), "bound", "mu",
                             "--n", "16", "--gamma", "1")
        assert code == EXIT_USAGE and f"error: {cfg}: not " in err
        assert out == ""

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--config", str(tmp_path / "nope.cfg"), "bound", "mu",
                         "--n", "16", "--gamma", "1")
        assert code == EXIT_USAGE


def test_usage_error_exit_2(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["gen"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("scan", "@a8", "--vary", "p", "--rate", "0.3", "--grid", "inf"),
    ("scan", "@a8", "--vary", "p", "--rate", "0.3", "--grid", "nan"),
    ("scan", "@a8", "--vary", "rho", "--grid", "0.3", "--p", "inf"),
    ("scan", "@a8", "--vary", "rho", "--grid", "0.3", "--p", "nan"),
    ("bound", "khintchine", "--p", "inf"),
    ("bound", "mu", "--n", "10", "--gamma", "nan"),
    ("--config", "@cfg", "bound", "mu", "--n", "10"),
])
def test_non_finite_numbers_exit_2(capsys, tmp_path, argv):
    src, out_path, cfg = tmp_path / "a8.txt", tmp_path / "out.csv", tmp_path / "nan.cfg"
    assert run(capsys, "gen", "sign", "8", "--out", str(src))[0] == EXIT_OK
    cfg.write_text("gamma=nan\n")
    argv = [{"@a8": str(src), "@cfg": str(cfg)}.get(tok, tok) for tok in argv]
    if argv[0] == "scan":
        argv += ["--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and "error:" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["pave", "IN", "-m", "1", "--trials", "3"],
    ["pave", "IN", "-m", "2", "--trials", "3"],
    ["scan", "IN", "--vary", "rho", "--grid", "0.5", "--method", "exact"],
])
def test_overflowing_norm_exits_2_without_artifact(capsys, tmp_path, argv):
    """A finite matrix whose spectral norm overflows float64 has no quality
    ratio or moment to print: exit 2 before any output."""
    src, out_path = tmp_path / "big.txt", tmp_path / "out.txt"
    src.write_text("3 3\n1e308 -1e308 1e308\n1e308 1e308 -1e308\n-1e308 1e308 1e308\n")
    argv = [str(src) if t == "IN" else t for t in argv]
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_USAGE and out == ""
    assert err == "error: the spectral norm of this 3 x 3 matrix overflows float64\n"
    assert not out_path.exists()


def test_artifacts_identical_across_blas_thread_counts(tmp_path):
    """CLI runs as child processes give bytewise-equal artifacts with one BLAS
    thread and with the inherited thread setting."""
    runs = [
        ("gen", "sign", "64", "--seed", "3", "--out", "a64.txt"),
        ("pave", "a64.txt", "-m", "4", "--trials", "50", "--seed", "1", "--out", "pave.txt"),
        ("gen", "sign", "12", "--seed", "4", "--out", "a12.txt"),
        ("scan", "a12.txt", "--vary", "rho", "--grid", "0.1,0.3,0.5", "--p", "6",
         "--method", "exact", "--out", "exact.csv"),
        ("scan", "a64.txt", "--vary", "rho", "--grid", "0.1,0.3", "--p", "12",
         "--trials", "50", "--method", "mc", "--out", "mc.csv"),
    ]
    src = os.path.dirname(os.path.dirname(pavelab.__file__))
    inherited = dict(os.environ)
    inherited["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in inherited.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    single = dict(inherited, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    results = []
    for label, env in (("single", single), ("inherited", inherited)):
        work = tmp_path / label
        work.mkdir()
        stdout = b""
        for argv in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "pavelab.cli", *argv],
                cwd=work, env=env, capture_output=True, check=True,
            )
            stdout += proc.stdout
        results.append((stdout, {f.name: f.read_bytes() for f in sorted(work.iterdir())}))
    assert results[0][1].keys() == {"a64.txt", "pave.txt", "a12.txt", "exact.csv", "mc.csv"}
    assert results[0] == results[1]


def test_decoupling_verify_identical_across_blas_thread_counts():
    """`verify DECOUPLING` (exact pair moments) run as child processes prints
    bytewise-equal reports with one BLAS thread and the inherited setting."""
    src = os.path.dirname(os.path.dirname(pavelab.__file__))
    inherited = dict(os.environ)
    inherited["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in inherited.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    single = dict(inherited, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    outs = [
        subprocess.run(
            [sys.executable, "-m", "pavelab.cli", "verify", "DECOUPLING", "--size", "tiny"],
            env=env, capture_output=True, check=True,
        ).stdout
        for env in (single, inherited)
    ]
    assert b"suite=DECOUPLING" in outs[0]
    assert outs[0] == outs[1]


def _single_and_inherited_envs() -> tuple[dict, dict]:
    src = os.path.dirname(os.path.dirname(pavelab.__file__))
    inherited = dict(os.environ)
    inherited["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in inherited.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return dict(inherited, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"), inherited


def test_gram_and_svd_blocks_identical_across_blas_thread_counts(tmp_path):
    """Paving blocks at the Gram kernel's limit (64 x 64) and just past it
    (65 x 65, SVD), and a Monte Carlo scan whose draws straddle it, give
    bytewise-equal artifacts with one BLAS thread and the inherited setting."""
    runs = [
        ("gen", "sign", "128", "--seed", "5", "--out", "a128.txt"),
        ("pave", "a128.txt", "-m", "2", "--trials", "20", "--seed", "2", "--out", "pave64.txt"),
        ("gen", "sign", "130", "--seed", "6", "--out", "a130.txt"),
        ("pave", "a130.txt", "-m", "2", "--trials", "20", "--seed", "2", "--out", "pave65.txt"),
        ("scan", "a128.txt", "--vary", "rho", "--grid", "0.5", "--p", "12",
         "--trials", "40", "--method", "mc", "--out", "mc.csv"),
    ]
    results = []
    for label, env in zip(("single", "inherited"), _single_and_inherited_envs()):
        work = tmp_path / label
        work.mkdir()
        stdout = b""
        for argv in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "pavelab.cli", *argv],
                cwd=work, env=env, capture_output=True, check=True,
            )
            stdout += proc.stdout
        results.append((stdout, {f.name: f.read_bytes() for f in sorted(work.iterdir())}))
    assert b"spectral_norm=" in results[0][0]
    assert results[0][1].keys() == {"a128.txt", "pave64.txt", "a130.txt", "pave65.txt", "mc.csv"}
    assert results[0] == results[1]
