import errno
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import pavelab

from pavelab import DenseMatrix, Seed, exact_moment, exhaustive_pave, mc_moment, spectral_norm
from pavelab import bounds, cli, fileio, moments
from pavelab.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, SCAN_HEADER, main
from pavelab.fileio import read_matrix, write_matrix
from pavelab.sampling import Bernoulli, gen_ensemble

from . import oracles


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

    def test_negative_index_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, out, err = run(capsys, "gen", "sign", "8", "--index", "-1", "--out", str(path))
        assert code == EXIT_USAGE and err.startswith("error: stream index")
        assert out == "" and not path.exists()


class TestPave:
    def test_single_block_quality_is_norm(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        a = gen_ensemble("bounded_random", 6, Seed(4), mu=0.4)
        write_matrix(a, src)
        code, out, _ = run(
            capsys, "pave", str(src), "-m", "1", "--trials", "3", "--seed", "1",
            "--out", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_OK
        lines = dict(l.split("=", 1) for l in out.splitlines() if "=" in l and " " not in l.split("=")[0])
        assert float(lines["quality"]) == float(lines["spectral_norm"])

    def test_hollow_singletons(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        write_matrix(gen_ensemble("diagonal_free_random", 5, Seed(2)), src)
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
        write_matrix(a, src)
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
        write_matrix(gen_ensemble("bounded_random", 5, Seed(9), mu=0.3), src)
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
        write_matrix(gen_ensemble("sign_normalized", 6, Seed(1)), src)
        out_path = tmp_path / "p.txt"
        code, out, err = run(capsys, "pave", str(src), *flags, "--out", str(out_path))
        assert code == EXIT_USAGE and "error" in err
        assert out == ""
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
    write_matrix(DenseMatrix(np.full(shape, 0.5)), src)
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


class TestScan:
    def test_rate_one_estimate_is_spectral_norm(self, capsys, tmp_path):
        src, out_csv = tmp_path / "m.txt", tmp_path / "scan.csv"
        a = gen_ensemble("bounded_random", 6, Seed(5), mu=0.4)
        write_matrix(a, src)
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
        write_matrix(a, src)
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
        write_matrix(gen_ensemble("bounded_random", 6, Seed(5), mu=0.4), src)
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
        write_matrix(gen_ensemble("bounded_random", 16, Seed(5), mu=0.2), src)
        code, _, _ = run(
            capsys, "scan", str(src), "--vary", "rho", "--grid", "0.5",
            "--method", "exact", "--seed", "2", "--out", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_CAPACITY

    @pytest.mark.parametrize("gamma", ["0", "-1"])
    def test_nonpositive_gamma_exits_2_before_reading_or_writing(self, capsys, tmp_path, gamma):
        out_csv = tmp_path / "s.csv"
        for src in (tmp_path / "missing.txt", tmp_path / "m.txt"):
            if src.name == "m.txt":
                write_matrix(gen_ensemble("sign_normalized", 8, Seed(5)), src)
            code, out, err = run(
                capsys, "scan", str(src), "--vary", "rho", "--grid", "0.2,0.4",
                "--p", "6", "--gamma", gamma, "--out", str(out_csv),
            )
            assert code == EXIT_USAGE
            assert err.startswith("error: gamma must be positive")
            assert out == "" and not out_csv.exists()


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
        write_matrix(a, src)
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
        write_matrix(_SIGN5, src)
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
    ])
    def test_out_of_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "bound", *argv)
        assert code == EXIT_USAGE and err.startswith("error:") and out == ""


class TestConfig:
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
