#!/usr/bin/env python3
"""Sweep the selection rate on a unit-norm sign ensemble and compare the
measured restricted-norm moment against the closed-form bounds.

Writes its input matrix to sweep_matrix.txt in the working directory, and
the scan to sweep.csv there unless --out names another path.
"""
import argparse
import pathlib
import sys

from pavelab.cli import main as pavelab_main


def run():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--p", type=int, default=6)
    ap.add_argument("--seed", default="17")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    out_dir = pathlib.Path.cwd()
    out_csv = args.out or str(out_dir / "sweep.csv")
    matrix = str(out_dir / "sweep_matrix.txt")

    rc = pavelab_main(
        ["gen", "sign", str(args.n), "--seed", args.seed, "--out", matrix]
    )
    if rc:
        return rc
    grid = ",".join(f"{0.05 * i:.2f}" for i in range(1, 10))
    return pavelab_main(
        [
            "scan", matrix, "--vary", "rho", "--grid", grid,
            "--p", str(args.p), "--seed", args.seed, "--out", out_csv,
        ]
    )


if __name__ == "__main__":
    sys.exit(run())
