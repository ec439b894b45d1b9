#!/usr/bin/env python3
"""Run every inequality suite at the chosen size and exit nonzero on any
violation (thin wrapper over `pavelab verify all`)."""
import argparse
import sys

from pavelab.cli import main as pavelab_main
from pavelab.suites import SIZE_COUNTS

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=sorted(SIZE_COUNTS), default="small")
    args = ap.parse_args()
    sys.exit(pavelab_main(["verify", "all", "--size", args.size]))
