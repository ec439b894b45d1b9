"""Test-only helpers built on pavelab: the acceptance suites' oracle and
hollow draws, the matrix writer's text, a writer run on a path, the
partition parser, and exact trace and norm moments of R_s X R_s by pattern
enumeration.  No package
code calls them, so they live beside the tests that do."""
from __future__ import annotations

import numpy as np

from pavelab import Bernoulli, DenseMatrix, FormatError, Partition, fileio
from pavelab.moments import bernoulli_weights, exact_pattern_values
from pavelab.polynomials import subset_traces
from pavelab.suites import _rand_matrix, _seeded


def _oracle_draw(rng):
    n = int(rng.integers(4, 11))
    a = _rand_matrix(rng, n)
    return a, int(rng.integers(1, n)), float(rng.uniform(0.2, 0.8))


def oracle_instances(count: int, master: int | None = None):
    """(index, matrix, k, rate) for the mc-vs-exact oracle comparisons."""
    return _seeded("ORACLE", count, master, _oracle_draw)


def hollow_instances(count: int, n: int, master: int) -> list[tuple[int, DenseMatrix]]:
    return _seeded("hollow", count, master, lambda rng: (_rand_matrix(rng, n, hollow=True),))


def matrix_to_text(a: DenseMatrix) -> str:
    """The text `fileio.write_matrix` writes for `a`."""
    return "".join(fileio._matrix_lines(a))


def write_path(writer, obj, path) -> None:
    """`writer(obj, out)` into `fileio.replacing(path)`, as a command writes
    its `--out`: `fileio.write_matrix` or `fileio.write_partition` on a path."""
    with fileio.replacing(path) as out:
        writer(obj, out)


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


def restricted_trace_moment(x: DenseMatrix, p: int, s: float) -> float:
    """Exact E trace (R_s X R_s)^p by pattern enumeration."""
    bits, traces = subset_traces(x, p)
    return float(np.sum(bernoulli_weights(bits, s) * traces))


def restricted_norm_moment_pth(x: DenseMatrix, p: int, s: float) -> float:
    """Exact F(s) = E ||R_s X R_s||^p (the p-th power, not its root)."""
    norms, weights = exact_pattern_values(x, Bernoulli(x.n_rows, s))
    return float(np.sum(weights * norms ** p))
