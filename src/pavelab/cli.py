"""Command-line surface: gen, pave, verify, scan, bound.

Every run is fully determined by its arguments (plus an optional key=value
config file whose entries act as flag defaults), so repeated runs produce
bitwise-identical artifacts.  Exit codes: 0 success / all inequalities hold,
1 verification failure, 2 usage or parse error, 3 capacity exceeded (a
capacity cap, or memory the run cannot allocate).
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

from . import bounds, fileio, forks, suites
from .errors import CapacityError, FormatError, ParameterError, PavelabError, PreconditionError
from .inequalities import CASE_IDS, format_report, verify_inequality
from .matrices import (
    UNIT_NORM_TOL,
    DenseMatrix,
    Partition,
    gram_kernel,
    max_abs_entry,
    paving_quality,
    spectral_norm,
)
from .moments import EXACT_BERNOULLI_MAX_N, moment
from .paving import pad_to_multiple, random_pave, random_pave_share
from .polynomials import (
    check_markov,
    check_polynomial_sandwich,
    chebyshev_coefficients,
    extrapolation_hypotheses,
)
from .sampling import ENSEMBLE_KINDS, Bernoulli, gen_ensemble, parse_seed

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_ENSEMBLE_ALIASES = {
    **{kind: kind for kind in ENSEMBLE_KINDS},
    "sign": "sign_normalized",
    "bounded": "bounded_random",
    "diagonal_free": "diagonal_free_random",
}

SCAN_HEADER = "param,value,p,estimate,stderr,trials,seed,step3_bound,extrap_bound"


def finite(text: str) -> float:
    """argparse type of every float flag: rejects nan and +-inf (exit 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _flag(ok: bool) -> str:
    return "yes" if ok else "no"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    kind = _ENSEMBLE_ALIASES.get(args.kind)
    if kind is None:
        raise ParameterError(f"unknown ensemble kind {args.kind!r}")
    seed = parse_seed(args.seed)
    if args.gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {args.gamma}")
    bound = bounds.mu_bound(args.n, args.gamma) if args.n >= 3 else math.nan
    # opened before the draw; this process writes while a forked child norms,
    # and the target is replaced only once both have succeeded
    with fileio.replacing(args.out) as out:
        a = gen_ensemble(kind, args.n, seed, mu=args.mu, index=args.index)
        write = functools.partial(fileio.write_matrix, a, out)
        outcomes, error = forks.split([write, functools.partial(spectral_norm, a)], "gen")
        if error is not None:
            raise error
    norm = outcomes[1]
    entry = max_abs_entry(a)
    unit = abs(norm - 1.0) <= UNIT_NORM_TOL
    entry_ok = entry <= bound if math.isfinite(bound) else False
    print(f"wrote {args.out}")
    print(f"n={args.n}")
    print(f"spectral_norm={_fmt(norm)}")
    print(f"max_abs_entry={_fmt(entry)}")
    print(f"entry_bound={_fmt(bound)} gamma={_fmt(args.gamma)}")
    print(
        f"unit_norm={_flag(unit)} entry_bound_ok={_flag(entry_ok)} "
        f"hypotheses_hold={_flag(unit and entry_ok)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# pave
# ---------------------------------------------------------------------------

def _restrict_partition(part: Partition, n: int) -> Partition:
    blocks = []
    for b in part.blocks:
        kept = [i for i in b.indices if i < n]
        if kept:
            blocks.append(kept)
    return Partition.from_blocks(n, blocks)


# A paving search of at least this many blocks (trials times m) splits its
# trials over processes; at 256 blocks of 8 x 8 the split and one process
# take about the same time.
_PAVE_SPLIT_MIN_BLOCKS = 256


def _pave(a: DenseMatrix, m: int, trials: int, seed):
    """random_pave(a, m, trials, seed), with trial t scored by process
    t mod N (N = `forks.processes(trials)`) through `forks.split`, when the
    search holds at least `_PAVE_SPLIT_MIN_BLOCKS` blocks of the Gram kernel
    and N > 1; else one process runs the search once.  The least (quality,
    trial index) over the shares is the serial first minimum.  SVD blocks
    (k > 64) stay in one process: forked beside inherited BLAS threads they
    would oversubscribe the CPUs."""
    k = a.n_rows // m
    procs = forks.processes(trials)
    if procs == 1 or trials * m < _PAVE_SPLIT_MIN_BLOCKS or not gram_kernel(k, k, m == 1):
        return random_pave(a, m, trials, seed)
    shares = [functools.partial(random_pave_share, a, m, trials, seed, j, procs)
              for j in range(procs)]
    results, error = forks.split(shares, "pave")
    if error is not None:
        raise error
    return min(results, key=lambda res: (res.quality, res.best_trial_index))


def _cmd_pave(args) -> int:
    if args.m <= 0:
        raise ParameterError(f"m must be positive, got {args.m}")
    if args.trials < 1:
        raise ParameterError(f"need at least one trial, got {args.trials}")
    if args.eps is not None and args.eps <= 0:
        raise ParameterError(f"eps must be positive, got {args.eps}")
    seed = parse_seed(args.seed)
    with fileio.replacing(args.out) as out:  # before the read
        a = fileio.read_matrix(args.input)
        if not a.is_square:
            raise ParameterError("paving needs a square matrix")
        norm = spectral_norm(a)  # first: an overflowing norm exits before any output
        n = a.n_rows
        padded = pad_to_multiple(a, args.m)
        if padded.n_rows != n:
            print(f"warning: padded {n} -> {padded.n_rows} so that m={args.m} divides n")
        result = _pave(padded, args.m, args.trials, seed)
        part = _restrict_partition(result.partition, n)
        quality = paving_quality(a, part)
        print(f"n={n} m={args.m} trials={args.trials} seed={seed.master}")
        print(f"spectral_norm={_fmt(norm)}")
        print(f"quality={_fmt(quality)}")
        print(f"quality_padded={_fmt(result.quality)}")
        print(f"quality_ratio={_fmt(quality / norm if norm > 0 else 0.0)}")
        print(f"best_trial={result.best_trial_index}")
        if args.eps is not None:
            t3, t6 = 3.0 * args.eps, 6.0 * args.eps
            print(
                f"eps={_fmt(args.eps)} threshold_3eps={_fmt(t3)} "
                f"holds_3eps={_flag(quality <= t3)} threshold_6eps={_fmt(t6)} "
                f"holds_6eps={_flag(quality <= t6)}"
            )
        fileio.write_partition(part, out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _case_items(case_id: str, size: str, master: int | None):
    """(instance label, check) per suite instance of one case; check() gives
    (report line, holds)."""
    if size == "smoke":
        pool = [(0, suites.smoke_instance(case_id))]
    else:
        pool = suites.suite_instances(case_id, suites.SIZE_COUNTS[size], master)
    return [(label, functools.partial(_case_check, case_id, inst)) for label, inst in pool]


def _case_check(case_id: str, inst):
    rep = verify_inequality(case_id, inst, method="exact")
    return format_report(rep), rep.holds


def _markov_check(d: int):
    rep = check_markov(chebyshev_coefficients(d), d)
    return f"case=MARKOV degree={d} max={'%.12g' % rep.max_abs} holds={_flag(rep.holds)}", rep.holds


def _sandwich_items(size: str, master: int | None):
    if size == "smoke":
        pool = [(0, DenseMatrix.zeros(4), 4)]
    else:
        pool = suites.sandwich_instances(suites.SIZE_COUNTS[size], master)
    return [(label, functools.partial(_sandwich_check, x, p)) for label, x, p in pool]


def _sandwich_check(x: DenseMatrix, p: int):
    rep = check_polynomial_sandwich(x, p, [0.1 * i for i in range(1, 10)])
    line = (
        f"case=SANDWICH n={x.n_rows} p={p} holds={_flag(rep.holds)} "
        f"monotone={_flag(rep.monotone)}"
    )
    return line, rep.holds and rep.monotone


def _cmd_verify(args) -> int:
    known = list(CASE_IDS) + ["MARKOV", "SANDWICH"]
    if args.suite == "all":
        chosen = known
    elif args.suite in known:
        chosen = [args.suite]
    else:
        raise ParameterError(f"unknown suite {args.suite!r}; pick from all, {', '.join(known)}")
    master = None if args.seed is None else parse_seed(args.seed).master
    cases = []
    for case_id in chosen:
        if case_id == "MARKOV":
            items = [(d, functools.partial(_markov_check, d)) for d in range(0, 11)]
        elif case_id == "SANDWICH":
            items = _sandwich_items(args.size, master)
        else:
            items = _case_items(case_id, args.size, master)
        cases.append((case_id, items))
    outcomes, error = forks.split([check for _, items in cases for _, check in items], "verify")
    outcomes = iter(outcomes)
    all_failures = []
    for case_id, items in cases:
        passed = 0
        for label, _ in items:
            outcome = next(outcomes, None)
            if outcome is None:
                raise error
            line, ok = outcome
            print(line)
            if ok:
                passed += 1
            else:
                all_failures.append((case_id, label))
        print(f"suite={case_id} passed={passed}/{len(items)}")
    print(f"all_hold={_flag(not all_failures)}")
    for case_id, label in all_failures:
        print(f"violation case={case_id} instance_seed={label}")
    return EXIT_OK if not all_failures else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> list[float]:
    try:
        grid = [finite(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad grid {text!r}") from exc
    if not grid:
        raise ParameterError("grid must be nonempty")
    return grid


def _order_past_cap(path: str) -> int | None:
    """n for the matrix file at `path` when its header is that of a square
    n x n matrix past the exact cap, else None (the read then decides)."""
    head = fileio.read_header(path)
    return head[0] if head is not None and head[0] == head[1] > EXACT_BERNOULLI_MAX_N else None


def _cmd_scan(args) -> int:
    if args.gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {args.gamma}")
    seed = parse_seed(args.seed)
    grid = _parse_grid(args.grid)
    for value in grid:
        if args.vary in ("rho", "delta"):
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"rate grid value {value} outside [0, 1]")
        else:
            if value != int(value) or value <= 0:
                raise ParameterError(f"p grid value {value} must be a positive integer")
            if args.rate is None:
                raise ParameterError("--rate is required when varying p")
    # the checks `moment` makes, before the read and the whole-matrix SVD;
    # auto picks Monte Carlo for a square header past the exact cap
    if args.vary in ("rho", "delta") and args.p <= 0:
        raise ParameterError(f"p must be positive, got {args.p}")
    if args.vary == "p" and not 0.0 <= args.rate <= 1.0:
        raise ParameterError(f"rate must be in [0, 1], got {args.rate}")
    past_cap = _order_past_cap(args.input)
    if args.trials < 2 and (args.method == "mc" or args.method == "auto" and past_cap):
        raise ParameterError(f"need trials >= 2, got {args.trials}")
    if args.method == "exact" and past_cap:
        raise CapacityError(f"exact Bernoulli enumeration needs 2^{past_cap} patterns")
    with fileio.replacing(args.out) as out:
        a = fileio.read_matrix(args.input)
        if not a.is_square:
            raise ParameterError("scan needs a square matrix")
        n = a.n_rows
        method = args.method
        if method == "auto":
            method = "exact" if n <= EXACT_BERNOULLI_MAX_N else "mc"
        mu, norm = max_abs_entry(a), spectral_norm(a)
        rho_ref = bounds.reference_rate(n, args.gamma) if n >= 3 else math.nan
        lam = bounds.extrapolation_exponent(args.gamma)
        out.write(SCAN_HEADER + "\n")
        for i, value in enumerate(grid):
            rate, p = (value, args.p) if args.vary in ("rho", "delta") else (args.rate, value)
            est = moment(a, Bernoulli(n, rate), p, method, args.trials, seed, 2 * i)
            try:
                s3 = bounds.step3_bound(mu, rate, n)
            except ParameterError:
                s3 = math.nan
            try:
                _, constant = extrapolation_hypotheses(a, norm, rate, rho_ref, lam, p)
            except PreconditionError:
                extrap = math.nan
            else:
                ref = moment(a, Bernoulli(n, rho_ref), p, method, args.trials, seed, 2 * i + 1)
                extrap = bounds.extrapolation_bound(constant, rate, rho_ref, lam, ref.value)
            out.write(
                f"{args.vary},{_fmt(value)},{'%.12g' % p},{_fmt(est.value)},"
                f"{_fmt(est.stderr)},{est.trials},{seed.master},{_fmt(s3)},{_fmt(extrap)}\n"
            )
    print(f"wrote {args.out} ({len(grid)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _require_opts(args, names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ParameterError(f"bound {args.name} needs --{', --'.join(missing)}")


def _cmd_bound(args) -> int:
    name = args.name
    if name == "paving-size":
        _require_opts(args, ["gamma", "eps"])
        print(f"paving_size_bound = {_fmt(bounds.paving_size_bound(args.gamma, args.eps))}")
    elif name == "step3":
        _require_opts(args, ["mu", "rho", "n"])
        print(f"step3_bound = {_fmt(bounds.step3_bound(args.mu, args.rho, args.n))}")
    elif name == "khintchine":
        _require_opts(args, ["p"])
        exact, bound = bounds.khintchine_constant(args.p)
        print(f"khintchine_exact = {'-' if exact is None else _fmt(exact)}")
        print(f"khintchine_bound = {_fmt(bound)}")
    elif name == "haagerup":
        _require_opts(args, ["q"])
        print(f"haagerup_bound = {_fmt(bounds.haagerup_constant(args.q))}")
    elif name == "rudelson":
        _require_opts(args, ["p", "col_norm", "spec_norm"])
        print(
            f"rudelson_bound = "
            f"{_fmt(bounds.rudelson_bound(args.p, args.col_norm, args.spec_norm))}"
        )
    elif name == "mu":
        _require_opts(args, ["n", "gamma"])
        print(f"mu_bound = {_fmt(bounds.mu_bound(args.n, args.gamma))}")
    elif name == "pipeline":
        _require_opts(args, ["n", "gamma"])
        if (args.delta is None) == (args.m is None):
            raise ParameterError("bound pipeline needs exactly one of --delta or --m")
        report = bounds.theorem_pipeline(args.n, args.gamma, delta=args.delta, m=args.m)
        for line in report.as_lines():
            print(line)
    else:
        raise ParameterError(f"unknown bound {name!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that records the dest of every argument it adds, so
    config defaults go only to the subcommands that take them."""

    def __init__(self, *args, **kwargs):
        self.dests: set[str] = set()  # before the base class adds -h
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        return action


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; `defaults` (from a config file) act as flag defaults."""
    parser = _Parser(
        prog="pavelab",
        description="matrix paving laboratory: ensembles, pavings, moments, bounds",
    )
    parser.add_argument("--config", help="key=value defaults file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a named test-matrix ensemble")
    p_gen.add_argument("kind", help="|".join(sorted(set(_ENSEMBLE_ALIASES))))
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--mu", type=finite, default=None)
    p_gen.add_argument("--gamma", type=finite, default=1.0)
    p_gen.add_argument("--seed", default="0")
    p_gen.add_argument("--index", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_pave = sub.add_parser("pave", help="randomized paving search on a matrix file")
    p_pave.add_argument("input")
    p_pave.add_argument("-m", type=int, required=True)
    p_pave.add_argument("--trials", type=int, default=1000)
    p_pave.add_argument("--seed", default="0")
    p_pave.add_argument("--eps", type=finite, default=None,
                        help="moment target; checks 3*eps and 6*eps thresholds")
    p_pave.add_argument("--out", required=True)
    p_pave.set_defaults(func=_cmd_pave)

    p_verify = sub.add_parser("verify", help="run inequality suites")
    p_verify.add_argument("suite")
    p_verify.add_argument("--size", choices=sorted(suites.SIZE_COUNTS), default="tiny")
    p_verify.add_argument("--seed", default=None, help="override manifest master seed")
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="moment estimates over a parameter grid")
    p_scan.add_argument("input")
    p_scan.add_argument("--vary", choices=["rho", "delta", "p"], required=True)
    p_scan.add_argument("--grid", required=True, help="comma-separated values")
    p_scan.add_argument("--p", type=finite, default=4)
    p_scan.add_argument("--rate", type=finite, default=None)
    p_scan.add_argument("--gamma", type=finite, default=1.0)
    p_scan.add_argument("--trials", type=int, default=10000)
    p_scan.add_argument("--seed", default="0")
    p_scan.add_argument("--method", choices=["auto", "exact", "mc"], default="auto")
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=_cmd_scan)

    p_bound = sub.add_parser("bound", help="closed-form constants and chains")
    p_bound.add_argument(
        "name",
        help="paving-size|step3|khintchine|haagerup|rudelson|mu|pipeline",
    )
    for flag in ("gamma", "eps", "mu", "rho", "p", "q", "col-norm", "spec-norm", "delta"):
        p_bound.add_argument(f"--{flag}", type=finite, default=None)
    p_bound.add_argument("--n", type=int, default=None)
    p_bound.add_argument("--m", type=int, default=None)
    p_bound.set_defaults(func=_cmd_bound)

    if defaults:
        parser.set_defaults(**defaults)
        for command in (p_gen, p_pave, p_verify, p_scan, p_bound):
            # string defaults go through each flag's type, as if typed
            command.set_defaults(
                **{k: str(v) for k, v in defaults.items() if k in command.dests}
            )
    return parser


@functools.cache
def _plain_parser() -> argparse.ArgumentParser:
    """The parser without config defaults, built once: parsing leaves a
    parser unchanged, and building one takes about 2 ms."""
    return build_parser()


def _preparse_config(argv: list[str]) -> dict:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return fileio.read_config(argv[i + 1])
        if tok.startswith("--config="):
            return fileio.read_config(tok.split("=", 1)[1])
    return {}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        defaults = _preparse_config(argv)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = (build_parser(defaults) if defaults else _plain_parser()).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:  # a request no capacity cap bounds, e.g. --trials
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except PavelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc} (run {args.command})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
