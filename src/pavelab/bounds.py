"""Closed-form constants and bound chains (natural logarithms throughout)."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ParameterError


def paving_size_bound(gamma: float, eps: float) -> float:
    """Number of blocks sufficient for an eps-paving: (0.01 eps)^(-2(1+gamma)/gamma)."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    try:
        return (0.01 * eps) ** (-2.0 * (1.0 + gamma) / gamma)
    except (OverflowError, ZeroDivisionError):  # past float range (or 0.01 eps underflowed)
        return math.inf


def mu_bound(n: int, gamma: float) -> float:
    """Entry bound (log n)^(-(1+gamma)) under which constant-size paving works."""
    if n <= 2:
        raise ParameterError(f"need n >= 3 so that log n > 1, got {n}")
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    return math.log(n) ** (-(1.0 + gamma))


def step3_bound(mu: float, rho: float, n: int) -> float:
    """Closed-form moment bound 550 mu log n + 250 sqrt(rho log n)."""
    if n < 8:
        raise ParameterError(f"bound is stated for n >= 8, got {n}")
    if mu < 0 or rho < 0:
        raise ParameterError("mu and rho must be nonnegative")
    if rho > 1:
        raise ParameterError(f"rho is a rate in [0, 1], got {rho}")
    ln = math.log(n)
    return 550.0 * mu * ln + 250.0 * math.sqrt(rho * ln)


def khintchine_constant(p: float) -> tuple[float | None, float]:
    """(exact constant for even p, upper bound) for matrix Rademacher sums.

    Even p: ((p)! / (2^(p/2) (p/2)!))^(1/p), evaluated from exact integer
    factorials while that ratio is a finite float (p <= 300) and from `lgamma`
    past it; None past lgamma's range (p above about 2.5e305).  The bound
    2^(-1/4) sqrt(pi/e) sqrt(p) covers every p >= 2.
    """
    if p < 2:
        raise ParameterError(f"need p >= 2, got {p}")
    bound = 2.0 ** (-0.25) * math.sqrt(math.pi / math.e) * math.sqrt(p)
    exact = None
    if p == int(p) and int(p) % 2 == 0:
        half = int(p) // 2
        try:
            log_ratio = math.lgamma(p + 1.0) - math.lgamma(half + 1.0) - half * math.log(2.0)
        except OverflowError:
            return None, bound
        if log_ratio < math.log(sys.float_info.max):
            ratio = math.factorial(int(p)) // (2 ** half * math.factorial(half))
            exact = float(ratio) ** (1.0 / p)
        else:
            exact = math.exp(log_ratio / p)
        if exact > bound:
            raise ParameterError(
                f"factorial constant {exact} exceeds its bound {bound} at p={p}"
            )
    return exact, bound


def haagerup_constant(q: float) -> float:
    """Upper bound 2^(1/4) e^(-1/2) sqrt(q) on the scalar Khintchine constant."""
    if q < 2:
        raise ParameterError(f"need q >= 2, got {q}")
    return 2.0 ** 0.25 * math.exp(-0.5) * math.sqrt(q)


def rudelson_bound(p: float, col_norm: float, spec_norm: float) -> float:
    """1.5 sqrt(p) ||X||_{1,2} ||X|| for Rademacher column outer-product sums."""
    if p < 0:
        raise ParameterError(f"need p >= 0, got {p}")
    if col_norm < 0 or spec_norm < 0:
        raise ParameterError("col_norm and spec_norm must be nonnegative")
    return 1.5 * math.sqrt(p) * col_norm * spec_norm


def delta_sufficient(gamma: float, eps: float) -> float:
    """Largest selection rate (0.01 eps)^(2(1+gamma)/gamma) achieving eps."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    return (0.01 * eps) ** (2.0 * (1.0 + gamma) / gamma)


def extrapolation_exponent(gamma: float) -> float:
    """lambda = gamma / (2 + 2 gamma), the rate exponent of the extrapolation."""
    return gamma / (2.0 + 2.0 * gamma)


def reference_rate(n: int, gamma: float) -> float:
    """rho = (log n)^(-1-2 gamma), the small rate the extrapolation starts from."""
    return math.log(n) ** (-1.0 - 2.0 * gamma)


def extrapolation_constant(symmetric: bool) -> float:
    """C of the extrapolation bound: 60, halved for symmetric inputs."""
    return 30.0 if symmetric else 60.0


def extrapolation_bound(
    constant: float, delta: float, rho: float, lam: float, ref_moment: float
) -> float:
    """Rate-delta moment bound C [delta^lam + rho^(-lam) ref_moment]."""
    return constant * (delta ** lam + rho ** (-lam) * ref_moment)


@dataclass(frozen=True)
class ChainReport:
    """Every intermediate quantity of the extrapolation bound chain."""

    n: int
    gamma: float
    delta: float
    m: int | None
    p: int
    mu: float
    rho: float
    rho_moment_bound: float   # 800 (log n)^(-gamma)
    lam: float                # gamma / (2 + 2 gamma)
    log_exponent: float       # lam (1 + 2 gamma) - gamma = -lam
    extrap_bound: float       # 60 delta^lam + 48000 (log n)^log_exponent
    final_bound: float        # 100 delta^(gamma / (2 + 2 gamma))
    eps_achieved: float
    log2_n_threshold: float   # artifact surrogate: smallest dyadic n where the
                              # log term stops dominating; inf if out of float range

    def as_lines(self) -> list[str]:
        def fmt(v):
            return "%.17g" % v

        lines = [
            f"n = {self.n}",
            f"gamma = {fmt(self.gamma)}",
            f"delta = {fmt(self.delta)}",
        ]
        if self.m is not None:
            lines.append(f"m = {self.m}")
        lines += [
            f"p = {self.p}",
            f"mu = {fmt(self.mu)}",
            f"rho = {fmt(self.rho)}",
            f"rho_moment_bound = {fmt(self.rho_moment_bound)}",
            f"lambda = {fmt(self.lam)}",
            f"log_exponent = {fmt(self.log_exponent)}",
            f"extrap_bound = {fmt(self.extrap_bound)}",
            f"final_bound = {fmt(self.final_bound)}",
            f"eps_achieved = {fmt(self.eps_achieved)}",
            f"log2_n_threshold = {fmt(self.log2_n_threshold)} (artifact surrogate)",
        ]
        return lines


def theorem_pipeline(
    n: int, gamma: float, *, delta: float | None = None, m: int | None = None
) -> ChainReport:
    """Evaluate the whole bound chain at (n, gamma) for a rate delta (or 1/m)."""
    if n < 8:
        raise ParameterError(f"chain is stated for n >= 8, got {n}")
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if math.isinf(2.0 + 2.0 * gamma):
        raise ParameterError(f"gamma too large: 2 + 2 gamma overflows at {gamma}")
    if (delta is None) == (m is None):
        raise ParameterError("give exactly one of delta or m")
    if m is not None:
        if m < 2:
            raise ParameterError("m must be at least 2 so that delta = 1/m < 1")
        delta = 1.0 / m
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    ln = math.log(n)
    mu = mu_bound(n, gamma)
    rho = reference_rate(n, gamma)
    p = 2 * math.ceil(ln)
    lam = extrapolation_exponent(gamma)
    if lam == 0.0:
        raise ParameterError(f"gamma too small: lambda = gamma / (2 + 2 gamma) is 0 at {gamma}")
    log_exponent = -lam
    rho_moment_bound = 800.0 * ln ** (-gamma)
    extrap_bound = extrapolation_constant(False) * delta ** lam + 48000.0 * ln ** log_exponent
    final_bound = 100.0 * delta ** lam
    # smallest dyadic n at which 48000 (log n)^log_exponent <= 40 delta^lam,
    # i.e. where extrap_bound <= final_bound; reported as log2(n*).  Computed
    # in log space; inf when n* escapes float range (tiny gamma).
    ln_log_n_star = math.log(1200.0 / delta ** lam) / lam
    if ln_log_n_star > 700.0:
        log2_n_threshold = math.inf
    else:
        log2_n_threshold = float(math.ceil(math.exp(ln_log_n_star) / math.log(2.0)))
    return ChainReport(
        n=n,
        gamma=gamma,
        delta=delta,
        m=m,
        p=p,
        mu=mu,
        rho=rho,
        rho_moment_bound=rho_moment_bound,
        lam=lam,
        log_exponent=log_exponent,
        extrap_bound=extrap_bound,
        final_bound=final_bound,
        eps_achieved=final_bound,
        log2_n_threshold=float(log2_n_threshold),
    )
