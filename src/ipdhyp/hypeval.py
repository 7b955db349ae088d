"""Independent series oracle: direct evaluation of pFq and prefactors.

Everything downstream is checked against this module, so it deliberately
shares no code with the transformation engine: a pFq value is a truncated
partial sum with term-ratio recursion, full stop.

Three regimes:

* terminating series (a nonpositive-integer top parameter): summed exactly
  to the terminal index, any argument.
* |x| < 1 (or p <= q): geometric regime; the running tail estimate
  |t_{n+1}| / (1 - qhat) with a safety factor drives the stopping rule.
  On |x| = 1 away from x = 1 that estimate never falls below its
  tolerance, so such a p = q+1 series is refused at once with
  SlowConvergenceError (after the DivergentSeriesError check on sigma).
* x = 1 with p = q+1 and Re(sum(den) - sum(num)) > 0: the terms decay like
  a power n^-sigma, so naive truncation cannot reach tight tolerances.
  The partial sum over n < N is completed with the power-law tail
  T(N) = sum_{n>=N} t_n, computed from the functional equation
  T(N) = t_N + r(N) T(N+1) with r the exact rational term ratio: the
  normalized tail T(N)/t_N is expanded as A*N + sum_k b_k N^-k, whose
  coefficients follow from a triangular recursion on the series expansion
  of r.  This is the p-series-style tail that makes the classical x = 1
  summation identities verifiable at full precision.

Prefactors (1-x)^mu use the principal logarithm and are continuous on the
plane cut along [1, oo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp

from .errors import (
    DenominatorPoleError,
    DivergentSeriesError,
    OnBranchCutError,
    PoleAtOneError,
    SlowConvergenceError,
)
from .kernel import (
    ComplexLike,
    ComplexValue,
    ParamVector,
    as_nonpositive_integer,
    as_param_vector,
    cplx,
)

#: Hard cap on the number of summed terms.
TERM_CAP = 10**6

#: Terms summed directly before the power-law tail takes over at x = 1.
UNIT_DIRECT_TERMS = 64

#: Minimum order of the tail expansion at x = 1 (scales with precision).
UNIT_TAIL_ORDER = 44


@dataclass(frozen=True)
class HypFunction:
    """Generalized hypergeometric function pFq(num; den; .)."""

    num: ParamVector
    den: ParamVector

    def __post_init__(self):
        object.__setattr__(self, "num", as_param_vector(self.num))
        object.__setattr__(self, "den", as_param_vector(self.den))

    @property
    def p(self) -> int:
        return len(self.num)

    @property
    def q(self) -> int:
        return len(self.den)

    def terminal_index(self) -> Optional[int]:
        """Smallest k with -k an exact nonpositive-integer top parameter."""
        ks = [-v for u in self.num if (v := as_nonpositive_integer(u)) is not None]
        return min(ks) if ks else None


@dataclass(frozen=True)
class EvalResult:
    """Series value plus truncation diagnostics."""

    value: ComplexValue
    terms_used: int
    tail_bound: mp.mpf


def default_series_tolerance() -> mp.mpf:
    """Series tolerance leaving ~8 digits of headroom under the context."""
    return mp.mpf(10) ** (-(mp.mp.dps - 8))


def _check_denominator_poles(fun: HypFunction, n_terminal: Optional[int]) -> None:
    for v in fun.den:
        dv = as_nonpositive_integer(v)
        if dv is None:
            continue
        pole_index = -dv + 1  # term at which (v)_n first contains the zero factor
        if n_terminal is None or n_terminal >= pole_index:
            raise DenominatorPoleError(
                f"bottom parameter {v} poles the series at term {pole_index}"
            )


def _sum_terminating(fun: HypFunction, x: ComplexValue, k: int) -> EvalResult:
    total = mp.mpc(1)
    term = mp.mpc(1)
    for n in range(k):
        for u in fun.num:
            term *= u + n
        for v in fun.den:
            term /= v + n
        term *= x
        term /= n + 1
        total += term
    return EvalResult(total, k + 1, mp.mpf(0))


def _sum_geometric(fun: HypFunction, x: ComplexValue, tol: mp.mpf) -> EvalResult:
    total = mp.mpc(1)
    term = mp.mpc(1)
    absx = abs(x)
    prev_mag = mp.mpf(1)
    small_streak = 0
    for n in range(TERM_CAP):
        for u in fun.num:
            term *= u + n
        for v in fun.den:
            term /= v + n
        term *= x
        term /= n + 1
        mag = abs(term)
        total += term
        # backward term ratio; for p = q+1 the limiting ratio is |x|, so the
        # estimate never trusts a transient dip below it
        ratio = mag / prev_mag if prev_mag > 0 else mp.mpf(1)
        qhat = max(ratio, absx) if fun.p == fun.q + 1 else ratio
        if qhat < 1 and n >= 8:
            tail = 2 * mag * qhat / (1 - qhat)
            if tail <= tol * max(1, abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    return EvalResult(total, n + 2, tail)
            else:
                small_streak = 0
        else:
            small_streak = 0
        prev_mag = mag
    raise SlowConvergenceError(
        f"series did not meet tolerance within {TERM_CAP} terms"
    )


def _poly_mul(a: list, b: list) -> list:
    out = [mp.mpc(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _series_div(a: list, b: list, length: int) -> list:
    """First ``length`` coefficients of the power series a(u)/b(u), b[0] != 0."""
    out = [mp.mpc(0)] * length
    inv0 = 1 / b[0]
    for m in range(length):
        acc = a[m] if m < len(a) else mp.mpc(0)
        for k in range(1, min(m, len(b) - 1) + 1):
            acc -= b[k] * out[m - k]
        out[m] = acc * inv0
    return out


def _sum_at_unit(fun: HypFunction, tol: mp.mpf) -> EvalResult:
    """x = 1 evaluation: direct head plus a power-law tail.

    With r(n) = t_{n+1}/t_n (an explicit rational function of n), the
    normalized tail W(N) = (sum_{n>=N} t_n) / t_N satisfies
    W(N) = 1 + r(N) W(N+1).  Substituting the ansatz
    W = A*N + sum_k b_k N^-k and matching powers gives A = 1/(sigma-1) and
    a triangular recursion b_{m-1} = [...]/(sigma+m-1), where
    sigma = 1 + sum(den) - sum(num) governs the power-law decay
    t_n ~ n^-sigma.  The divisors sigma+m-1 stay away from zero because
    convergence requires Re(sigma) > 1.  The coefficient recursion is exact;
    only the evaluation of W at N is asymptotic, and it stops at the
    smallest term, which is reported inside the tail bound.
    """
    sigma = 1 + sum(fun.den, mp.mpc(0)) - sum(fun.num, mp.mpc(0))
    if not sigma.real > 1:
        raise DivergentSeriesError(
            "x = 1 requires Re(sum(den) - sum(num)) > 0"
        )
    N = max(UNIT_DIRECT_TERMS, mp.mp.dps)
    # expansion order scales with the context so the asymptotic floor of
    # the W series stays below the working tolerance
    order = max(UNIT_TAIL_ORDER, (13 * mp.mp.dps) // 10)
    rounding_floor = mp.mpf(10) ** (-(mp.mp.dps + 8))
    with mp.extradps(10):
        total = mp.mpc(0)
        term = mp.mpc(1)
        for n in range(N):
            total += term
            for u in fun.num:
                term *= u + n
            for v in fun.den:
                term /= v + n
            term /= n + 1
        # r as a power series in u = 1/n:
        # r(1/u) = prod(1 + a_i u) / (prod(1 + b_j u) * (1 + u))
        length = order + 3
        pnum = [mp.mpc(1)]
        for u in fun.num:
            pnum = _poly_mul(pnum, [mp.mpc(1), u])
        pden = [mp.mpc(1)]
        for v in list(fun.den) + [mp.mpc(1)]:
            pden = _poly_mul(pden, [mp.mpc(1), v])
        r = _series_div(pnum, pden, length)
        A = 1 / (sigma - 1)
        # rows H_k from G_k = r * (u/(1+u))^k: H_k[j] = -G_k[k+1+j]
        rows = []
        G = list(r)
        for k in range(order + 1):
            rows.append([-G[k + 1 + j] for j in range(length - k - 1)])
            G = _series_div(G, [mp.mpc(1), mp.mpc(1)], length)
            G = [mp.mpc(0)] + G[:-1]
        b_coef = [mp.mpc(0)] * (order + 1)
        for m in range(1, order + 2):
            acc = A * ((r[m + 1] if m + 1 < length else mp.mpc(0)) + r[m])
            for k in range(m - 1):
                j = m - 1 - k
                if j < len(rows[k]):
                    acc -= b_coef[k] * rows[k][j]
            b_coef[m - 1] = acc / (sigma + m - 1)
        # evaluate W(N), stopping at the smallest term of the expansion
        tail_norm = A * N
        npow = mp.mpf(1)
        smallest = mp.inf
        for k in range(order + 1):
            piece = b_coef[k] * npow
            mag = abs(piece)
            if k > 6 and mag > smallest:
                break
            tail_norm += piece
            smallest = min(smallest, mag)
            npow /= N
            if mag < tol * abs(tail_norm) / 10:
                break
        value = total + term * tail_norm
        bound = abs(term) * smallest + abs(value) * rounding_floor
    if bound > tol * max(1, abs(value)):
        raise SlowConvergenceError(
            "asymptotic tail at x = 1 cannot reach the requested tolerance"
        )
    return EvalResult(mp.mpc(value), N, mp.mpf(bound))


def eval_pfq(
    fun: HypFunction,
    x: ComplexLike,
    tol: mp.mpf | None = None,
) -> EvalResult:
    """Evaluate pFq(num; den; x) by truncated series summation.

    Convergence classification: terminating series work anywhere; p <= q
    converges for every x; p = q+1 needs |x| < 1, or x = 1 together with
    Re(sum(den) - sum(num)) > 0 (the power-tail path).  Everything else
    raises DivergentSeriesError, except a p = q+1 series on |x| = 1 with
    x != 1 and Re(sum(den) - sum(num)) > 0: it converges, too slowly for
    direct summation, and raises SlowConvergenceError at once.
    """
    x = cplx(x)
    if tol is None:
        tol = default_series_tolerance()
    n_terminal = fun.terminal_index()
    _check_denominator_poles(fun, n_terminal)
    if x == 0:
        return EvalResult(mp.mpc(1), 1, mp.mpf(0))
    if n_terminal is not None:
        return _sum_terminating(fun, x, n_terminal)
    if fun.p > fun.q + 1:
        raise DivergentSeriesError(
            f"{fun.p}F{fun.q} does not converge for x != 0 unless terminating"
        )
    if fun.p == fun.q + 1:
        absx = abs(x)
        if absx > 1:
            raise DivergentSeriesError(f"|x| = {mp.nstr(absx, 8)} > 1")
        if absx == 1:
            if x == 1:
                return _sum_at_unit(fun, tol)
            sigma = 1 + sum(fun.den, mp.mpc(0)) - sum(fun.num, mp.mpc(0))
            if not sigma.real > 1:
                raise DivergentSeriesError(
                    "|x| = 1 requires Re(sum(den) - sum(num)) > 0"
                )
            raise SlowConvergenceError(
                "|x| = 1 with x != 1: the terms decay only like a power of n, "
                "too slowly for direct summation"
            )
    return _sum_geometric(fun, x, tol)


def eval_prefactor(x: ComplexLike, mu: ComplexLike) -> ComplexValue:
    """Principal-branch power (1-x)^mu = exp(mu Log(1-x)).

    Continuous on the plane cut along the real ray [1, oo); arguments on
    the cut raise OnBranchCutError.
    """
    x = cplx(x)
    mu = cplx(mu)
    if x.imag == 0 and x.real >= 1:
        raise OnBranchCutError(f"prefactor undefined on the cut: x = {x}")
    if mu == 0:
        return mp.mpc(1)
    return mp.exp(mu * mp.log(1 - x))


def mobius_arg(x: ComplexLike) -> ComplexValue:
    """Argument map x -> x/(x-1); maps Re(x) < 1/2 into the unit disk."""
    x = cplx(x)
    if x == 1:
        raise PoleAtOneError("x/(x-1) undefined at x = 1")
    return x / (x - 1)


def pfq(
    num: Sequence[ComplexLike],
    den: Sequence[ComplexLike],
    x: ComplexLike,
    tol: mp.mpf | None = None,
) -> ComplexValue:
    """Convenience wrapper: the value of pFq(num; den; x)."""
    return eval_pfq(HypFunction(ParamVector(num), ParamVector(den)), x, tol).value
