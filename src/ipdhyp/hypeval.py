"""Independent series oracle: direct evaluation of pFq and prefactors.

Everything downstream is checked against this module, so it deliberately
shares no code with the transformation engine: a pFq value is a truncated
partial sum with term-ratio recursion, full stop.

One term loop sums every series, in fixed point.  Parameters, points,
terms and partial sums are complex integer mantissas scaled by 2^wp, with
wp = max(prec, bits of tol) + guard and guard = 2 log2 N + 20 +
log2 max|t_n| for N terms (a rise of the terms after a dip counts like
growth).  The first pass assumes a guard; a point whose pass finds more
terms or larger terms than assumed is summed again with the guard it
needs, so cancellation among large terms costs no digits.  The term ratio
prod(u+n) / (prod(v+n) (n+1)) is computed once per n and shared by every
point summed together (:func:`eval_pfq_many`); each point then multiplies
its term by the ratio and by its x.  The ratio reads three polynomials in
n 2^s with exact integer coefficients, multiplied out once per pass from
the linear factors: the real and imaginary parts of
prod(u+n) conj(prod(v+n)), and |prod(v+n)|^2.  Horner in the small integer
n gives the very integers the products would.  The scale s is the fewest
bits below the binary point that hold every parameter exactly, or pw (wp
plus the bits of a bottom parameter under 2^-prec) where pw is fewer: a
double and the sum of a few doubles take about 52 bits, where pw is 200
at 40 digits.  The coefficients at 2^s are those at 2^pw over exact powers
of two, so every ratio is rounded to the same bits as at 2^pw.  The steps
run in blocks of BLOCK: each point runs a block on local variables, the
first point to reach a step makes its ratio and the rest reuse it, so no
more than BLOCK ratios are held at once.  A pass ends in one of two
ways:

* a fixed stop k: the pass sums t_0 .. t_k, with no tail.  A terminating
  series (top parameter -k) stops at its terminal index k, for any
  argument; x = 0 stops at 0; the head of the x = 1 summation below stops
  at N.
* the tail test, for |x| < 1 (or p <= q): a point stops once the tail
  estimate 2 |t_n| qhat / (1 - qhat), with qhat the backward term ratio
  (floored at |x| for p = q+1), is at most tol * max(1, |S|) twice in a
  row, at n >= 8.  The rule reads magnitudes as doubles, the term's and
  the ratio's rounded up and |S| rounded down, so it is never weaker than
  in exact arithmetic; an estimate that overflows a double never passes.
  |S| is read only when a running bound 1 + sum |t_n|, rounded up, leaves
  the test open, so the reads it skips could not have passed it.
  qhat = |t_n / t_{n-1}| is taken from the shared ratio times |x|, not
  from two rounded terms, so it stays valid when the terms fall below the
  fixed-point resolution.  On |x| = 1 away from x = 1 the estimate never
  falls below its tolerance, so such a p = q+1 series is refused at once
  with SlowConvergenceError (after the DivergentSeriesError check on
  sigma).

x = 1 with p = q+1 and Re(sum(den) - sum(num)) > 0: the terms decay like a
power n^-sigma, so naive truncation cannot reach tight tolerances.  A pass
with a fixed stop at N gives the partial sum and t_N; the power-law tail
T(N) = sum_{n>=N} t_n follows from T(N) = t_N + r(N) T(N+1), r the exact
rational term ratio, by expanding T(N)/t_N as A*N + sum_k b_k N^-k, with
coefficients from a triangular recursion on the series expansion of r.
The expansion is summed until its terms grow, and its coefficients are
built only as far as that sum reads them, as are those of r; UNIT_TAIL_ORDER
(scaled with the digits) caps how far it may read.  Like the term loop, the
expansion runs in fixed point, at the bits of digits + 10 plus
UNIT_GUARD_BITS.  The series of r divides one product of linear factors by
another, both multiplied out as the term ratio's are; the divisor's
constant coefficient is 1, so no step of it divides.  The triangle's
differences are exact, and the stop tests read magnitudes as doubles
rounded up.  The smallest term summed, plus a
rounding floor, is the tail bound: an estimate, not a proved bound.  When
it misses tol, the head N is doubled and summed again, up to UNIT_RETRIES
times, before SlowConvergenceError.  A tol finer than the context raises
the digits of the whole x = 1 summation, as it raises the kernel's wp.

Prefactors (1-x)^mu use the principal logarithm and are continuous on the
plane cut along [1, oo).
"""

from __future__ import annotations

import math
import sys
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
    cplx,
    from_fixed_pair,
    to_fixed_pair,
)

#: Hard cap on the number of summed terms.
TERM_CAP = 10**6

#: Terms summed directly before the power-law tail takes over at x = 1.
UNIT_DIRECT_TERMS = 64

#: Least order to which the tail expansion at x = 1 may be read (scales with precision).
UNIT_TAIL_ORDER = 44

#: Times the direct head at x = 1 is doubled when the tail misses tol.
UNIT_RETRIES = 5

#: Guard bits of the x = 1 tail's fixed point beyond the bits of digits + 10.
UNIT_GUARD_BITS = 32

#: Stop of a point at x = 1, where the power-law tail completes the head.
_UNIT = "unit"

#: Guard bits of a pass beyond 2 log2 N + log2 max|t_n|.
GUARD_EXTRA_BITS = 20

#: Guard bits of the first pass: room for 4095 terms up to 2^20.
FIRST_GUARD_BITS = 64

#: Steps of the term loop that each point runs on its own before the next.
BLOCK = 64

#: Factors that round a double up and down by more than its rounding error.
_UP = 1 + 2.0**-48
_DOWN = 1 - 2.0**-48

#: Most bits of 2^-unit at which a term's magnitude, times 2^-unit, is
#: still a normal double (down to 2^-1022) and so is rounded relatively.
_NORMAL_BITS = 1000

#: Least bound on |S| at which |S| may be too large for ``_abs_down``
#: (mantissas past 2^1023 at 64 fraction bits), which then reads it as the
#: largest double: the tail test reads |S| itself there.
_HUGE_SUM = 2.0**900


@dataclass(frozen=True)
class HypFunction:
    """Generalized hypergeometric function pFq(num; den; .)."""

    num: ParamVector
    den: ParamVector

    def __post_init__(self):
        object.__setattr__(self, "num", ParamVector(self.num))
        object.__setattr__(self, "den", ParamVector(self.den))

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
    """Series value plus truncation diagnostics.

    ``tail_bound`` covers truncation only.  ``value`` is rounded to the
    working precision, so with a ``tol`` finer than the context its error can
    exceed both ``tol`` and ``tail_bound``: at 40 digits and tol = 1e-50,
    2F1(0.3, 0.4; 2.1; x) reports ``tail_bound`` 5.7e-56 at x = 1 and
    2.7e-51 at x = 0.5, with ``value`` off by 1.1e-41 and 2.0e-42."""

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


def _tol_bits(tol: mp.mpf) -> int:
    """Smallest n >= 0 with 2^-n <= tol, read off the exponent of ``tol``."""
    _, _, exp, bc = tol._mpf_
    return max(0, 1 - exp - bc)


def _fixed_linear_product(roots: list, out: list) -> list:
    """Coefficients of ``out`` times prod(1 + r u) over the fixed-point pairs
    ``roots``, in powers of u.  Read in X = 1/u, prod(1 + r u) gives those of
    prod(r + X), highest power of X first."""
    for rr, ri in roots:
        out = [
            (ar + br * rr - bi * ri, ai + br * ri + bi * rr)
            for (ar, ai), (br, bi) in zip(out + [(0, 0)], [(0, 0)] + out)
        ]
    return out


def _ratio_maker(fun: HypFunction, wp: int):
    """t_{n+1} / (x t_n) = prod(u+n) / (prod(v+n) (n+1)) as a function of n.

    The ratio comes back as (re, im, shift) with value (re + i im) 2^-shift,
    rounded to at least ``wp`` significant bits whatever its size, so a
    parameter close to a nonpositive integer costs no absolute accuracy.
    """
    # parameters are read at 2^pw: a bottom one's part under 2^-prec keeps
    # wp - prec bits there, so no nonzero v + n reads as a pole
    low = min((exp + bc for v in fun.den for _, man, exp, bc in v._mpc_ if man), default=0)
    pw = wp + max(0, -mp.mp.prec - low)
    # but they are scaled by 2^scale only, the fewest bits below the binary
    # point that hold them all exactly when that is fewer than pw: a double
    # and the sum of a few doubles take about 52.  Each coefficient below is
    # then the one at 2^pw over an exact power of two, and every bit length
    # that sets the shift moves by an exact amount that lift cancels
    exact = max((-exp for v in (*fun.num, *fun.den) for _, man, exp, _ in v._mpc_ if man),
                default=0)
    scale = min(pw, max(0, exact))
    # with X = n 2^scale real, N conj(D) = prod(u + X) prod(conj(v) + X) and
    # |D|^2 = prod(v + X) prod(conj(v) + X) are polynomials in X with exact
    # integer coefficients, those of |D|^2 real: Horner in the small n gives
    # the integers that the products N and D would
    dens = [to_fixed_pair(v, scale) for v in fun.den]
    conj = _fixed_linear_product([(vr, -vi) for vr, vi in dens], [(1, 0)])
    cross = _fixed_linear_product([to_fixed_pair(u, scale) for u in fun.num], conj)
    square = [c for c, _ in _fixed_linear_product(dens, conj)]
    # the products carry 2^(p scale) and 2^(q scale); lift is below -wp for
    # p > q+1, which only a terminating series reaches, or for scale > wp
    lift = (fun.q - fun.p) * scale
    # a zero ratio's shift reads the bits of |D|^2 alone, which at 2^pw are
    # 2q (pw - scale) more, against the lift (q - p) pw: it keeps its shift
    zero_lift = 2 * fun.q * (pw - scale) - (fun.q - fun.p) * pw

    def ratio(n: int) -> tuple:
        big = n << scale
        ar = ai = norm = 0
        for cr, ci in cross:
            ar = ar * big + cr
            ai = ai * big + ci
        for c in square:
            norm = norm * big + c
        # the factor n+1 of the denominator
        m = n + 1
        ar *= m
        ai *= m
        norm *= m * m
        top = max(ar.bit_length(), ai.bit_length())
        if top:
            shift = wp + max(0, norm.bit_length() - top - lift)
        else:
            shift = wp + max(0, norm.bit_length() + zero_lift)
        up = shift + lift
        if up < 0:
            norm <<= -up
            return ar // norm, ai // norm, shift
        return (ar << up) // norm, (ai << up) // norm, shift

    return ratio


class _Point:
    """One point's running state in a pass, between blocks of steps."""

    __slots__ = (
        "index", "xr", "xi", "absx", "tr", "ti", "sr", "si", "streak", "lo", "hi", "rise",
        "huge", "bound",
    )

    def __init__(self, index: int, x: ComplexValue, wp: int):
        self.index = index
        self.xr, self.xi = to_fixed_pair(x, wp)
        self.absx = math.nextafter(float(abs(x)), math.inf)  # |x| rounded up
        self.tr = self.sr = 1 << wp  # term and partial sum
        self.ti = self.si = 0
        self.streak = 0  # tail tests passed in a row
        self.lo, self.hi = math.inf, 0.0  # smallest and largest term magnitude
        self.rise = 1.0  # largest rise of a term over the smallest earlier one
        self.huge = 0  # bits of a term magnitude too large for a double
        self.bound = 1.0  # 1 + sum of |t_n|, at least |S|, rounded up


def _pass(fun: HypFunction, xs: list, tol: mp.mpf, guard: int, stop: Optional[int]) -> list:
    """One fixed-point pass over the points ``xs``; see :func:`_sum_series`.

    Returns (outcome, guard bits the pass turned out to need) per point.
    The outcome is (EvalResult, last term summed), or None when the point
    did not stop within TERM_CAP terms.

    The steps run in blocks of BLOCK: each live point runs a block on local
    variables and stores its state once at the end.  The block's ratios are
    made by the first point to reach each step and read by the rest, so no
    more than BLOCK of them are held at once.  A point's steps read nothing
    of the other points, so it sums the same bits in any batch.
    """
    tol_bits = _tol_bits(tol)
    prec = mp.mp.prec
    wp = max(prec, tol_bits) + guard
    # magnitudes go to doubles in units of 2^-unit, 48 bits below the
    # tolerance: term mantissas are shifted right by `drop` bits first
    drop = max(0, wp - tol_bits - 48)
    unit = wp - drop
    tol_units = float(mp.ldexp(tol, unit)) * _DOWN
    # |S| goes to a double in true units through mantissas of 64 fraction bits
    sum_drop = max(0, wp - 64)
    sum_unit = math.ldexp(1.0, sum_drop - wp)
    # a term of `mag` units adds at most mag 2^-unit to the bound on |S|;
    # where 2^-unit is no normal double the bound stays infinite
    term_unit = math.ldexp(1.0, -unit) if unit <= _NORMAL_BITS else math.inf
    floor_at_x = fun.p == fun.q + 1
    total = TERM_CAP if stop is None else stop
    # a pass that stops at t_0 (x = 0) reads no ratio
    ratio = _ratio_maker(fun, wp) if total else None
    live = [_Point(index, x, wp) for index, x in enumerate(xs)]
    out = [(None, 0)] * len(xs)
    first_test = 8 if stop is None else stop  # a fixed stop skips the tail test
    inf, hypot, block_steps = math.inf, math.hypot, BLOCK

    def finish(pt: _Point, terms: int, tail: mp.mpf) -> None:
        need = 2 * terms.bit_length() + GUARD_EXTRA_BITS + _growth_bits(
            pt.hi, pt.rise, unit, pt.huge
        )
        value = from_fixed_pair(pt.sr, pt.si, wp, prec)
        term = from_fixed_pair(pt.tr, pt.ti, wp, prec)
        out[pt.index] = ((EvalResult(value, terms, tail), term), need)

    for start in range(0, total, block_steps):
        if not live:
            break
        count = min(block_steps, total - start)
        test_from = first_test - start  # the first step j of the block tested
        block, made, kept = [], 0, []
        for pt in live:
            xr, xi, absx = pt.xr, pt.xi, pt.absx
            tr, ti, sr, si, streak = pt.tr, pt.ti, pt.sr, pt.si, pt.streak
            lo, hi, rise, huge, bound = pt.lo, pt.hi, pt.rise, pt.huge, pt.bound
            for j in range(count):
                if j < made:
                    rr, ri, rs, rmag = block[j]
                else:
                    rr, ri, rs = ratio(start + j)
                    # the backward ratio |t_{n+1} / t_n| is |ratio(n) x|:
                    # taken from the ratio itself, it holds where the terms
                    # fall below the resolution; only the tail test reads it
                    rmag = _abs_up(rr, ri, rs) if j >= test_from else 0.0
                    block.append((rr, ri, rs, rmag))
                    made += 1
                ar = (tr * rr - ti * ri) >> rs
                ai = (tr * ri + ti * rr) >> rs
                tr = (ar * xr - ai * xi) >> wp
                ti = (ar * xi + ai * xr) >> wp
                sr += tr
                si += ti
                try:
                    raw = hypot(tr >> drop, ti >> drop)
                except OverflowError:
                    raw = inf
                    huge = max(huge, max(abs(tr), abs(ti)).bit_length() + 1 - wp)
                # the shifted mantissas are off by < 1 each, so by < 1.5 in all
                mag = raw * _UP + 1.5
                if mag < lo:
                    lo = mag
                elif mag > rise * lo:
                    rise = mag / lo
                if mag > hi:
                    hi = mag
                bound = (bound + mag * term_unit) * _UP
                passed = False
                if j >= test_from and mag < inf:
                    # for p = q+1 the limiting ratio is |x|, so the estimate
                    # never trusts a transient dip below it
                    qhat = rmag * absx * _UP
                    if floor_at_x and qhat < absx:
                        qhat = absx
                    if qhat < 1:
                        # an estimate past the double range proves nothing,
                        # even against a bound that overflows as well; |S|
                        # is read only where its bound leaves the test open
                        tail = 2 * mag * qhat / (1 - qhat) * _UP
                        passed = tail < inf and (
                            tail <= tol_units
                            or (tail <= tol_units * bound or bound > _HUGE_SUM)
                            and tail <= tol_units * _abs_down(sr, si, sum_drop, sum_unit)
                        )
                if not passed:
                    streak = 0
                    continue
                streak += 1
                if streak == 2:
                    pt.tr, pt.ti, pt.sr, pt.si = tr, ti, sr, si
                    pt.hi, pt.rise, pt.huge = hi, rise, huge
                    finish(pt, start + j + 2, mp.ldexp(mp.mpf(tail), -unit))
                    break
            else:
                pt.tr, pt.ti, pt.sr, pt.si, pt.streak = tr, ti, sr, si, streak
                pt.lo, pt.hi, pt.rise, pt.huge, pt.bound = lo, hi, rise, huge, bound
                kept.append(pt)
        live = kept
    if stop is not None:
        for pt in live:
            finish(pt, stop + 1, mp.mpf(0))
    return out


def _growth_bits(hi: float, rise: float, unit: int, huge: int) -> int:
    """log2 of the largest term (at least 1) or rise after a dip, rounded up."""
    bits = [0, huge]
    if 0 < hi < math.inf:  # hi = 0: no term after t_0 = 1 was summed
        bits += [math.ceil(math.log2(hi)) - unit, math.ceil(math.log2(rise))]
    return max(bits)


def _abs_up(re: int, im: int, shift: int) -> float:
    """|re + i im| 2^-shift as a double rounded up; inf when out of range."""
    drop = max(0, max(re.bit_length(), im.bit_length()) - 53)
    try:
        return math.ldexp((math.hypot(re >> drop, im >> drop) + 1.5) * _UP, drop - shift)
    except OverflowError:
        return math.inf


def _abs_down(re: int, im: int, drop: int, unit: float) -> float:
    """|re + i im| 2^-wp as a double rounded down, from mantissas shifted by ``drop``."""
    try:
        return (math.hypot(re >> drop, im >> drop) * _DOWN - 1.5) * unit
    except OverflowError:
        return sys.float_info.max


def _sum_series(
    fun: HypFunction, xs: Sequence[ComplexValue], tol: mp.mpf, stop: Optional[int] = None
) -> list:
    """Sum ``fun`` at every point of ``xs``; one (EvalResult, last term) per point.

    With ``stop`` None each point ends at the tail test, and its entry is
    None when the series did not meet ``tol`` within TERM_CAP terms; with a
    ``stop`` every point sums t_0 .. t_stop and reports a zero tail.  A
    point that needs more guard bits than its pass had is summed again with
    them; its guard history depends on that point alone, so a point gives
    the same bits alone or in a batch.
    """
    outcomes = [None] * len(xs)
    todo = {FIRST_GUARD_BITS: list(range(len(xs)))}
    while todo:
        guard = min(todo)
        indices = todo.pop(guard)
        found = _pass(fun, [xs[i] for i in indices], tol, guard, stop)
        for index, (outcome, need) in zip(indices, found):
            if need > guard:
                todo.setdefault(need, []).append(index)
            else:
                outcomes[index] = outcome
    return outcomes


def _sum_at_unit(fun: HypFunction, tol: mp.mpf) -> EvalResult:
    """x = 1 evaluation: direct head plus a power-law tail.

    With r(n) = t_{n+1}/t_n (an explicit rational function of n), the
    normalized tail W(N) = (sum_{n>=N} t_n) / t_N satisfies
    W(N) = 1 + r(N) W(N+1).  Substituting the ansatz
    W = A*N + sum_k b_k N^-k and matching powers gives A = 1/(sigma-1) and
    a triangular recursion b_{m-1} = [...]/(sigma+m-1), where
    sigma = 1 + sum(den) - sum(num) governs the power-law decay
    t_n ~ n^-sigma; :func:`_stop` has checked Re(sigma) > 1, which keeps
    the divisors away from zero.  The recursion is exact and runs only as
    far as the evaluation of W at N reads it, at most to b_order.  That
    evaluation is asymptotic and stops at its smallest term; the tail bound,
    |t_N| times that term plus a rounding floor, is an estimate and not a
    proved bound.  When it misses ``tol``, the head is doubled and summed
    again, up to UNIT_RETRIES times, as the expansion gains with N.

    The expansion runs in fixed point: complex integer mantissas scaled by
    2^wp, with wp the bits of digits + 10 plus UNIT_GUARD_BITS.
    """
    sigma = 1 + sum(fun.den, mp.mpc(0)) - sum(fun.num, mp.mpc(0))
    # like the kernel's wp, the digits cover a tol finer than the context
    tol_bits = _tol_bits(tol)
    digits = max(mp.mp.dps, math.ceil(tol_bits * math.log10(2)))
    N = max(UNIT_DIRECT_TERMS, digits)
    # the expansion may be read up to an order that scales with the digits,
    # so the asymptotic floor of the W series stays below the tolerance
    order = max(UNIT_TAIL_ORDER, (13 * digits) // 10)
    rounding_floor = mp.mpf(10) ** (-(digits + 8))
    with mp.workdps(digits + 10):
        wp = mp.mp.prec + UNIT_GUARD_BITS
        one = 1 << wp

        def product(params: list) -> list:
            # the coefficient of u^k carries 2^(k wp), rescaled to 2^wp
            coeffs = _fixed_linear_product([to_fixed_pair(v, wp) for v in params], [(1, 0)])
            return [((cr << wp) >> (k * wp), (ci << wp) >> (k * wp))
                    for k, (cr, ci) in enumerate(coeffs)]

        # r as a power series in u = 1/n:
        # r(1/u) = prod(1 + a_i u) / (prod(1 + b_j u) * (1 + u)); den[0] = 1,
        # so each coefficient needs no division, and r grows only as far as
        # the triangle reads it
        num, den = product(fun.num), product(list(fun.den) + [mp.mpc(1)])
        r = []

        def extend_r(m: int) -> None:
            for i in range(len(r), m + 1):
                accr, acci = num[i] if i < len(num) else (0, 0)
                accr <<= wp
                acci <<= wp
                for (dr, di), (xr, xi) in zip(den[1 : i + 1], reversed(r)):
                    accr -= dr * xr - di * xi
                    acci -= dr * xi + di * xr
                r.append((accr >> wp, acci >> wp))

        sr, si = to_fixed_pair(sigma, wp)
        # A = 1/(sigma - 1) = conj(sigma - 1) / |sigma - 1|^2
        norm = (sr - one) ** 2 + si * si
        Ar, Ai = ((sr - one) << 2 * wp) // norm, (-si << 2 * wp) // norm
        # G_k = r * (u/(1+u))^k has the running differences
        # G_{k+1}[i] = G_k[i-1] - G_{k+1}[i-1] as coefficients, and b_{m-1}
        # reads G_k[m] for k < m-1: both triangles grow only as far as W(N)
        # reads b, and are kept across the retries
        G, b_coef = [r], []

        def coef(k: int) -> tuple:
            while len(b_coef) <= k:
                m = len(b_coef) + 1
                extend_r(m + 1)
                if m > 2:
                    G.append([(0, 0)])
                for prev, row in zip(G, G[1:]):
                    for i in range(len(row), m + 1):
                        (pr, pi), (qr, qi) = prev[i - 1], row[i - 1]
                        row.append((pr - qr, pi - qi))
                tr, ti = r[m + 1][0] + r[m][0], r[m + 1][1] + r[m][1]
                accr, acci = Ar * tr - Ai * ti, Ar * ti + Ai * tr
                for (br, bi), row in zip(b_coef, G):
                    gr, gi = row[m]
                    accr += br * gr - bi * gi
                    acci += br * gi + bi * gr
                # divide by d = sigma + m - 1: times conj(d), over |d|^2
                dr = sr + ((m - 1) << wp)
                norm = dr * dr + si * si
                b_coef.append(((accr * dr + acci * si) // norm, (acci * dr - accr * si) // norm))
            return b_coef[k]

        # magnitudes go to doubles in units of 2^-tol_bits, as in _pass; W's
        # sum stops at a term below a tenth of tol |W|
        tol_units = float(mp.ldexp(tol, tol_bits)) / 10 * _DOWN
        w_drop = max(0, wp - 64)
        w_unit = math.ldexp(1.0, w_drop - wp)
        for _ in range(UNIT_RETRIES + 1):
            # the head S_N and its last term t_N, from n = 0 on every try
            [(head, term)] = _sum_series(fun, [mp.mpc(1)], tol, N)
            # evaluate W(N), stopping at the smallest term of the expansion
            wr, wi = Ar * N, Ai * N
            npow = 1  # N^k
            smallest = math.inf
            for k in range(order + 1):
                br, bi = coef(k)
                pr, pi = br // npow, bi // npow
                mag = _abs_up(pr, pi, wp - tol_bits)
                if k > 6 and mag > smallest:
                    break
                wr += pr
                wi += pi
                smallest = min(smallest, mag)
                npow *= N
                if mag < tol_units * _abs_down(wr, wi, w_drop, w_unit):
                    break
            # S_{N-1} + t_N W(N) = S_N + t_N (W(N) - 1)
            rest = from_fixed_pair(wr - one, wi, wp, mp.mp.prec)
            value = head.value + term * rest
            bound = abs(term) * mp.ldexp(smallest, -tol_bits) + abs(value) * rounding_floor
            if bound <= tol * max(1, abs(value)):
                break
            N *= 2
        else:
            raise SlowConvergenceError(
                "asymptotic tail at x = 1 cannot reach the requested tolerance"
            )
    return EvalResult(mp.mpc(value), N, mp.mpf(bound))


def _stop(fun: HypFunction, x: ComplexValue, n_terminal: Optional[int]):
    """Where the term loop stops at x: a fixed index, None for the tail test,
    or _UNIT for the x = 1 tail; raises where no summation converges usably."""
    if x == 0:
        return 0
    if n_terminal is not None:
        return n_terminal
    if fun.p > fun.q + 1:
        raise DivergentSeriesError(
            f"{fun.p}F{fun.q} does not converge for x != 0 unless terminating"
        )
    if fun.p == fun.q + 1:
        absx = abs(x)
        if absx > 1:
            raise DivergentSeriesError(f"|x| = {mp.nstr(absx, 8)} > 1")
        if absx == 1:
            sigma = 1 + sum(fun.den, mp.mpc(0)) - sum(fun.num, mp.mpc(0))
            if not sigma.real > 1:
                raise DivergentSeriesError(
                    "|x| = 1 requires Re(sum(den) - sum(num)) > 0"
                )
            if x == 1:
                return _UNIT
            raise SlowConvergenceError(
                "|x| = 1 with x != 1: the terms decay only like a power of n, "
                "too slowly for direct summation"
            )
    return None


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
    return eval_pfq_many(fun, [x], tol)[0]


def eval_pfq_many(
    fun: HypFunction,
    xs: Sequence[ComplexLike],
    tol: mp.mpf | None = None,
) -> list:
    """:func:`eval_pfq` at every point of ``xs``, one EvalResult per point.

    The points that stop alike (at the tail test, or at x = 0 or at the
    terminal index) are summed together, sharing each term ratio.  Each
    result equals ``eval_pfq(fun, x, tol)``, and the error raised is the
    one that evaluating the points one at a time, in order, raises first.
    ``tail_bound`` covers truncation only, and ``value`` is rounded to the
    working precision (see :class:`EvalResult`)."""
    xs = [cplx(x) for x in xs]
    tol = default_series_tolerance() if tol is None else mp.mpf(tol)
    if not tol > 0:
        raise ValueError("series tolerance must be positive")
    n_terminal = fun.terminal_index()
    _check_denominator_poles(fun, n_terminal)
    stops, failure = [], None
    for x in xs:
        try:
            stops.append(_stop(fun, x, n_terminal))
        except (DivergentSeriesError, SlowConvergenceError) as exc:
            failure = exc
            break
    groups = {}
    for index, stop in enumerate(stops):
        if stop != _UNIT:
            groups.setdefault(stop, []).append(index)
    sums = {}
    for stop, indices in groups.items():
        sums.update(zip(indices, _sum_series(fun, [xs[i] for i in indices], tol, stop)))
    results, unit = [], None
    for index, stop in enumerate(stops):
        if stop == _UNIT:
            # one x = 1 sum serves every x = 1 point; it is made where the
            # first one falls, so the errors keep their order
            unit = unit or _sum_at_unit(fun, tol)
            results.append(unit)
        elif sums[index] is None:
            raise SlowConvergenceError(
                f"series did not meet tolerance within {TERM_CAP} terms"
            )
        else:
            results.append(sums[index][0])
    if failure is not None:
        raise failure
    return results


def log_one_minus(x: ComplexLike) -> ComplexValue:
    """Principal Log(1-x), continuous on the plane cut along the real ray
    [1, oo); arguments on the cut raise OnBranchCutError."""
    x = cplx(x)
    if x.imag == 0 and x.real >= 1:
        raise OnBranchCutError(f"prefactor undefined on the cut: x = {x}")
    return mp.log(1 - x)


def eval_prefactor(x: ComplexLike, mu: ComplexLike) -> ComplexValue:
    """Principal-branch power (1-x)^mu = exp(mu Log(1-x)).

    Continuous on the plane cut along the real ray [1, oo); arguments on
    the cut raise OnBranchCutError.
    """
    mu = cplx(mu)
    log = log_one_minus(x)
    if mu == 0:
        return mp.mpc(1)
    return mp.exp(mu * log)


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
