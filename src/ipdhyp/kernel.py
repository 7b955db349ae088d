"""Numeric substrate: precision context, Pochhammer and gamma machinery.

All arithmetic in this package runs on mpmath complex numbers under one
global decimal-precision context (default 40 significant digits).  The
identities verified downstream involve alternating sums with heavy
cancellation, so fixed double precision is not an option; the context can be
raised but never drops below 16 digits.

The rising factorial (a)_n = a(a+1)...(a+n-1), its run [(a)_0, ..., (a)_n]
(``rising``, which ``pochhammer`` reads) and its vector form
(f)_m = (f_1)_{m_1}...(f_r)_{m_r} are the basic building blocks.  The
vectors f and m are tuples, ``ParamVector`` and ``IntVector``, compared by
value; their constructors are the one coercion of any sequence.  The module
also provides Stirling numbers of the second kind (exact integers),
fixed-point pairs (``to_fixed_pair`` and ``from_fixed_pair``: a complex
number as two integers scaled by 2^wp, for the inner loops of the oracle
and of the root finder), running products of linear factors as
coefficient lists (behind every characteristic polynomial and behind
(f_1+x)_{m_1}...(f_r+x)_{m_r}), exact summation of terminating hypergeometric series by term-ratio
recursion (``hyp_terms`` is the one term loop and pole check, and
``terminating_family`` sums one term sequence into pFq(-k, num; den | 1)
for every k at once, so a coefficient family is computed once per build,
as a vector), ``nonzero``, the one guard behind every quantity a
transformation needs nonzero, and ``as_nonpositive_integer``, the one
predicate for "z is at, or within a tolerance of, a pole of Gamma".
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Union

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from .errors import (
    DegenerateCaseError,
    DenominatorPoleError,
    LengthMismatchError,
    PoleAtNonpositiveIntegerError,
)

#: The universal numeric carrier.  Precision is a context-wide setting.
ComplexValue = mp.mpc

ComplexLike = Union[int, float, complex, str, mp.mpf, mp.mpc]

MIN_DIGITS = 16
DEFAULT_DIGITS = 40

mp.mp.dps = DEFAULT_DIGITS


def set_precision(digits: int) -> None:
    """Set the global precision context, in significant decimal digits.

    The context never drops below 16 digits.  ``digits`` must be a whole
    number (40 or 40.0); a fraction or a bool raises ValueError.
    """
    value = mp.mpf(digits)
    if isinstance(digits, bool) or not mp.isint(value):
        raise ValueError(f"precision must be a whole number of digits, got {digits!r}")
    digits = int(value)
    if digits < MIN_DIGITS:
        raise ValueError(f"precision below {MIN_DIGITS} digits is not supported: {digits}")
    mp.mp.dps = digits


def get_precision() -> int:
    """Current precision context in decimal digits."""
    return mp.mp.dps


def cplx(value: ComplexLike, imag: ComplexLike | None = None) -> ComplexValue:
    """Coerce a number (or a re/im pair) to the complex carrier type."""
    if imag is not None:
        return mp.mpc(mp.mpmathify(value), mp.mpmathify(imag))
    if isinstance(value, mp.mpc):
        return value
    return mp.mpc(mp.mpmathify(value))


def to_fixed_pair(z: ComplexValue, wp: int) -> tuple:
    """z as a pair of integers (re, im) scaled by 2^wp, each rounded down."""
    return to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)


def from_fixed_pair(re: int, im: int, wp: int, prec: int) -> ComplexValue:
    """(re + i im) 2^-wp, rounded to ``prec`` bits."""
    return mp.make_mpc((from_man_exp(re, -wp, prec, "n"), from_man_exp(im, -wp, prec, "n")))


def nonzero(value: ComplexValue, what: str) -> ComplexValue:
    """Return ``value``; raise DegenerateCaseError when it is exactly zero.

    The one guard behind every quantity a transformation must not let
    vanish, such as (c-b-m)_m, (f)_m or b.
    """
    if value == 0:
        raise DegenerateCaseError(f"{what} = 0")
    return value


def as_nonpositive_integer(z: ComplexLike, tol: mp.mpf | int = 0) -> int | None:
    """Return -n when both parts of z lie within ``tol`` of the nonpositive
    integer -n, else None; the default tol = 0 asks for z = -n exactly.

    The package's one pole predicate: every test of "at or near a pole of
    Gamma" (a terminating top parameter, a bottom parameter that poles a
    series, a root that lands on a pole, a sampler margin) goes through it.
    """
    z = cplx(z)
    if abs(z.imag) > tol:
        return None
    n = mp.nint(z.real)
    if n <= 0 and abs(z.real - n) <= tol:
        return int(n)
    return None


class IntVector(tuple):
    """Vector of positive integer multiplicities m = (m_1, ..., m_r).

    A tuple of ints, compared and hashed by value; the constructor returns
    an IntVector argument unchanged.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]):
        if isinstance(entries, IntVector):
            return entries
        self = super().__new__(cls, [int(e) for e in entries])
        if any(e < 1 for e in self):
            raise ValueError(f"multiplicities must be >= 1, got {tuple(self)}")
        return self

    @property
    def total(self) -> int:
        """The component sum m_1 + ... + m_r."""
        return sum(self)

    def __repr__(self) -> str:
        return f"IntVector{tuple(self)}"


class ParamVector(tuple):
    """Vector of complex parameters with element-wise arithmetic.

    A tuple of ``cplx`` values, compared and hashed by value; the
    constructor returns a ParamVector argument unchanged.  Shifting by a
    scalar and negation act element-wise and preserve length, matching the
    vector conventions used throughout the transformation formulas.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[ComplexLike]):
        if isinstance(entries, ParamVector):
            return entries
        return super().__new__(cls, [cplx(e) for e in entries])

    def __add__(self, scalar: ComplexLike) -> "ParamVector":
        s = cplx(scalar)
        return ParamVector(e + s for e in self)

    def __sub__(self, scalar: ComplexLike) -> "ParamVector":
        s = cplx(scalar)
        return ParamVector(e - s for e in self)

    def __neg__(self) -> "ParamVector":
        return ParamVector(-e for e in self)

    def shifted_by(self, m: IntVector) -> "ParamVector":
        """Element-wise shift f + m by an integer multiplicity vector."""
        return ParamVector(e + mi for e, mi in _paired(self, m))

    def __repr__(self) -> str:
        return f"ParamVector({list(self)})"


def _paired(f: Iterable[ComplexLike], m: Iterable[int]) -> Iterator[tuple[ComplexValue, int]]:
    """The pairs (f_i, m_i) of a parameter and a multiplicity vector."""
    fs, ms = ParamVector(f), IntVector(m)
    if len(fs) != len(ms):
        raise LengthMismatchError(f"vector lengths differ: {len(fs)} vs {len(ms)}")
    return zip(fs, ms)


def rising(a: ComplexLike, n: int) -> list:
    """The run [(a)_0, (a)_1, ..., (a)_n] of rising factorials, as running
    products; entry k is ``pochhammer(a, k)`` bit for bit.

    Every builder that weights a sum over k by (a)_k reads one run instead
    of building each (a)_k from 1.
    """
    if n < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {n}")
    a = cplx(a)
    run = [mp.mpc(1)]
    for j in range(n):
        run.append(run[-1] * (a + j))
    return run


def pochhammer(a: ComplexLike, n: int) -> ComplexValue:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1.

    Computed as an explicit product (the last entry of ``rising``), so zero
    results (a at a nonpositive integer with n large enough) come out exact
    rather than as 0/0 gamma quotients.
    """
    return rising(a, n)[n]


def pochhammer_vec(f: Iterable[ComplexLike], m: Iterable[int]) -> ComplexValue:
    """Component-wise Pochhammer product (f)_m = (f_1)_{m_1}...(f_r)_{m_r}."""
    result = mp.mpc(1)
    for fi, mi in _paired(f, m):
        result *= pochhammer(fi, mi)
    return result


def gamma(z: ComplexLike) -> ComplexValue:
    """Gamma(z), rejecting the poles explicitly."""
    z = cplx(z)
    if as_nonpositive_integer(z) is not None:
        raise PoleAtNonpositiveIntegerError(f"gamma pole at z = {z}")
    return mp.mpc(mp.gamma(z))


def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind S(j, k), as an exact integer.

    The explicit sum S(j, k) = sum_i (-1)^i C(k, i) (k-i)^j / k!, whose
    division is exact; it gives 0 for k > j.
    """
    if j < 0 or k < 0:
        raise ValueError(f"stirling2 indices must be nonnegative: ({j}, {k})")
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** j for i in range(k + 1))
    return total // math.factorial(k)


def linear_products(factors) -> list:
    """Running products [1, l_0, l_0 l_1, ...] of the linear polynomials
    l_j(x) = u_j + v_j x, given as pairs (u_j, v_j), as ascending coefficient
    lists."""
    out = [[mp.mpc(1)]]
    for u, v in factors:
        prev = out[-1]
        nxt = [mp.mpc(0)] * (len(prev) + 1)
        for i, c in enumerate(prev):
            nxt[i] += c * u
            nxt[i + 1] += c * v
        out.append(nxt)
    return out


def genfunc_coeffs(
    f: Iterable[ComplexLike],
    m: Iterable[int],
    shift: ComplexLike = 0,
    sign: int = 1,
) -> list:
    """Ascending coefficients of prod_i (f_i - shift + sign*x)_{m_i} in x.

    With shift 0 and sign +1 this yields the coefficients sigma_j of
    (f_1+x)_{m_1}...(f_r+x)_{m_r}; with shift b and sign -1 it yields the
    coefficients alpha_j of (f-b-t)_m.  Exact polynomial convolution of the
    linear factors, m_1+...+m_r + 1 coefficients.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    shift = cplx(shift)
    return linear_products(
        (fi - shift + j, sign) for fi, mi in _paired(f, m) for j in range(mi)
    )[-1]


def hyp_terms(
    num: Sequence[ComplexLike],
    den: Sequence[ComplexLike],
    count: int,
) -> list:
    """The terms t_0, ..., t_count of pFq(num; den | 1): t_0 = 1 and
    t_{n+1} = t_n prod(u+n) / (prod(v+n) (n+1)), so t_n = (num)_n / ((den)_n n!).

    The engine's one term loop and its one pole check (the series oracle
    ``hypeval`` keeps its own): a bottom parameter v with v + n = 0 for
    some n < count raises DenominatorPoleError.
    """
    nums = [cplx(u) for u in num]
    dens = [cplx(v) for v in den]
    term = mp.mpc(1)
    terms = [term]
    for n in range(count):
        for u in nums:
            term *= u + n
        for v in dens:
            d = v + n
            if d == 0:
                raise DenominatorPoleError(
                    f"bottom parameter {v} hits a pole at term {n + 1}"
                )
            term /= d
        term /= n + 1
        terms.append(term)
    return terms


def terminating_pfq(
    num: Sequence[ComplexLike],
    den: Sequence[ComplexLike],
    terms: int,
) -> ComplexValue:
    """Sum the first ``terms``+1 terms of a pFq at x = 1 by exact term recursion.

    Used for terminating series (a nonpositive-integer top parameter -k with
    ``terms`` = k): successive terms are built from the ratio of consecutive
    coefficients (``hyp_terms``), never from gamma quotients, so bottom
    parameters close to negative integers are harmless as long as the pole
    index lies beyond the terminal one.
    """
    return sum(hyp_terms(num, den, terms), mp.mpc(0))


def terminating_sums(terms: Sequence[ComplexValue]) -> list:
    """sum_{n <= k} (-k)_n t_n for every k = 0..len(terms)-1.

    With t = ``hyp_terms(num, den, K)`` entry k is pFq(-k, num; den | 1):
    the k-th terminating sum of one term sequence, weighted by the exact
    integer (-k)_n = (-1)^n k!/(k-n)!.  O(K^2) multiplications by integers
    replace K+1 term loops over all the parameters.
    """
    sums = []
    for k in range(len(terms)):
        total, weight = mp.mpc(0), 1
        for n in range(k + 1):
            total += weight * terms[n]
            weight *= n - k
        sums.append(total)
    return sums


def terminating_family(
    num: Sequence[ComplexLike],
    den: Sequence[ComplexLike],
    kmax: int,
) -> list:
    """pFq(-k, num; den | 1) for every k = 0..kmax, from one term sequence.

    Entry k equals ``terminating_pfq(num + [-k], den, k)`` up to rounding,
    and the family raises DenominatorPoleError exactly where that call at
    k = kmax does.
    """
    return terminating_sums(hyp_terms(num, den, kmax))
