"""Numeric substrate: precision context, Pochhammer machinery, fixed point.

The working precision is one global decimal-precision context (default 40
significant digits, never below 16), and every public value is an mpmath
complex number (``mpc``) rounded to it.  The identities verified downstream
involve alternating sums with heavy cancellation, so fixed double precision
is not an option.  Inside, the hot layers compute in fixed point instead:

* ``Fixed`` is a complex number as two Python integers scaled by 2^W, with
  ``+ - * /``, integer operands and exact-zero tests (``== 0``, ``bool``).
  Addition, subtraction and multiplication by an integer are exact; a
  product or quotient is floored once per part, so it lands within one
  unit of 2^-W.
* ``run_fixed`` is where the polynomial builders and the coefficient
  families convert: each mpc parameter goes in once (``to_fixed_pair``,
  exact), the body runs on ``Fixed`` and each result comes out once
  (``from_fixed_pair``, rounded to the working precision).  A run starts
  at the ``fixed_width`` W = 2 prec plus the bits any input needs beyond
  prec below the binary point, so every input converts exactly and every
  nonzero difference of inputs is at least 2^(prec-W).  A floor at 2^-W
  alone would cost relative precision on small values, so where a product
  or quotient of nonzero values keeps fewer than prec +
  ``FIXED_GUARD_BITS`` significant bits (b over a large (f)_m, a product
  of tiny parameters) the run is repeated at a W grown by the bits it fell
  short.  Every product and quotient then carries a smaller relative error
  than one mpc operation, none of nonzero operands comes out zero, and an
  exact-zero guard on a difference, product or quotient of inputs fires
  exactly where the exact value is zero; a guard on a sum of rounded
  terms is as exact as the working precision, as on mpc.
* ``charpoly.find_roots`` runs its full-precision sweeps on ``Fixed`` too,
  at its own width and outside any run, where nothing is noted or
  widened.  The oracle (``hypeval``) uses the same integer pairs in its
  own inner loop.

The rising factorial (a)_n = a(a+1)...(a+n-1), its run [(a)_0, ..., (a)_n]
(``rising``, which ``pochhammer`` reads) and its vector form
(f)_m = (f_1)_{m_1}...(f_r)_{m_r} are the basic building blocks.  They,
``linear_products`` (running products of linear factors as coefficient
lists, behind every characteristic polynomial and behind
(f_1+x)_{m_1}...(f_r+x)_{m_r}), ``genfunc_coeffs``, ``hyp_terms`` (the one
term loop and pole check of a terminating series) and
``terminating_sums``/``terminating_family`` (pFq(-k, num; den | 1) for
every k at once, from one term sequence) use only operators and integer
constants, so one body runs on ``mpc`` and on ``Fixed``; ``lift`` is their
one coercion, and it leaves both types alone.  The vectors f and m are
tuples, ``ParamVector`` and ``IntVector``, compared by value; their
constructors are the one coercion of any sequence.  The module also
provides Stirling numbers of the second kind (exact integers),
``nonzero``, the one guard behind every quantity a transformation needs
nonzero, and ``as_nonpositive_integer``, the one predicate for "z is at,
or within a tolerance of, a pole of Gamma".
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Union

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from .errors import (
    DegenerateCaseError,
    DenominatorPoleError,
    IpdHypError,
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


#: Significant bits beyond the working precision that every nonzero product
#: or quotient of a fixed-point run keeps; ``run_fixed`` widens a run in
#: which one falls short.
FIXED_GUARD_BITS = 16

#: Widenings after which ``run_fixed`` returns a run that still falls short.
MAX_WIDENINGS = 4

# State of the fixed-point run in progress: a product or quotient of nonzero
# values whose parts both lie below _floor (2^_floor_bits, 0 outside a run)
# falls short, and _short keeps the most bits any one fell short by.
_floor = 0
_floor_bits = 0
_short = 0


def _fell_short(bits: int) -> None:
    """Note a nonzero result of about 2^bits units of 2^-w."""
    global _short
    _short = max(_short, _floor_bits - bits + 2)


class Fixed:
    """A complex number (re + i im) 2^-w as two Python integers.

    Operands are Fixed values of the same w or Python ints.  ``+``, ``-``
    and multiplication by an int are exact; a product or quotient of two
    Fixed values, or a quotient by an int, floors each part once, so it
    lands within one unit of 2^-w.  Inside ``run_fixed`` such a result of
    nonzero operands that keeps fewer than prec + ``FIXED_GUARD_BITS``
    significant bits is noted, and the run is widened.  ``== 0`` and
    ``bool`` are exact.  Any other operand, an mpc or a float, raises
    TypeError, so no value of another type can leak into a fixed-point run.
    """

    __slots__ = ("re", "im", "w")

    def __init__(self, re: int, im: int, w: int):
        self.re, self.im, self.w = re, im, w

    def __add__(self, other):
        if type(other) is Fixed:
            return Fixed(self.re + other.re, self.im + other.im, self.w)
        if type(other) is int:
            return Fixed(self.re + (other << self.w), self.im, self.w)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Fixed:
            return Fixed(self.re - other.re, self.im - other.im, self.w)
        if type(other) is int:
            return Fixed(self.re - (other << self.w), self.im, self.w)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is int:
            return Fixed((other << self.w) - self.re, -self.im, self.w)
        return NotImplemented

    def __neg__(self):
        return Fixed(-self.re, -self.im, self.w)

    def __mul__(self, other):
        if type(other) is Fixed:
            ar, ai, br, bi, w = self.re, self.im, other.re, other.im, self.w
            pr, pi = ar * br - ai * bi, ar * bi + ai * br
            re, im = pr >> w, pi >> w
            if -_floor < re < _floor and -_floor < im < _floor and (pr or pi):
                _fell_short(max(abs(pr), abs(pi)).bit_length() - w)
            return Fixed(re, im, w)
        if type(other) is int:
            return Fixed(self.re * other, self.im * other, self.w)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Fixed:
            ar, ai, br, bi, w = self.re, self.im, other.re, other.im, self.w
            norm = br * br + bi * bi
            if not norm:
                raise ZeroDivisionError("division by an exact zero")
            nr, ni = (ar * br + ai * bi) << w, (ai * br - ar * bi) << w
            re, im = nr // norm, ni // norm
            if -_floor < re < _floor and -_floor < im < _floor and (nr or ni):
                _fell_short(max(abs(nr), abs(ni)).bit_length() - norm.bit_length())
            return Fixed(re, im, w)
        if type(other) is int:
            re, im = self.re // other, self.im // other
            if -_floor < re < _floor and -_floor < im < _floor and (self.re or self.im):
                _fell_short(max(abs(self.re), abs(self.im)).bit_length() - abs(other).bit_length())
            return Fixed(re, im, self.w)
        return NotImplemented

    def __pow__(self, n: int):
        """Only x ** 0, the one of x's type, which the generic helpers use."""
        if n != 0:
            return NotImplemented
        return Fixed(1 << self.w, 0, self.w)

    def __eq__(self, other):
        if type(other) is Fixed:
            return self.re == other.re and self.im == other.im
        if type(other) is int:
            return self.im == 0 and self.re == other << self.w
        return NotImplemented

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


def fixed_width(values: Iterable[ComplexValue], prec: int) -> int:
    """W = prec + max(prec, L), L the most bits below the binary point that
    any part of ``values`` needs: 2 prec for inputs of order one, more for
    inputs whose last bit lies below 2^-prec.

    Every input then converts exactly, and any nonzero difference of inputs
    is at least 2^(prec-W), prec bits clear of the fixed-point floor.  This
    is where a run starts; ``run_fixed`` widens it where a product or
    quotient needs more.
    """
    need = 0
    for z in values:
        for _, man, exp, _ in (z.real._mpf_, z.imag._mpf_):
            if man and exp < 0:
                need = max(need, -exp)
    return prec + max(prec, need)


def run_fixed(body, params: Sequence, *args) -> list:
    """``body(*params, *args)`` run on Fixed, its result list converted out.

    Each parameter is a number or a sequence of numbers.  All of them are
    coerced by ``cplx`` and converted in at one width, exactly; ``args``
    (integers, names) pass unchanged; and every entry of the list the body
    returns, which must be a Fixed, comes out rounded to the working
    precision.  This is where the builders and the coefficient families
    convert in once and out once.

    The run starts at ``fixed_width``.  Where a product or quotient of
    nonzero values would keep fewer than prec + ``FIXED_GUARD_BITS``
    significant bits (a large (f)_m divided into b, a product of small
    parameters), the whole run, an error it raised included, is discarded
    and repeated with W grown by the most bits any result fell short by, so
    every product and quotient keeps at least as many bits as an mpc
    operation at the working precision, and none of nonzero operands comes
    out as zero.  Only a value that cancels to a rounding residue can keep
    a run short; after ``MAX_WIDENINGS`` widenings the run is returned as
    it stands.
    """
    global _floor, _floor_bits, _short
    prec = mp.mp.prec
    groups = [[cplx(z) for z in p] if isinstance(p, (list, tuple)) else [cplx(p)] for p in params]
    w = fixed_width((z for group in groups for z in group), prec)
    state = _floor, _floor_bits, _short
    _floor_bits = prec + FIXED_GUARD_BITS
    _floor = 1 << _floor_bits
    try:
        for widening in range(MAX_WIDENINGS + 1):
            _short = 0
            fixed = [[Fixed(*to_fixed_pair(z, w), w) for z in group] for group in groups]
            ins = [group if isinstance(p, (list, tuple)) else group[0] for p, group in zip(params, fixed)]
            try:
                out = body(*ins, *args)
            except (ArithmeticError, IpdHypError):
                if not _short or widening == MAX_WIDENINGS:
                    raise
            else:
                if not _short or widening == MAX_WIDENINGS:
                    return [from_fixed_pair(z.re, z.im, w, prec) for z in out]
            w += _short
    finally:
        _floor, _floor_bits, _short = state


def lift(value: ComplexLike):
    """The one coercion of the generic helpers: an int, an mpc or a Fixed
    comes back unchanged, anything else goes through ``cplx``."""
    if isinstance(value, (int, mp.mpc, Fixed)):
        return value
    return cplx(value)


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
    """The pairs (f_i, m_i) of a parameter and a multiplicity vector, each
    f_i through ``lift``."""
    fs, ms = [lift(e) for e in f], IntVector(m)
    if len(fs) != len(ms):
        raise LengthMismatchError(f"vector lengths differ: {len(fs)} vs {len(ms)}")
    return zip(fs, ms)


def rising(a: ComplexLike, n: int) -> list:
    """The run [(a)_0, (a)_1, ..., (a)_n] of rising factorials, as running
    products; entry k is ``pochhammer(a, k)`` bit for bit.

    Every builder that weights a sum over k by (a)_k reads one run instead
    of building each (a)_k from 1.  The run is in the type of ``lift(a)``,
    (a)_0 = a ** 0 included.
    """
    if n < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {n}")
    a = lift(a)
    run = [a**0]
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
    """Component-wise Pochhammer product (f)_m = (f_1)_{m_1}...(f_r)_{m_r};
    the int 1 for empty vectors."""
    result = 1
    for fi, mi in _paired(f, m):
        result = result * pochhammer(fi, mi)
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
    lists.  The coefficients are in the type of the factors: exact ints for
    int factors, and the first list is [1]."""
    out = [[1]]
    for u, v in factors:
        prev = out[-1]
        nxt = [0] * (len(prev) + 1)
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
    shift = lift(shift)
    factors = []
    for fi, mi in _paired(f, m):
        for j in range(mi):
            u = fi - shift + j
            # sign in u's type, so the top coefficient is not a bare int
            factors.append((u, sign * u**0))
    return linear_products(factors)[-1]


def hyp_terms(
    num: Sequence[ComplexLike],
    den: Sequence[ComplexLike],
    count: int,
) -> list:
    """The terms t_0, ..., t_count of pFq(num; den | 1): t_0 = 1 and
    t_{n+1} = t_n prod(u+n) / (prod(v+n) (n+1)), so t_n = (num)_n / ((den)_n n!).

    The engine's one term loop and its one pole check (the series oracle
    ``hypeval`` keeps its own): a bottom parameter v with v + n = 0 for
    some n < count raises DenominatorPoleError.  The parameters go through
    ``lift``, and t_0 is the one of the first that is not an int (an mpc
    when all are).
    """
    nums = [lift(u) for u in num]
    dens = [lift(v) for v in den]
    term = next((z for z in nums + dens if type(z) is not int), cplx(1)) ** 0
    terms = [term]
    for n in range(count):
        for u in nums:
            term *= u + n
        for v in dens:
            d = v + n
            if d == 0:
                raise DenominatorPoleError(f"bottom parameter {-n} hits a pole at term {n + 1}")
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
    return sum(hyp_terms(num, den, terms))


def terminating_sums(terms: Sequence[ComplexValue]) -> list:
    """sum_{n <= k} (-k)_n t_n for every k = 0..len(terms)-1.

    With t = ``hyp_terms(num, den, K)`` entry k is pFq(-k, num; den | 1):
    the k-th terminating sum of one term sequence, weighted by the exact
    integer (-k)_n = (-1)^n k!/(k-n)!.  O(K^2) multiplications by integers
    replace K+1 term loops over all the parameters.
    """
    sums = []
    for k in range(len(terms)):
        total, weight = 0, 1
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
