"""Numeric substrate: precision context, Pochhammer and gamma machinery.

All arithmetic in this package runs on mpmath complex numbers under one
global decimal-precision context (default 40 significant digits).  The
identities verified downstream involve alternating sums with heavy
cancellation, so fixed double precision is not an option; the context can be
raised but never drops below 16 digits.

The rising factorial (a)_n = a(a+1)...(a+n-1) and its vector form
(f)_m = (f_1)_{m_1}...(f_r)_{m_r} are the basic building blocks.  The module
also provides Stirling numbers of the second kind (exact integers, cached),
running products of linear factors as coefficient lists (behind every
characteristic polynomial and behind (f_1+x)_{m_1}...(f_r+x)_{m_r}),
exact summation of terminating hypergeometric series by term-ratio
recursion, ``nonzero``, the one guard behind every quantity a
transformation needs nonzero, and ``as_nonpositive_integer``, the one
predicate for "z is at, or within a tolerance of, a pole of Gamma".
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence, Union

import mpmath as mp

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


class IntVector:
    """Vector of positive integer multiplicities m = (m_1, ..., m_r).

    The component sum m_1 + ... + m_r is precomputed and available as
    ``total``.
    """

    __slots__ = ("entries", "total")

    def __init__(self, entries: Iterable[int]):
        entries = tuple(int(e) for e in entries)
        if any(e < 1 for e in entries):
            raise ValueError(f"multiplicities must be >= 1, got {entries}")
        self.entries = entries
        self.total = sum(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntVector{self.entries}"


class ParamVector:
    """Vector of complex parameters with element-wise arithmetic.

    Shifting by a scalar and negation act element-wise and preserve length,
    matching the vector conventions used throughout the transformation
    formulas.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[ComplexLike]):
        self.entries = tuple(cplx(e) for e in entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ComplexValue]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> ComplexValue:
        return self.entries[i]

    def __add__(self, scalar: ComplexLike) -> "ParamVector":
        s = cplx(scalar)
        return ParamVector(e + s for e in self.entries)

    def __sub__(self, scalar: ComplexLike) -> "ParamVector":
        s = cplx(scalar)
        return ParamVector(e - s for e in self.entries)

    def __neg__(self) -> "ParamVector":
        return ParamVector(-e for e in self.entries)

    def shifted_by(self, m: IntVector) -> "ParamVector":
        """Element-wise shift f + m by an integer multiplicity vector."""
        return ParamVector(e + mi for e, mi in _paired(self, m))

    def __repr__(self) -> str:
        return f"ParamVector({list(self.entries)})"


VectorLike = Union[ParamVector, Sequence[ComplexLike]]
MultLike = Union[IntVector, Sequence[int]]


def as_param_vector(f: VectorLike) -> ParamVector:
    """Coerce a sequence of complex-like values to a ParamVector."""
    return f if isinstance(f, ParamVector) else ParamVector(f)


def as_int_vector(m: MultLike) -> IntVector:
    """Coerce a sequence of positive integers to an IntVector."""
    return m if isinstance(m, IntVector) else IntVector(m)


def _paired(f: VectorLike, m: MultLike) -> Iterator[tuple[ComplexValue, int]]:
    """The pairs (f_i, m_i) of a parameter and a multiplicity vector."""
    fs, ms = as_param_vector(f), as_int_vector(m)
    if len(fs) != len(ms):
        raise LengthMismatchError(f"vector lengths differ: {len(fs)} vs {len(ms)}")
    return zip(fs, ms)


def pochhammer(a: ComplexLike, n: int) -> ComplexValue:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1.

    Computed as an explicit product, so zero results (a at a nonpositive
    integer with n large enough) come out exact rather than as 0/0 gamma
    quotients.
    """
    if n < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {n}")
    a = cplx(a)
    result = mp.mpc(1)
    for j in range(n):
        result *= a + j
    return result


def pochhammer_vec(f: VectorLike, m: MultLike) -> ComplexValue:
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


_stirling_rows: list[list[int]] = [[1]]
_stirling_lock = threading.Lock()


def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind S(j, k), as an exact integer.

    Grown on demand via the triangular recurrence
    S(j, k) = k S(j-1, k) + S(j-1, k-1); the shared table is lock-protected.
    """
    if j < 0 or k < 0:
        raise ValueError(f"stirling2 indices must be nonnegative: ({j}, {k})")
    if k > j:
        return 0
    if len(_stirling_rows) <= j:
        with _stirling_lock:
            while len(_stirling_rows) <= j:
                prev = _stirling_rows[-1]
                jj = len(_stirling_rows)
                row = [0] * (jj + 1)
                for kk in range(1, jj):
                    row[kk] = kk * prev[kk] + prev[kk - 1]
                row[jj] = 1
                _stirling_rows.append(row)
    return _stirling_rows[j][k]


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
    f: VectorLike,
    m: MultLike,
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


def terminating_pfq(
    num: Sequence[ComplexLike],
    den: Sequence[ComplexLike],
    terms: int,
) -> ComplexValue:
    """Sum the first ``terms``+1 terms of a pFq at x = 1 by exact term recursion.

    Used for terminating series (a nonpositive-integer top parameter -k with
    ``terms`` = k): successive terms are built from the ratio of consecutive
    coefficients, never from gamma quotients, so bottom parameters close to
    negative integers are harmless as long as the pole index lies beyond the
    terminal one.
    """
    nums = [cplx(u) for u in num]
    dens = [cplx(v) for v in den]
    total = mp.mpc(1)
    term = mp.mpc(1)
    for n in range(terms):
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
        total += term
    return total


