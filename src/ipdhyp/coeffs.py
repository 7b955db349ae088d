"""Named coefficient families of the IPD transformation theory.

Four families appear throughout the transformations, and each one that
admits more than one published formula is implemented by every route so the
routes cross-validate:

* ``coeff_C``:  C_{k,r}(f, m), the expansion coefficients tying the shifted
  product (f+x)_m to falling factorials.  Routes: Stirling-weighted sum over
  the sigma generating-function coefficients, and a terminating
  (r+1)F_r sum.
* ``coeff_D``:  D_k(f, m, b), the analogous family for (f-b-t)_m.  Routes:
  Stirling/alpha sum and a terminating (r+1)F_r form; a forward-difference
  oracle is exercised in the test-suite.
* ``w_poly`` and ``coeff_Y``:  the degree-(m-1) weight polynomial
  W(n) = b((f+n)_m - (f-b)_m) / ((b+n)(f)_m) and its Stirling transform
  Y_l.  Three routes for Y_l: delta/Stirling sum, terminating
  (r+2)F_{r+1} difference, and a sum over Norlund coefficients.
* ``norlund_g``:  the coefficients g_n(a; b) of the inverse-factorial
  expansion of Gamma(z+nu)Gamma(z+a)/Gamma(z+b).  Routes: one-step
  recurrence in the vector length, the explicit nested-chain solution, and
  closed forms for p = 2, 3, 4.

Default route per family is the terminating-hypergeometric one (no Stirling
table growth); the other routes are kept for the cross-check suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .errors import IndexOutOfRangeError, LengthMismatchError, UnsupportedPError
from .kernel import (
    ComplexLike,
    ComplexValue,
    IntVector,
    ParamVector,
    as_int_vector,
    as_param_vector,
    cplx,
    genfunc_coeffs,
    nonzero,
    pochhammer,
    pochhammer_vec,
    stirling2,
    terminating_pfq,
)


@dataclass(frozen=True)
class IpdSpec:
    """Parameter tuple of an IPD hypergeometric function.

    Describes r+2_F_r+1(a, b, f+m; c, f | x): the free top parameters ``a``
    and ``b``, the free bottom parameter ``c``, and the IPD pairs f_i + m_i
    over f_i.  ``c`` may be omitted for the degenerate constructions, where
    it is implied structurally as b + p.
    """

    b: ComplexValue
    f: ParamVector
    m: IntVector
    a: ComplexValue
    c: Optional[ComplexValue] = None

    def __post_init__(self):
        object.__setattr__(self, "b", cplx(self.b))
        object.__setattr__(self, "f", as_param_vector(self.f))
        object.__setattr__(self, "m", as_int_vector(self.m))
        object.__setattr__(self, "a", cplx(self.a))
        if self.c is not None:
            object.__setattr__(self, "c", cplx(self.c))
        if len(self.f) != len(self.m):
            raise LengthMismatchError(
                f"f and m lengths differ: {len(self.f)} vs {len(self.m)}"
            )

    @property
    def m_total(self) -> int:
        return self.m.total


@dataclass(frozen=True)
class NorlundArgs:
    """Argument pair (a; b) of g_n(a; b), with len(b) = len(a) + 1.

    g_n is a polynomial separately symmetric in the components of a and of
    b; the component count of b fixes the order p.
    """

    a: ParamVector
    b: ParamVector

    def __post_init__(self):
        object.__setattr__(self, "a", as_param_vector(self.a))
        object.__setattr__(self, "b", as_param_vector(self.b))
        if len(self.b) != len(self.a) + 1:
            raise LengthMismatchError(
                f"need len(b) = len(a)+1, got {len(self.a)} and {len(self.b)}"
            )

    @property
    def p(self) -> int:
        return len(self.b)

    def shifted(self, alpha: ComplexLike) -> "NorlundArgs":
        """Shift every component by alpha; g_n is invariant under this."""
        return NorlundArgs(self.a + alpha, self.b + alpha)


def _stirling_sum(seq: list, k: int) -> ComplexValue:
    """sum_{j>=k} seq_j S(j, k), S the Stirling numbers of the second kind."""
    total = mp.mpc(0)
    for j in range(k, len(seq)):
        total += seq[j] * stirling2(j, k)
    return total


def coeff_C(k: int, f, m, route: str = "hyp") -> ComplexValue:
    """C_{k,r}(f, m) for 0 <= k <= m_total.

    route "hyp":      (-1)^k / k! * (r+1)F_r(-k, f+m; f) summed exactly.
    route "stirling": (1/(f)_m) * sum_{j>=k} sigma_j S(j, k) with sigma the
                      coefficients of (f_1+x)_{m_1}...(f_r+x)_{m_r}.

    C_0 = 1 and C_m = 1/(f)_m always.
    """
    f, m = as_param_vector(f), as_int_vector(m)
    mt = m.total
    if not 0 <= k <= mt:
        raise IndexOutOfRangeError(f"need 0 <= k <= {mt}, got {k}")
    if route == "hyp":
        num = list(f.shifted_by(m)) + [mp.mpc(-k)]
        val = terminating_pfq(num, list(f), k)
        return (-1) ** k * val / mp.factorial(k)
    if route == "stirling":
        fm = nonzero(pochhammer_vec(f, m), "(f)_m")
        return _stirling_sum(genfunc_coeffs(f, m), k) / fm
    raise ValueError(f"unknown route {route!r}")


def coeff_D(k: int, f, m, b: ComplexLike, route: str = "hyp") -> ComplexValue:
    """D_k(f, m, b) for 0 <= k <= m_total.

    route "hyp":      (-1)^k (f-b)_m / k! * (r+1)F_r(-k, 1-f+b; 1-f+b-m).
    route "stirling": sum_{j>=k} alpha_j S(j, k) with alpha the coefficients
                      of (f-b-t)_m.

    D_0 = (f-b)_m.  Equivalently D_k is the k-th forward difference of
    t -> (f-b-t)_m at t = 0, divided by k!.
    """
    f, m = as_param_vector(f), as_int_vector(m)
    b = cplx(b)
    mt = m.total
    if not 0 <= k <= mt:
        raise IndexOutOfRangeError(f"need 0 <= k <= {mt}, got {k}")
    if route == "hyp":
        fbm = pochhammer_vec(f - b, m)
        num = [1 - fi + b for fi in f] + [mp.mpc(-k)]
        den = [1 - fi + b - mi for fi, mi in zip(f, m)]
        val = terminating_pfq(num, den, k)
        return (-1) ** k * fbm * val / mp.factorial(k)
    if route == "stirling":
        return _stirling_sum(genfunc_coeffs(f, m, shift=b, sign=-1), k)
    raise ValueError(f"unknown route {route!r}")


def w_poly_coeffs(b: ComplexLike, f, m) -> list:
    """Ascending coefficients delta_0..delta_{m-1} of the weight polynomial.

    W(x) = b((f+x)_m - (f-b)_m) / ((b+x)(f)_m) has degree m_total - 1; its
    leading coefficient is b/(f)_m and its free term
    ((f)_m - (f-b)_m)/(f)_m.  Computed by exact synthetic division of the
    numerator by (x + b) (the numerator vanishes at x = -b identically).
    """
    f, m = as_param_vector(f), as_int_vector(m)
    b = cplx(b)
    mt = m.total
    if mt < 1:
        raise ValueError("need m_total >= 1")
    fm = nonzero(pochhammer_vec(f, m), "(f)_m")
    nonzero(b, "b")
    numerator = genfunc_coeffs(f, m)
    numerator[0] -= pochhammer_vec(f - b, m)
    # divide by (x + b); remainder is analytically zero and is dropped
    quotient = [mp.mpc(0)] * mt
    carry = numerator[mt]
    for kk in range(mt - 1, -1, -1):
        quotient[kk] = carry
        carry = numerator[kk] - carry * b
    return [b * qk / fm for qk in quotient]


def coeff_Y(l: int, b: ComplexLike, f, m, route: str = "hyp") -> ComplexValue:
    """Y_l(b, f, m) for 0 <= l <= m_total - 1.

    route "hyp":      (-1)^l/l! (r+2)F_{r+1}(-l, b, f+m; b+1, f)
                      - (-1)^l (f-b)_m / ((b+1)_l (f)_m).
    route "stirling": sum_{k>=l} delta_k S(k, l) over the W coefficients.
    route "norlund":  (-1)^{m-l-1} b/(f)_m *
                      sum_i (-1)^i g_{m-1-l-i}(-f; -f-m, l) (1-b)_i.
    """
    f, m = as_param_vector(f), as_int_vector(m)
    b = cplx(b)
    mt = m.total
    if not 0 <= l <= mt - 1:
        raise IndexOutOfRangeError(f"need 0 <= l <= {mt - 1}, got {l}")
    fm = nonzero(pochhammer_vec(f, m), "(f)_m")
    if route == "hyp":
        fbm = pochhammer_vec(f - b, m)
        num = [b] + list(f.shifted_by(m)) + [mp.mpc(-l)]
        den = [b + 1] + list(f)
        val = terminating_pfq(num, den, l)
        sgn = (-1) ** l
        return sgn * val / mp.factorial(l) - sgn * fbm / (pochhammer(b + 1, l) * fm)
    if route == "stirling":
        return _stirling_sum(w_poly_coeffs(b, f, m), l)
    if route == "norlund":
        a_vec = ParamVector([-fi for fi in f])
        b_vec = ParamVector([-fi - mi for fi, mi in zip(f, m)] + [mp.mpc(l)])
        total = mp.mpc(0)
        for i in range(mt - l):
            g = norlund_g(mt - 1 - l - i, NorlundArgs(a_vec, b_vec), route="explicit")
            total += (-1) ** i * g * pochhammer(1 - b, i)
        return (-1) ** (mt - l - 1) * b / fm * total
    raise ValueError(f"unknown route {route!r}")


def _norlund_recurrence(n: int, a: tuple, b: tuple) -> ComplexValue:
    p = len(b)
    if p == 1:
        return mp.mpc(1) if n == 0 else mp.mpc(0)
    alpha, beta = a[-1], b[-1]
    a_in, b_in = a[:-1], b[:-1]
    inner = [_norlund_recurrence(s, a_in, b_in) for s in range(n + 1)]
    nu = sum(b_in, mp.mpc(0)) - sum(a_in, mp.mpc(0))
    total = mp.mpc(0)
    for s in range(n + 1):
        if inner[s] == 0:
            continue
        total += (
            pochhammer(beta - alpha, n - s)
            / mp.factorial(n - s)
            * pochhammer(nu - alpha + s, n - s)
            * inner[s]
        )
    return total


def _norlund_explicit(n: int, a: tuple, b: tuple) -> ComplexValue:
    p = len(b)
    if p == 1:
        return mp.mpc(1) if n == 0 else mp.mpc(0)
    psi = [
        sum(b[: i + 1], mp.mpc(0)) - sum(a[: i + 1], mp.mpc(0)) for i in range(p - 1)
    ]
    diffs = [b[i + 1] - a[i] for i in range(p - 1)]
    total = mp.mpc(0)
    for chain in itertools.combinations_with_replacement(range(n + 1), p - 2):
        js = (0,) + chain + (n,)
        prod = mp.mpc(1)
        for i in range(1, p):
            d = js[i] - js[i - 1]
            prod *= (
                pochhammer(psi[i - 1] + js[i - 1], d)
                / mp.factorial(d)
                * pochhammer(diffs[i - 1], d)
            )
            if prod == 0:
                break
        total += prod
    return total


def _norlund_closed(n: int, a: tuple, b: tuple) -> ComplexValue:
    p = len(b)
    if p == 2:
        return pochhammer(b[0] - a[0], n) * pochhammer(b[1] - a[0], n) / mp.factorial(n)
    if p == 3:
        nu3 = sum(b, mp.mpc(0)) - sum(a, mp.mpc(0))
        head = pochhammer(nu3 - b[1], n) * pochhammer(nu3 - b[2], n) / mp.factorial(n)
        hyp = terminating_pfq(
            [mp.mpc(-n), b[0] - a[0], b[0] - a[1]], [nu3 - b[1], nu3 - b[2]], n
        )
        return head * hyp
    if p == 4:
        nu4 = sum(b, mp.mpc(0)) - sum(a, mp.mpc(0))
        nu2 = b[0] + b[1] - a[0]
        total = mp.mpc(0)
        outer = mp.mpc(1)
        for k in range(n + 1):
            inner = terminating_pfq(
                [mp.mpc(-k), b[0] - a[0], b[1] - a[0]], [nu2 - a[1], nu2 - a[2]], k
            )
            total += outer * inner
            outer *= (
                (-n + k)
                * (nu2 - a[1] + k)
                * (nu2 - a[2] + k)
                / ((nu4 - b[2] + k) * (nu4 - b[3] + k) * (k + 1))
            )
        return (
            pochhammer(nu4 - b[2], n) * pochhammer(nu4 - b[3], n) / mp.factorial(n)
        ) * total
    raise UnsupportedPError(f"closed form available only for p in {{2, 3, 4}}, got p = {p}")


def norlund_g(n: int, args: NorlundArgs, route: str = "recurrence") -> ComplexValue:
    """Inverse-factorial expansion coefficient g_n(a; b).

    route "recurrence": peel one (a, b) component pair at a time.
    route "explicit":   nested sum over monotone index chains
                        0 <= j_1 <= ... <= j_{p-2} <= n.
    route "closed":     closed forms, p in {2, 3, 4} only.

    g_0 = 1 for every argument pair, and g_n(a+alpha; b+alpha) = g_n(a; b)
    for any shift alpha.
    """
    if n < 0:
        raise IndexOutOfRangeError(f"need n >= 0, got {n}")
    a = args.a.entries
    b = args.b.entries
    if route == "recurrence":
        return _norlund_recurrence(n, a, b)
    if route == "explicit":
        return _norlund_explicit(n, a, b)
    if route == "closed":
        return _norlund_closed(n, a, b)
    raise ValueError(f"unknown route {route!r}")
