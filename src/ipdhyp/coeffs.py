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
sums); the other routes are kept for the cross-check suite and run on mpc.
That route is a vector over the index: ``CoeffFamilies(f, m)`` computes C,
D and Y once per build, each as one terminating-sum family over a single
term sequence (``kernel.terminating_family``), and Y shares the sequence
of C.  Its algebra, like that of ``w_poly_coeffs``, uses only operators and
int constants, so it runs on the type of its inputs: on ``kernel.Fixed``
inside a builder's fixed-point run, which reads the vectors directly.
Called with mpc values, as ``transforms`` calls it, each method converts
f and b in once at W = 2 prec bits plus what the inputs need (more where
a product or quotient needs it), and the vector out once, rounded to the
working precision (``kernel.run_fixed``).  ``coeff_C``,
``coeff_D`` and ``coeff_Y`` return entry k of the same vector, so a
builder and a single coefficient take one code path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .errors import (
    DenominatorPoleError,
    IndexOutOfRangeError,
    LengthMismatchError,
    UnsupportedPError,
)
from .kernel import (
    ComplexLike,
    ComplexValue,
    Fixed,
    IntVector,
    ParamVector,
    cplx,
    genfunc_coeffs,
    hyp_terms,
    lift,
    nonzero,
    pochhammer,
    pochhammer_vec,
    rising,
    run_fixed,
    stirling2,
    terminating_family,
    terminating_pfq,
    terminating_sums,
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
        object.__setattr__(self, "f", ParamVector(self.f))
        object.__setattr__(self, "m", IntVector(self.m))
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
        object.__setattr__(self, "a", ParamVector(self.a))
        object.__setattr__(self, "b", ParamVector(self.b))
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


def _checked(index: int, top: int) -> int:
    if not 0 <= index <= top:
        raise IndexOutOfRangeError(f"need 0 <= k <= {top}, got {index}")
    return index


class CoeffFamilies:
    """The "hyp" routes of C_k, D_k and Y_l for one (f, m), each a vector
    over its index, built once.

    C and Y are terminating sums over the term sequence
    sigma_n = (f+m)_n / ((f)_n n!) of (f+m; f), which is made once and
    shared, as is (f)_m; D sums the sequence of (1-f+b; 1-f+b-m).  Each
    method takes the last index it needs (default: all of them), so a
    family raises DenominatorPoleError exactly where the per-index
    terminating sum of its last entry does, and entry k does not depend on
    how far the vector goes.

    The algebra (``_fm_list``, ``_C``, ``_D``, ``_Y``) runs on the type of
    f.  Inside a builder's fixed-point run f holds ``Fixed`` values and so
    do the vectors.  Given mpc values, as ``transforms`` and ``coeff_*``
    give them, each public method is one ``run_fixed``: f and its own b
    convert in once at one width, and the vector comes out once as mpc.
    """

    def __init__(self, f, m):
        self.f, self.m = tuple(lift(fi) for fi in f), IntVector(m)
        if len(self.f) != len(self.m):
            raise LengthMismatchError(f"vector lengths differ: {len(self.f)} vs {len(self.m)}")
        self.total = self.m.total
        self._sigma = []
        self._fm = None

    def _run(self, name: str, params: tuple, *args) -> list:
        """Method ``name`` of the algebra on ``params`` and ``args``: directly
        on Fixed (or on mpc when there is no f to convert), else as one
        fixed-point run of a fresh family of the converted f."""
        if not self.f or isinstance(self.f[0], Fixed):
            return getattr(self, name)(*params, *args)
        return run_fixed(
            lambda f, *ps: getattr(CoeffFamilies(f, self.m), name)(*ps, *args), (self.f,) + params
        )

    @property
    def fm(self) -> ComplexValue:
        """(f)_m, which must not vanish (DegenerateCaseError)."""
        return self._run("_fm_list", ())[0]

    def _fm_list(self) -> list:
        if self._fm is None:
            self._fm = nonzero(pochhammer_vec(self.f, self.m), "(f)_m")
        return [self._fm]

    def _sigma_to(self, upto: int) -> list:
        if len(self._sigma) <= upto:
            shifted = [fi + mi for fi, mi in zip(self.f, self.m)]
            self._sigma = hyp_terms(shifted, self.f, upto)
        return self._sigma[: upto + 1]

    def C(self, upto: Optional[int] = None) -> list:
        """[C_0, ..., C_upto]: C_k = (-1)^k / k! (r+1)F_r(-k, f+m; f | 1)."""
        upto = self.total if upto is None else _checked(upto, self.total)
        return self._run("_C", (), upto)

    def _C(self, upto: int) -> list:
        sums = terminating_sums(self._sigma_to(upto))
        return [(-1) ** k * val / math.factorial(k) for k, val in enumerate(sums)]

    def D(self, b: ComplexLike, upto: Optional[int] = None) -> list:
        """[D_0, ..., D_upto]:
        D_k = (-1)^k (f-b)_m / k! (r+1)F_r(-k, 1-f+b; 1-f+b-m | 1)."""
        upto = self.total if upto is None else _checked(upto, self.total)
        return self._run("_D", (lift(b),), upto)

    def _D(self, b, upto: int) -> list:
        fbm = pochhammer_vec([fi - b for fi in self.f], self.m)
        num = [1 - fi + b for fi in self.f]
        den = [1 - fi + b - mi for fi, mi in zip(self.f, self.m)]
        sums = terminating_family(num, den, upto)
        return [(-1) ** k * fbm * val / math.factorial(k) for k, val in enumerate(sums)]

    def Y(self, b: ComplexLike, upto: Optional[int] = None) -> list:
        """[Y_0, ..., Y_upto] (default upto m_total - 1):
        Y_l = (-1)^l/l! (r+2)F_{r+1}(-l, b, f+m; b+1, f | 1)
              - (-1)^l (f-b)_m / ((b+1)_l (f)_m).

        The terms of the (r+2)F_{r+1} are y_0 = 1 and y_n = b sigma_n/(b+n):
        (b)_n/(b+1)_n = b/(b+n).  At b = -n, 1 <= n <= upto, the bottom
        parameter b+1 poles the series and DenominatorPoleError is raised.
        """
        top = self.total - 1
        upto = top if upto is None else _checked(upto, top)
        if upto < 0:
            return []
        return self._run("_Y", (lift(b),), upto)

    def _Y(self, b, upto: int) -> list:
        fm = self._fm_list()[0]
        for n in range(1, upto + 1):
            if b + n == 0:
                raise DenominatorPoleError(f"bottom parameter {1 - n} hits a pole at term {n}")
        sigma = self._sigma_to(upto)
        terms = [sigma[0]] + [b * s / (b + n) for n, s in enumerate(sigma[1:], 1)]
        fbm = pochhammer_vec([fi - b for fi in self.f], self.m)
        b1 = rising(b + 1, upto)
        out = []
        for l, val in enumerate(terminating_sums(terms)):
            sgn = (-1) ** l
            out.append(sgn * val / math.factorial(l) - sgn * fbm / (b1[l] * fm))
        return out


def coeff_C(k: int, f, m, route: str = "hyp") -> ComplexValue:
    """C_{k,r}(f, m) for 0 <= k <= m_total.

    route "hyp":      (-1)^k / k! * (r+1)F_r(-k, f+m; f) summed exactly;
                      entry k of ``CoeffFamilies(f, m).C``.
    route "stirling": (1/(f)_m) * sum_{j>=k} sigma_j S(j, k) with sigma the
                      coefficients of (f_1+x)_{m_1}...(f_r+x)_{m_r}.

    C_0 = 1 and C_m = 1/(f)_m always.
    """
    f, m = ParamVector(f), IntVector(m)
    _checked(k, m.total)
    if route == "hyp":
        return CoeffFamilies(f, m).C(k)[k]
    if route == "stirling":
        fm = nonzero(pochhammer_vec(f, m), "(f)_m")
        return _stirling_sum(genfunc_coeffs(f, m), k) / fm
    raise ValueError(f"unknown route {route!r}")


def coeff_D(k: int, f, m, b: ComplexLike, route: str = "hyp") -> ComplexValue:
    """D_k(f, m, b) for 0 <= k <= m_total.

    route "hyp":      (-1)^k (f-b)_m / k! * (r+1)F_r(-k, 1-f+b; 1-f+b-m);
                      entry k of ``CoeffFamilies(f, m).D(b)``.
    route "stirling": sum_{j>=k} alpha_j S(j, k) with alpha the coefficients
                      of (f-b-t)_m.

    D_0 = (f-b)_m.  Equivalently D_k is the k-th forward difference of
    t -> (f-b-t)_m at t = 0, divided by k!.
    """
    f, m = ParamVector(f), IntVector(m)
    b = cplx(b)
    _checked(k, m.total)
    if route == "hyp":
        return CoeffFamilies(f, m).D(b, k)[k]
    if route == "stirling":
        return _stirling_sum(genfunc_coeffs(f, m, shift=b, sign=-1), k)
    raise ValueError(f"unknown route {route!r}")


def w_poly_coeffs(b: ComplexLike, f, m) -> list:
    """Ascending coefficients delta_0..delta_{m-1} of the weight polynomial.

    W(x) = b((f+x)_m - (f-b)_m) / ((b+x)(f)_m) has degree m_total - 1; its
    leading coefficient is b/(f)_m and its free term
    ((f)_m - (f-b)_m)/(f)_m.  Computed by exact synthetic division of the
    numerator by (x + b) (the numerator vanishes at x = -b identically).
    The algebra runs on the type of b and f: ``charpoly.w_poly`` runs it on
    Fixed.
    """
    f, m, b = [lift(fi) for fi in f], IntVector(m), lift(b)
    mt = m.total
    if mt < 1:
        raise ValueError("need m_total >= 1")
    fm = nonzero(pochhammer_vec(f, m), "(f)_m")
    nonzero(b, "b")
    numerator = genfunc_coeffs(f, m)
    numerator[0] -= pochhammer_vec([fi - b for fi in f], m)
    # divide by (x + b); remainder is analytically zero and is dropped
    quotient = [0] * mt
    carry = numerator[mt]
    for kk in range(mt - 1, -1, -1):
        quotient[kk] = carry
        carry = numerator[kk] - carry * b
    return [b * qk / fm for qk in quotient]


def coeff_Y(l: int, b: ComplexLike, f, m, route: str = "hyp") -> ComplexValue:
    """Y_l(b, f, m) for 0 <= l <= m_total - 1.

    route "hyp":      (-1)^l/l! (r+2)F_{r+1}(-l, b, f+m; b+1, f)
                      - (-1)^l (f-b)_m / ((b+1)_l (f)_m);
                      entry l of ``CoeffFamilies(f, m).Y(b)``.
    route "stirling": sum_{k>=l} delta_k S(k, l) over the W coefficients.
    route "norlund":  (-1)^{m-l-1} b/(f)_m *
                      sum_i (-1)^i g_{m-1-l-i}(-f; -f-m, l) (1-b)_i.
    """
    f, m = ParamVector(f), IntVector(m)
    b = cplx(b)
    mt = m.total
    if not 0 <= l <= mt - 1:
        raise IndexOutOfRangeError(f"need 0 <= l <= {mt - 1}, got {l}")
    if route == "hyp":
        return CoeffFamilies(f, m).Y(b, l)[l]
    fm = nonzero(pochhammer_vec(f, m), "(f)_m")
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
    if route == "recurrence":
        return _norlund_recurrence(n, args.a, args.b)
    if route == "explicit":
        return _norlund_explicit(n, args.a, args.b)
    if route == "closed":
        return _norlund_closed(n, args.a, args.b)
    raise ValueError(f"unknown route {route!r}")
