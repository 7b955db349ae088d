"""Characteristic polynomials and root extraction.

Each transformation of an IPD hypergeometric function trades the r pairs of
integral-difference parameters for the roots of a characteristic polynomial:
the transformed function carries parameter pairs (root+1; root) downstairs
and upstairs.  This module builds every such polynomial in dense coefficient
form:

* ``build_Q`` / ``build_P``:   degree-m polynomials of the first
  transformation (two independently published forms; P = (f)_m * Q).
* ``build_Qhat`` / ``build_Phat``: degree-m polynomials of the second
  transformation (coefficientwise equal, which is itself a nontrivial
  hypergeometric identity verified by the test-suite).
* ``build_T`` (variants T, T*): degree-(p-1) polynomials of the
  one-negative-integral-difference extensions.
* ``build_L`` (variants L, L-hat): degree-(m-1) polynomials of the
  two-free-parameter extensions, assembled from the Y coefficients.
* ``w_poly``: the degree-(m-1) weight polynomial behind the Y family.

The builders work on plain ascending coefficient lists: running products
of linear factors come from ``kernel.linear_products``, and a weighted sum
of basis polynomials (or a Lagrange interpolation) accumulates into one
list, which is wrapped in ``CPoly`` once, so each result is trimmed once.

``find_roots`` extracts all roots simultaneously by Ehrlich-Aberth
iteration from a seeded random circle: in double precision first (from the
circle itself when a double overflows), then at full precision until the
residual target holds on two consecutive sweeps, the second a polish sweep.
Root multiplicity is not classified: repeated roots come back as
near-coincident values, which is harmless downstream because (root+1, root)
parameter pairs cancel formally in series term ratios.
"""

from __future__ import annotations

import cmath
import random
import sys
from dataclasses import dataclass

import mpmath as mp

from .coeffs import coeff_C, coeff_D, coeff_Y, w_poly_coeffs
from .errors import DegenerateCaseError, NonConvergenceError
from .kernel import (
    ComplexLike,
    ComplexValue,
    ParamVector,
    as_int_vector,
    as_param_vector,
    cplx,
    gamma,
    linear_products,
    nonzero,
    pochhammer,
    pochhammer_vec,
    terminating_pfq,
)

#: Relative magnitude below which a leading coefficient is trimmed.
TRIM_GUARD_DIGITS = 6

#: Seed of find_roots' initial angles, and its budget of Ehrlich-Aberth sweeps.
ROOT_SEED = 0
MAX_SWEEPS = 200


class CPoly:
    """Dense univariate polynomial, ascending complex coefficients.

    Trailing (highest-degree) coefficients smaller than
    10^-(dps-6) relative to the largest coefficient are trimmed at
    construction, so ``degree`` is meaningful.  The zero polynomial is
    explicitly representable (``is_zero``).  There is no arithmetic on
    CPoly: builders work on plain coefficient lists and wrap the result.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [cplx(c) for c in coeffs] or [mp.mpc(0)]
        top = max(abs(c) for c in cs)
        if top == 0:
            cs = [mp.mpc(0)]
        else:
            tol = mp.mpf(10) ** (-(mp.mp.dps - TRIM_GUARD_DIGITS)) * top
            while len(cs) > 1 and abs(cs[-1]) <= tol:
                cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    @property
    def leading(self) -> ComplexValue:
        return self.coeffs[-1]

    def __call__(self, z: ComplexLike) -> ComplexValue:
        return _horner(self.coeffs, cplx(z))

    @classmethod
    def from_roots(cls, roots, lead: ComplexLike = 1) -> "CPoly":
        lead = cplx(lead)
        return cls([c * lead for c in linear_products((-cplx(r), 1) for r in roots)[-1]])

    def __repr__(self) -> str:
        return f"CPoly(degree={self.degree})"


def _horner(coeffs: list, z: ComplexValue) -> ComplexValue:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _split_basis(c0: ComplexValue, n: int) -> list:
    """(t)_k (c0 - t)_{n-k} for k = 0..n: the basis of Q, P-hat and L."""
    rising = linear_products((j, 1) for j in range(n))
    rev = linear_products((c0 + j, -1) for j in range(n))
    basis = []
    for k in range(n + 1):
        prod = [mp.mpc(0)] * (n + 1)
        for i, u in enumerate(rising[k]):
            for j, v in enumerate(rev[n - k]):
                prod[i + j] += u * v
        basis.append(prod)
    return basis


def _weighted_sum(weights, basis) -> CPoly:
    """sum_k weights[k] * basis[k], trimmed once."""
    out = [mp.mpc(0)] * max(len(poly) for poly in basis)
    for w, poly in zip(weights, basis):
        for i, c in enumerate(poly):
            out[i] += c * w
    return CPoly(out)


@dataclass
class RootSet:
    """Roots of a characteristic polynomial plus a quality certificate.

    ``residual`` is max |poly(root)| over the roots, scaled by the leading
    coefficient.  ``sweeps`` is the number of full-precision sweeps
    ``find_roots`` took (0 at degree 1 and below).  A RootSet carries no
    pole flags: whether a root poles a series depends on the parameter the
    transformation makes of it (root or -root), so ``_collapsed`` in
    ``transforms`` tests the values it actually uses.
    """

    roots: ParamVector
    residual: mp.mpf
    sweeps: int = 0


def find_roots(poly: CPoly) -> RootSet:
    """All complex roots of ``poly``, each rounded to the working precision.

    Everything runs at 15 guard digits.  Degree 0 has no roots and degree 1
    the closed form -c_0/c_1.  From degree 2 on, Ehrlich-Aberth iteration
    starts from a circle of Fujiwara-bound radius 2 max_k |c_{n-k}/c_n|^{1/k}
    at angles drawn from ``random.Random(ROOT_SEED)``, so the result is
    deterministic, and runs in two phases, both built on ``_sweep``:

    1. double precision (``_double_start``): sweeps on ``complex`` copies of
       the monic coefficients and the circle, until the largest relative
       step is a few ulp or after ``MAX_SWEEPS`` sweeps.  It only supplies
       the start of phase 2 and never raises; if a coefficient or an iterate
       is not finite in double, phase 2 starts from the circle instead.
    2. full precision: sweeps until the scaled residual max|p(root)| / |lead|
       is at most 10^-(dps-10) on two consecutive sweeps, so the first sweep
       under that target is followed by one polish sweep.  Raises
       NonConvergenceError after ``MAX_SWEEPS`` sweeps.  ``RootSet.sweeps``
       counts the sweeps of this phase.
    """
    if poly.is_zero:
        raise DegenerateCaseError("zero polynomial has no well-defined roots")
    target = mp.mpf(10) ** (-(mp.mp.dps - 10))
    n = poly.degree
    with mp.extradps(15):
        lead = poly.leading
        lead_mag = abs(lead)
        monic = [c / lead for c in poly.coeffs]
        if n < 2:
            z, sweeps = ([-monic[0]] if n == 1 else []), 0
            residual = max((abs(poly(zi)) for zi in z), default=mp.mpf(0)) / lead_mag
        else:
            deriv = [i * c for i, c in enumerate(monic) if i > 0]
            radius = 2 * max(mp.root(abs(c), k) for k, c in enumerate(reversed(monic[:-1]), 1))
            rng = random.Random(ROOT_SEED)
            circle = [
                radius
                * mp.exp(mp.mpc(0, 2 * mp.pi * (k + mp.mpf(rng.random()) / 2) / n + mp.mpf("0.35")))
                for k in range(n)
            ]
            z = [mp.mpc(zi) for zi in _double_start(monic, deriv, circle)]
            tiny = mp.mpf(10) ** (-mp.mp.dps)
            met = False
            for sweeps in range(1, MAX_SWEEPS + 1):
                _sweep(monic, deriv, z, tiny)
                residual = max(abs(poly(zi)) for zi in z) / lead_mag
                if residual <= target and met:
                    break
                met = residual <= target
            else:
                raise NonConvergenceError(
                    f"root iteration failed to reach residual {mp.nstr(target, 5)} "
                    f"within {MAX_SWEEPS} sweeps (got {mp.nstr(residual, 5)})"
                )
    return RootSet(ParamVector(mp.mpc(zi) for zi in z), residual, sweeps)


def _sweep(monic: list, deriv: list, z: list, tiny) -> None:
    """One Gauss-Seidel Ehrlich-Aberth sweep over the iterates ``z``, in place.

    Works alike on ``complex`` and ``mpc`` values; ``tiny`` replaces a
    difference of two iterates that vanishes.
    """
    n = len(z)
    for i in range(n):
        pv = _horner(monic, z[i])
        dv = _horner(deriv, z[i])
        if dv == 0:
            z[i] = z[i] * (1 + 1e-8) + 1e-12
            dv = _horner(deriv, z[i])
            pv = _horner(monic, z[i])
        newton = pv / dv
        shifts = 0
        for j in range(n):
            if j == i:
                continue
            diff = z[i] - z[j]
            if diff == 0:
                diff = tiny
            shifts += 1 / diff
        denom = 1 - newton * shifts
        step = newton if denom == 0 else newton / denom
        z[i] = z[i] - step


def _double_start(monic: list, deriv: list, circle: list) -> list:
    """Phase 1 of find_roots: sweeps in double precision from ``circle``.

    Stops once no iterate moves by more than four ulp, or after
    ``MAX_SWEEPS`` sweeps.  Never raises: returns ``circle`` itself when a
    coefficient or an iterate is not finite in double.
    """
    eps = sys.float_info.epsilon
    md, dd, z = ([complex(c) for c in cs] for cs in (monic, deriv, circle))
    if not all(map(cmath.isfinite, md + dd + z)):
        return circle
    try:
        for _ in range(MAX_SWEEPS):
            old = list(z)
            _sweep(md, dd, z, eps)
            if not all(map(cmath.isfinite, z)):
                return circle
            if all(abs(new - prev) <= 4 * eps * abs(new) for new, prev in zip(z, old)):
                break
    except (OverflowError, ZeroDivisionError):
        return circle
    return z


def build_Q(b: ComplexLike, c: ComplexLike, f, m, route: str = "eq5") -> CPoly:
    """First-transformation characteristic polynomial Q, degree m, Q(0) = 1.

    route "eq5" assembles sum_k (b)_k C_k (t)_k (c-b-m-t)_{m-k} directly in
    coefficient form; route "eq7" evaluates the equivalent rearrangement
    with terminating-hypergeometric weights at m+1 points and interpolates.
    Requires (c-b-m)_m != 0 (otherwise the transformation degenerates).
    """
    b, c = cplx(b), cplx(c)
    f, m = as_param_vector(f), as_int_vector(m)
    mt = m.total
    norm = nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    if route == "eq5":
        weights = [pochhammer(b, k) * coeff_C(k, f, m) / norm for k in range(mt + 1)]
        return _weighted_sum(weights, _split_basis(c - b - mt, mt))
    if route == "eq7":
        fmvals = [
            terminating_pfq(list(f.shifted_by(m)) + [mp.mpc(-k)], list(f), k)
            for k in range(mt + 1)
        ]

        def q_at(t: ComplexValue) -> ComplexValue:
            head = pochhammer(c - b - t - mt, mt) / norm
            tot = mp.mpc(0)
            term_tk = mp.mpc(1)
            for k in range(mt + 1):
                tot += (
                    fmvals[k]
                    * term_tk
                    * pochhammer(b, k)
                    / (pochhammer(1 + t + b - c, k) * mp.factorial(k))
                )
                term_tk *= t + k
            return head * tot

        # interpolation nodes, offset off the real axis and checked against
        # the poles of (1+t+b-c)_k at t = c-b-1-j
        poles = [c - b - 1 - j for j in range(mt)]
        for offset in ("0.5", "-0.7", "1.3", "0.23", "-1.42"):
            nodes = [mp.mpc(j, mp.mpf(offset)) for j in range(mt + 1)]
            clearance = min(
                (abs(t - pole) for t in nodes for pole in poles), default=mp.mpf(1)
            )
            if clearance > mp.mpf("0.05"):
                return _interpolate(nodes, [q_at(t) for t in nodes])
        raise DegenerateCaseError("no pole-free interpolation nodes found")
    raise ValueError(f"unknown route {route!r}")


def _interpolate(nodes, values) -> CPoly:
    """Lagrange interpolation through (node, value) pairs."""
    total = [mp.mpc(0)] * len(nodes)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        basis = [yi]
        for j, xj in enumerate(nodes):
            if j != i:
                # times (t - xj), then divided by (xi - xj)
                scale = 1 / (xi - xj)
                basis = [(lo * -xj + hi) * scale for lo, hi in zip(basis + [0], [0] + basis)]
        for k, c in enumerate(basis):
            total[k] += c
    return CPoly(total)


def build_P(b: ComplexLike, c: ComplexLike, f, m) -> CPoly:
    """Alternative first-transformation polynomial P, degree m, P(0) = (f)_m.

    Assembled from the D coefficients:
    P(x) = (1/(c-b-m)_m) sum_k (b)_k (1-c+b)_k D_k (c-b-m-x)_{m-k}.
    Coefficientwise P = (f)_m * Q, so both share the same roots.
    """
    b, c = cplx(b), cplx(c)
    f, m = as_param_vector(f), as_int_vector(m)
    mt = m.total
    norm = nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    weights = [
        pochhammer(b, k) * pochhammer(1 - c + b, k) * coeff_D(k, f, m, b) / norm
        for k in range(mt + 1)
    ]
    # basis (c-b-m-t)_{m-k}, k = 0..m
    return _weighted_sum(weights, linear_products((c - b - mt + j, -1) for j in range(mt))[::-1])


def build_Qhat(a: ComplexLike, b: ComplexLike, c: ComplexLike, f, m) -> CPoly:
    """Second-transformation polynomial Q-hat, degree m, Q-hat(0) = 1.

    Each summand couples (t)_k with a terminating 3F2 whose second top
    parameter is t+k; expanding in the rising-factorial basis (t)_{k+s} and
    converting to monomials keeps everything exact.
    Requires (c-a-m)_m != 0 and (c-b-m)_m != 0.
    """
    a, b, c = cplx(a), cplx(b), cplx(c)
    f, m = as_param_vector(f), as_int_vector(m)
    mt = m.total
    nonzero(pochhammer(c - a - mt, mt), "(c-a-m)_m")
    nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    coef = [coeff_C(k, f, m) for k in range(mt + 1)]
    return _hatted(mt, coef, a, b, c - a - mt, c - b - mt, c - a - b - mt)


def _hatted(n: int, coef: list, u, v, alpha, beta, gamma_) -> CPoly:
    """sum_k (-1)^k coef_k (u)_k (v)_k / ((alpha)_k (beta)_k) * (t)_k
    * 3F2(k-n, gamma_, t+k; alpha+k, beta+k | 1), a polynomial of degree n.

    The terminating 3F2 is expanded in the rising-factorial basis
    (t)_k (t+k)_s = (t)_{k+s} and the result converted to monomials, so
    everything stays exact.  Shared by Q-hat and L-hat.
    """
    rise = [mp.mpc(0)] * (n + 1)
    for k in range(n + 1):
        weight = (
            (-1) ** k
            * coef[k]
            * pochhammer(u, k)
            * pochhammer(v, k)
            / (pochhammer(alpha, k) * pochhammer(beta, k))
        )
        rise[k] += weight
        term = mp.mpc(1)
        for s in range(n - k):
            term *= ((-n + k + s) * (gamma_ + s)) / (
                (alpha + k + s) * (beta + k + s) * (s + 1)
            )
            rise[k + s + 1] += weight * term
    return _weighted_sum(rise, linear_products((j, 1) for j in range(n)))


def build_Phat(a: ComplexLike, b: ComplexLike, c: ComplexLike, f, m) -> CPoly:
    """Alternative second-transformation polynomial P-hat, degree m.

    P-hat(0) = 1 and P-hat coincides with Q-hat coefficientwise; the two
    builds follow genuinely different summation formulas, so their equality
    is a strong cross-check.
    """
    a, b, c = cplx(a), cplx(b), cplx(c)
    f, m = as_param_vector(f), as_int_vector(m)
    mt = m.total
    norm = nonzero(pochhammer(c - a - mt, mt), "(c-a-m)_m")
    nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    fm_shift = list(f.shifted_by(m))
    weights = [
        (-1) ** k
        * pochhammer(a, k)
        * pochhammer(-b - mt, k)
        * terminating_pfq([mp.mpc(-k), b] + fm_shift, [b + mt - k + 1] + list(f), k)
        / (norm * pochhammer(c - b - mt, k) * mp.factorial(k))
        for k in range(mt + 1)
    ]
    return _weighted_sum(weights, _split_basis(c - a - mt, mt))


def build_T(
    b: ComplexLike,
    p: int,
    f,
    m,
    variant: str = "T",
    a: ComplexLike | None = None,
) -> CPoly:
    """Degree-(p-1) polynomial of the c = b+p extensions (variants T, Tstar).

    T(z)  = sum_q (-1)^{q-1} (f-b-q+1)_m Gamma(b+q-1)
            / ((q-1)!(p-q)!) * (b+q+z)_{p-q}
    T*(z) adds the factor (b+1-a+z)_{q-1} / Gamma(b+q-a) per summand.
    A result with every coefficient zero comes back as the zero polynomial
    (``is_zero``), which ``find_roots`` rejects.
    """
    b = cplx(b)
    f, m = as_param_vector(f), as_int_vector(m)
    p = int(p)
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if variant not in ("T", "Tstar"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "Tstar":
        if a is None:
            raise ValueError("variant Tstar requires the parameter a")
        a = cplx(a)
    weights, basis = [], []
    for q in range(1, p + 1):
        weight = (
            (-1) ** (q - 1)
            * pochhammer_vec(f - (b + q - 1), m)
            * gamma(b + q - 1)
            / (mp.factorial(q - 1) * mp.factorial(p - q))
        )
        factors = [(b + q + j, 1) for j in range(p - q)]
        if variant == "Tstar":
            weight /= gamma(b + q - a)
            factors += [(b + 1 - a + j, 1) for j in range(q - 1)]
        weights.append(weight)
        basis.append(linear_products(factors)[-1])
    return _weighted_sum(weights, basis)


def build_L(
    a: ComplexLike,
    d: ComplexLike,
    e: ComplexLike,
    b: ComplexLike,
    f,
    m,
    variant: str = "L",
) -> CPoly:
    """Degree-(m-1) polynomial of the two-free-parameter extensions.

    L(t)     = sum_k (d)_k Y_k(b, f, m) (t)_k (e-d-m+1-t)_{m-1-k};
    L-hat(t) couples (t)_k with a terminating 3F2, expanded in the
    rising-factorial basis exactly as for Q-hat.
    Requires (e-d-m+1)_{m-1} != 0, and for L-hat also
    (e-a-m+1)_{m-1} != 0.  A result with every coefficient zero comes back
    as the zero polynomial (``is_zero``), which ``find_roots`` rejects.
    """
    a, d, e, b = cplx(a), cplx(d), cplx(e), cplx(b)
    f, m = as_param_vector(f), as_int_vector(m)
    mt = m.total
    if mt < 1:
        raise ValueError("need m_total >= 1")
    nonzero(pochhammer(e - d - mt + 1, mt - 1), "(e-d-m+1)_{m-1}")
    yk = [coeff_Y(k, b, f, m) for k in range(mt)]
    if variant == "L":
        weights = [pochhammer(d, k) * yk[k] for k in range(mt)]
        return _weighted_sum(weights, _split_basis(e - d - mt + 1, mt - 1))
    if variant == "Lhat":
        nonzero(pochhammer(e - a - mt + 1, mt - 1), "(e-a-m+1)_{m-1}")
        return _hatted(mt - 1, yk, a, d, e - a - mt + 1, e - d - mt + 1, e - a - d - mt + 1)
    raise ValueError(f"unknown variant {variant!r}")


def w_poly(b: ComplexLike, f, m) -> CPoly:
    """Weight polynomial W of degree m-1 (see coeffs.w_poly_coeffs)."""
    return CPoly(w_poly_coeffs(b, f, m))
