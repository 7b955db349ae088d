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

Every builder is rational in its parameters (no Gamma is evaluated), and
its algebra is one body (``_q_eq5``, ``_q_eq7``, ``_p``, ``_qhat``,
``_phat``, ``_t``, ``_l``, and ``coeffs.w_poly_coeffs`` for W) that uses
only operators and int constants on plain ascending coefficient lists:
running products of linear factors come from ``kernel.linear_products``,
and a weighted sum of basis polynomials (or a Lagrange interpolation)
accumulates into one list.  The weights read each coefficient family once
per build, as a vector over k (``coeffs.CoeffFamilies``), and each
Pochhammer weight (a)_k from one run ``kernel.rising(a, m)``; no weight is
rebuilt index by index.  The public builder runs its body in fixed point,
``CPoly(kernel.run_fixed(body, params, ...))``: the parameters convert in
once, exactly, at W = 2 prec bits plus what the inputs need (more where a
product or quotient of the run needs it to keep its relative precision),
the body runs on ``kernel.Fixed``, and the coefficients convert out once,
rounded to the working precision, into one ``CPoly``, which trims only
exactly zero top coefficients.  The same body run on mpc is the reference
the tests keep.  At 2 prec bits the cancellation among a builder's
weights costs none of the working digits up to m = 12, where rounding
after every mpc operation lost 10-13 of 40.

``find_roots`` extracts all roots simultaneously by Ehrlich-Aberth
iteration from a seeded random circle: in double precision first (from the
circle itself when a double overflows), then at full precision until the
residual target holds on two consecutive sweeps, the second a polish sweep.
One sweep body, ``_sweep``, serves both phases: it runs on ``complex``
first and on ``kernel.Fixed`` at a width wp wide enough for the target at
the largest root and for the relative precision of the smallest.
Root multiplicity is not classified: repeated roots come back as
near-coincident values, which is harmless downstream because (root+1, root)
parameter pairs cancel formally in series term ratios.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from .coeffs import CoeffFamilies, w_poly_coeffs
from .errors import DegenerateCaseError, NonConvergenceError
from .kernel import (
    ComplexLike,
    ComplexValue,
    Fixed,
    IntVector,
    ParamVector,
    cplx,
    from_fixed_pair,
    linear_products,
    nonzero,
    pochhammer,
    pochhammer_vec,
    rising,
    run_fixed,
    terminating_family,
    terminating_pfq,
    to_fixed_pair,
)

#: Seed of find_roots' initial angles, and its budget of Ehrlich-Aberth sweeps.
ROOT_SEED = 0
MAX_SWEEPS = 200

#: Largest relative step at which a double sweep that no longer halves the
#: step has reached the rounding floor of an ill-conditioned root.
DOUBLE_STALL_STEP = 1e-11


class CPoly:
    """Dense univariate polynomial, ascending complex coefficients.

    Trailing (highest-degree) coefficients that are exactly zero are
    trimmed at construction, so ``degree`` is meaningful.  A nonzero one is
    kept however small: the builders' fixed-point runs keep each
    coefficient's relative precision, and a small top coefficient is
    genuine degree (Q at c-b = 1e10, m = 12, has every root near 1e10 and
    a top coefficient of 2e-121).  The zero polynomial is explicitly
    representable (``is_zero``).  There is no arithmetic on CPoly: builders
    work on plain coefficient lists and wrap the result.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [cplx(c) for c in coeffs] or [mp.mpc(0)]
        while len(cs) > 1 and cs[-1] == 0:
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


def _horner(coeffs: list, z):
    """p(z) for ascending ``coeffs``, in the type of z and the coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _split_basis(c0, n: int) -> list:
    """(t)_k (c0 - t)_{n-k} for k = 0..n: the basis of Q, P-hat and L."""
    rising = linear_products((j, 1) for j in range(n))
    rev = linear_products((c0 + j, -1) for j in range(n))
    basis = []
    for k in range(n + 1):
        prod = [0] * (n + 1)
        for i, u in enumerate(rising[k]):
            for j, v in enumerate(rev[n - k]):
                prod[i + j] += u * v
        basis.append(prod)
    return basis


def _weighted_sum(weights, basis) -> list:
    """sum_k weights[k] * basis[k], as one coefficient list."""
    out = [0] * max(len(poly) for poly in basis)
    for w, poly in zip(weights, basis):
        for i, c in enumerate(poly):
            out[i] += c * w
    return out


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

    The monic coefficients are made at 15 guard digits.  Degree 0 has no
    roots and degree 1 the closed form -c_0/c_1.  From degree 2 on,
    Ehrlich-Aberth iteration starts from a circle of Fujiwara-bound radius
    R = 2 max_k |c_{n-k}/c_n|^{1/k} at angles drawn from
    ``random.Random(ROOT_SEED)``, so the result is deterministic, and runs
    in two phases:

    1. double precision (``_double_start``): ``_sweep`` on ``complex``
       copies of the monic coefficients from the circle built in double,
       until the largest relative step is a few ulp, or stalls at most
       ``DOUBLE_STALL_STEP`` without halving, or after ``MAX_SWEEPS``
       sweeps.  It only supplies the start of phase 2 and never raises; if
       the radius, a coefficient or an iterate is not finite in double,
       phase 2 starts from the circle built at full precision instead.
    2. full precision, in fixed point: ``_sweep`` and the residual's
       ``_horner`` on ``kernel.Fixed`` values of width wp, into which the
       monic coefficients and the iterates convert once and out of which
       the roots convert once (not through ``run_fixed``, whose width rule
       is the builders').  wp is the bits of the 15-guard-digit context
       plus n times the larger of log2 R and the bits below 1 of the
       smallest nonzero start iterate: the first keeps the rounding of p at
       iterates up to R far below the target, the second keeps the
       relative precision of small roots, near which p is of order |z|^n.
       Sweeps run until the scaled residual max|p(root)| / |lead| is at
       most 10^-(dps-10) on two consecutive sweeps, so the first sweep
       under that target is followed by one polish sweep.  Raises NonConvergenceError after
       ``MAX_SWEEPS`` sweeps.  ``RootSet.sweeps`` counts the sweeps of this
       phase.
    """
    if poly.is_zero:
        raise DegenerateCaseError("zero polynomial has no well-defined roots")
    target = mp.mpf(10) ** (-(mp.mp.dps - 10))
    n = poly.degree
    prec = mp.mp.prec
    with mp.extradps(15):
        lead = poly.leading
        monic = [c / lead for c in poly.coeffs]
        if n < 2:
            z, sweeps = ([-monic[0]] if n == 1 else []), 0
            residual = max((abs(poly(zi)) for zi in z), default=mp.mpf(0)) / abs(lead)
        else:
            deriv = [i * c for i, c in enumerate(monic) if i > 0]
            radius = 2 * max(mp.root(abs(c), k) for k, c in enumerate(reversed(monic[:-1]), 1))
            rng = random.Random(ROOT_SEED)
            draws = [rng.random() for _ in range(n)]
            z = _double_start(monic, deriv, float(radius), draws)
            if z is None:
                z = [
                    radius * mp.exp(mp.mpc(0, 2 * mp.pi * (k + mp.mpf(u) / 2) / n + mp.mpf("0.35")))
                    for k, u in enumerate(draws)
                ]
            z = [mp.mpc(zi) for zi in z]
            low = min((mp.mag(zi) for zi in z if zi), default=0)
            wp = mp.mp.prec + n * max(0, -low, mp.mag(radius))

            def fixed(value):
                return Fixed(*to_fixed_pair(value, wp), wp)

            monic, z = [fixed(c) for c in monic], [fixed(zi) for zi in z]
            deriv = [k * c for k, c in enumerate(monic) if k > 0]
            inv_tiny = Fixed(10**mp.mp.dps << wp, 0, wp)
            # max |p(z)|^2 against target^2, both scaled by 2^(2 wp)
            bound = to_fixed(target._mpf_, wp) ** 2
            met = done = False
            for sweeps in range(1, MAX_SWEEPS + 1):
                _sweep(monic, deriv, z, inv_tiny)
                square = max(v.re * v.re + v.im * v.im for v in (_horner(monic, zi) for zi in z))
                done, met = met and square <= bound, square <= bound
                if done:
                    break
            residual = mp.sqrt(mp.make_mpf(from_man_exp(square, -2 * wp)))
            if not done:
                raise NonConvergenceError(
                    f"root iteration failed to reach residual {mp.nstr(target, 5)} "
                    f"within {MAX_SWEEPS} sweeps (got {mp.nstr(residual, 5)})"
                )
            z = [from_fixed_pair(zi.re, zi.im, wp, prec) for zi in z]
    return RootSet(ParamVector(mp.mpc(zi) for zi in z), residual, sweeps)


def _sweep(monic: list, deriv: list, z: list, inv_tiny) -> None:
    """One Gauss-Seidel Ehrlich-Aberth sweep over the iterates ``z``, in place.

    Only operators, ``x ** 0`` and int constants, so it runs on ``complex``
    (phase 1 of find_roots), on ``kernel.Fixed`` (phase 2) and on mpc (the
    tests' reference).  ``inv_tiny`` stands in for 1/(z_i - z_j) where the
    difference vanishes.  An iterate where the derivative vanishes is
    nudged to z + z/2^27 + 2^-40 first, and left there if it still does.
    """
    one = z[0] ** 0
    for i, zi in enumerate(z):
        dv = _horner(deriv, zi)
        if dv == 0:
            zi = zi + zi / 2**27 + one / 2**40
            dv = _horner(deriv, zi)
            if dv == 0:
                z[i] = zi
                continue
        newton = _horner(monic, zi) / dv
        shifts = 0
        for j, zj in enumerate(z):
            if j != i:
                diff = zi - zj
                shifts += one / diff if diff else inv_tiny
        denom = 1 - newton * shifts
        z[i] = zi - (newton if denom == 0 else newton / denom)


def _double_start(monic: list, deriv: list, radius: float, draws: list):
    """Phase 1 of find_roots: sweeps in double precision from the circle of
    ``radius`` at the angles 2 pi (k + u_k/2)/n + 0.35, u = ``draws``.

    Stops once no iterate moves by more than four ulp; or once the largest
    relative step is at most ``DOUBLE_STALL_STEP`` and did not halve since
    the sweep before, which is the rounding floor of an ill-conditioned
    simple root; or after ``MAX_SWEEPS`` sweeps.  Never raises: returns
    None when the radius, a coefficient or an iterate is not finite in
    double.
    """
    eps = sys.float_info.epsilon
    n = len(draws)
    md, dd = [complex(c) for c in monic], [complex(c) for c in deriv]
    z = [radius * cmath.exp(1j * (2 * math.pi * (k + u / 2) / n + 0.35))
         for k, u in enumerate(draws)]
    if not all(map(cmath.isfinite, md + dd + z)):
        return None
    last = math.inf
    try:
        for _ in range(MAX_SWEEPS):
            old = list(z)
            _sweep(md, dd, z, 1 / eps)
            if not all(map(cmath.isfinite, z)):
                return None
            if all(abs(new - prev) <= 4 * eps * abs(new) for new, prev in zip(z, old)):
                break
            step = max(abs(new - prev) / abs(new) if new else math.inf for new, prev in zip(z, old))
            if step <= DOUBLE_STALL_STEP and 2 * step > last:
                break
            last = step
    except (OverflowError, ZeroDivisionError):
        return None
    return z


def build_Q(b: ComplexLike, c: ComplexLike, f, m, route: str = "eq5") -> CPoly:
    """First-transformation characteristic polynomial Q, degree m, Q(0) = 1.

    route "eq5" assembles sum_k (b)_k C_k (t)_k (c-b-m-t)_{m-k} directly in
    coefficient form (``_q_eq5``); route "eq7" evaluates the equivalent
    rearrangement with terminating-hypergeometric weights at m+1 points
    and interpolates (``_q_eq7``).  Requires (c-b-m)_m != 0 (otherwise the
    transformation degenerates).
    """
    m = IntVector(m)
    if route == "eq5":
        return CPoly(run_fixed(_q_eq5, (b, c, ParamVector(f)), m))
    if route == "eq7":
        b, c = cplx(b), cplx(c)
        return CPoly(run_fixed(_q_eq7, (b, c, ParamVector(f), _node_shift(b, c, m.total)), m))
    raise ValueError(f"unknown route {route!r}")


def _q_eq5(b, c, f, m: IntVector) -> list:
    mt = m.total
    norm = nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    bk, ck = rising(b, mt), CoeffFamilies(f, m)._C(mt)
    weights = [bk[k] * ck[k] / norm for k in range(mt + 1)]
    return _weighted_sum(weights, _split_basis(c - b - mt, mt))


def _node_shift(b: ComplexValue, c: ComplexValue, mt: int) -> ComplexValue:
    """i times the first offset whose interpolation nodes j + i offset,
    j = 0..m, keep 0.05 off the poles c-b-1-k, k < m, of (1+t+b-c)_k.

    Node j minus pole k is gap + j + k, gap = i offset - (c-b-1), so the
    m(m+1) distances take only the 2m values |gap + n|, n < 2m, which a
    complex double measures well enough to place the nodes.
    """
    for offset in ("0.5", "-0.7", "1.3", "0.23", "-1.42"):
        shift = mp.mpc(0, mp.mpf(offset))
        gap = complex(shift - (c - b - 1))
        if all(abs(gap + n) > 0.05 for n in range(2 * mt)):
            return shift
    raise DegenerateCaseError("no pole-free interpolation nodes found")


def _q_eq7(b, c, f, shift, m: IntVector) -> list:
    mt = m.total
    norm = nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    bk = rising(b, mt)
    fmvals = terminating_family([fi + mi for fi, mi in zip(f, m)], f, mt)
    weights = [fmvals[k] * bk[k] / math.factorial(k) for k in range(mt + 1)]
    values = []
    for j in range(mt + 1):
        t = shift + j
        shifted = rising(1 + t + b - c, mt)
        total, tk = 0, 1
        for k in range(mt + 1):
            total += weights[k] * tk / shifted[k]
            tk = tk * (t + k)
        values.append(pochhammer(c - b - t - mt, mt) / norm * total)
    return _interpolate(values, shift)


def _interpolate(values: list, shift) -> list:
    """Coefficients of the polynomial through (j + shift, values[j]), j = 0..n.

    Lagrange's form in O(n^2): the node polynomial prod_j (t - j - shift)
    is built once and each node is divided out of it by synthetic
    division.  The nodes differ by integers, so each denominator
    prod_{j != i} (x_i - x_j) is the exact integer (-1)^(n-i) i! (n-i)!.
    """
    n = len(values) - 1
    node = linear_products((-(j + shift), 1) for j in range(n + 1))[-1]
    total = [0] * (n + 1)
    for i, y in enumerate(values):
        x = i + shift
        weight = y / ((-1) ** (n - i) * math.factorial(i) * math.factorial(n - i))
        # quotient of node by (t - x), from the top
        carry = node[n + 1]
        for k in range(n, -1, -1):
            total[k] += carry * weight
            carry = node[k] + carry * x
    return total


def build_P(b: ComplexLike, c: ComplexLike, f, m) -> CPoly:
    """Alternative first-transformation polynomial P, degree m, P(0) = (f)_m.

    Assembled from the D coefficients:
    P(x) = (1/(c-b-m)_m) sum_k (b)_k (1-c+b)_k D_k (c-b-m-x)_{m-k}.
    Coefficientwise P = (f)_m * Q, so both share the same roots.
    """
    return CPoly(run_fixed(_p, (b, c, ParamVector(f)), IntVector(m)))


def _p(b, c, f, m: IntVector) -> list:
    mt = m.total
    norm = nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    bk, ck, dk = rising(b, mt), rising(1 - c + b, mt), CoeffFamilies(f, m)._D(b, mt)
    weights = [bk[k] * ck[k] * dk[k] / norm for k in range(mt + 1)]
    # basis (c-b-m-t)_{m-k}, k = 0..m
    return _weighted_sum(weights, linear_products((c - b - mt + j, -1) for j in range(mt))[::-1])


def build_Qhat(a: ComplexLike, b: ComplexLike, c: ComplexLike, f, m) -> CPoly:
    """Second-transformation polynomial Q-hat, degree m, Q-hat(0) = 1.

    Each summand couples (t)_k with a terminating 3F2 whose second top
    parameter is t+k; expanding in the rising-factorial basis (t)_{k+s} and
    converting to monomials keeps everything exact.
    Requires (c-a-m)_m != 0 and (c-b-m)_m != 0.
    """
    return CPoly(run_fixed(_qhat, (a, b, c, ParamVector(f)), IntVector(m)))


def _qhat(a, b, c, f, m: IntVector) -> list:
    mt = m.total
    nonzero(pochhammer(c - a - mt, mt), "(c-a-m)_m")
    nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    ck = CoeffFamilies(f, m)._C(mt)
    return _hatted(mt, ck, a, b, c - a - mt, c - b - mt, c - a - b - mt)


def _hatted(n: int, coef: list, u, v, alpha, beta, gamma_) -> list:
    """sum_k (-1)^k coef_k (u)_k (v)_k / ((alpha)_k (beta)_k) * (t)_k
    * 3F2(k-n, gamma_, t+k; alpha+k, beta+k | 1), a polynomial of degree n.

    The terminating 3F2 is expanded in the rising-factorial basis
    (t)_k (t+k)_s = (t)_{k+s} and the result converted to monomials, so
    everything stays exact.  Shared by Q-hat and L-hat.
    """
    us, vs, alphas, betas = (rising(z, n) for z in (u, v, alpha, beta))
    rise = [0] * (n + 1)
    for k in range(n + 1):
        weight = (-1) ** k * coef[k] * us[k] * vs[k] / (alphas[k] * betas[k])
        rise[k] += weight
        term = weight
        for s in range(n - k):
            term = term * ((-n + k + s) * (gamma_ + s)) / (
                (alpha + k + s) * (beta + k + s) * (s + 1)
            )
            rise[k + s + 1] += term
    return _weighted_sum(rise, linear_products((j, 1) for j in range(n)))


def build_Phat(a: ComplexLike, b: ComplexLike, c: ComplexLike, f, m) -> CPoly:
    """Alternative second-transformation polynomial P-hat, degree m.

    P-hat(0) = 1 and P-hat coincides with Q-hat coefficientwise; the two
    builds follow genuinely different summation formulas, so their equality
    is a strong cross-check.
    """
    return CPoly(run_fixed(_phat, (a, b, c, ParamVector(f)), IntVector(m)))


def _phat(a, b, c, f, m: IntVector) -> list:
    mt = m.total
    norm = nonzero(pochhammer(c - a - mt, mt), "(c-a-m)_m")
    nonzero(pochhammer(c - b - mt, mt), "(c-b-m)_m")
    fm_shift = [fi + mi for fi, mi in zip(f, m)]
    ak, bk, ck = rising(a, mt), rising(-b - mt, mt), rising(c - b - mt, mt)
    # the bottom parameter b+m-k+1 moves with k, so each sum is its own
    weights = [
        (-1) ** k
        * ak[k]
        * bk[k]
        * terminating_pfq([-k, b] + fm_shift, [b + mt - k + 1] + list(f), k)
        / (norm * ck[k] * math.factorial(k))
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

    T(z)  = sum_q (-1)^{q-1} (f-b-q+1)_m (b)_{q-1}
            / ((q-1)!(p-q)!) * (b+q+z)_{p-q}
    T*(z) adds the factor (b+1-a+z)_{q-1} / (b+1-a)_{q-1} per summand.
    These are the paper's T / Gamma(b) and T* Gamma(b+1-a) / Gamma(b), with
    the same roots: the Gamma factor its weights share is divided out.  T*
    raises DegenerateCaseError where (b+1-a)_{p-1} = 0.  A result with every
    coefficient zero comes back as the zero polynomial (``is_zero``), which
    ``find_roots`` rejects.
    """
    f, m = ParamVector(f), IntVector(m)
    p = int(p)
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if variant not in ("T", "Tstar"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "T":
        return CPoly(run_fixed(_t, (b, f), m, p))
    if a is None:
        raise ValueError("variant Tstar requires the parameter a")
    return CPoly(run_fixed(_tstar, (b, f, a), m, p))


def _tstar(b, f, a, m: IntVector, p: int) -> list:
    return _t(b, f, m, p, a)


def _t(b, f, m: IntVector, p: int, a=None) -> list:
    """T, or T* when ``a`` is given."""
    if a is not None:
        shifted = rising(b + 1 - a, p - 1)
    bq = rising(b, p - 1)
    weights, basis = [], []
    for q in range(1, p + 1):
        weight = (
            (-1) ** (q - 1)
            * pochhammer_vec([fi - (b + (q - 1)) for fi in f], m)
            * bq[q - 1]
            / (math.factorial(q - 1) * math.factorial(p - q))
        )
        factors = [(b + q + j, 1) for j in range(p - q)]
        if a is not None:
            weight /= nonzero(shifted[q - 1], "(b+1-a)_{q-1}")
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
    m = IntVector(m)
    if m.total < 1:
        raise ValueError("need m_total >= 1")
    if variant not in ("L", "Lhat"):
        raise ValueError(f"unknown variant {variant!r}")
    return CPoly(run_fixed(_l, (a, d, e, b, ParamVector(f)), m, variant))


def _l(a, d, e, b, f, m: IntVector, variant: str) -> list:
    mt = m.total
    nonzero(pochhammer(e - d - mt + 1, mt - 1), "(e-d-m+1)_{m-1}")
    yk = CoeffFamilies(f, m)._Y(b, mt - 1)
    if variant == "L":
        dk = rising(d, mt - 1)
        weights = [dk[k] * yk[k] for k in range(mt)]
        return _weighted_sum(weights, _split_basis(e - d - mt + 1, mt - 1))
    nonzero(pochhammer(e - a - mt + 1, mt - 1), "(e-a-m+1)_{m-1}")
    return _hatted(mt - 1, yk, a, d, e - a - mt + 1, e - d - mt + 1, e - a - d - mt + 1)


def w_poly(b: ComplexLike, f, m) -> CPoly:
    """Weight polynomial W of degree m-1 (see coeffs.w_poly_coeffs)."""
    return CPoly(run_fixed(w_poly_coeffs, (b, ParamVector(f)), IntVector(m)))
