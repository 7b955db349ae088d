"""Transformation engine for IPD hypergeometric functions.

Every transformation maps the input function

    F(x) = r+2_F_r+1(a, b, f+m; c, f | x)

(or its variants with extra parameters) to a finite sum of terms in
closed form, each of the shape

    coeff * x^j * (1-x)^mu * pFq(num; den; arg(x)),

with arg either the identity or the Moebius map x/(x-1).  The uniform
:class:`HypTerm` / :class:`HypExpression` representation gives every
theorem the same evaluation and serialization path.  All expressions
returned here equal the *plain* input function F(x): prefactors appearing
on the left side of the published identities are folded into the term
exponents, which makes cross-checks between different transformations a
direct value comparison.

Available transformations (all with two-sided numerical verification in the
test-suite and harness):

* ``apply_mp1`` / ``apply_mp2``: the general first and second
  transformations, valid while the relevant Pochhammer conditions hold.
* ``expand_to_gauss``: expansion into m+1 Gauss functions.
* ``apply_degenerate_single`` (c = b+1), ``apply_degenerate_p``
  (c = b+p, any positive integer p), ``apply_degenerate_vector``
  (several shifted denominator parameters): the degenerate family, which
  covers exactly the region where the general transformations fail.
* ``apply_two_free``: adds a free top/bottom parameter pair (d; e).
* ``meijer_norlund_ipd`` / ``meijer_norlund_ipd_many``: closed
  evaluation of the associated Meijer-Norlund kernel (beta density times a
  rational function), with an independent series route, at one t or at
  several.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import mpmath as mp

from .charpoly import build_L, build_Q, build_P, build_Qhat, build_Phat, build_T, find_roots
from .coeffs import IpdSpec, d_coeffs, fm_coeffs, y_coeffs
from .errors import (
    DistinctnessViolationError,
    IntegerDifferenceError,
    RootWarning,
)
from .hypeval import (
    HypFunction,
    default_series_tolerance,
    eval_pfq_many,
    log_one_minus,
    mobius_arg,
)
from .kernel import (
    ComplexLike,
    ComplexValue,
    IntVector,
    ParamVector,
    as_nonpositive_integer,
    cplx,
    gamma,
    integral,
    nonzero,
    paired,
    pochhammer,
    pochhammer_vec,
    rising,
    run_fixed,
)

ARG_IDENTITY = "identity"
ARG_MOBIUS = "mobius"


class _Points:
    """The points of one evaluation.  Log(1-x), x/(x-1), each power x^j and
    each prefactor (1-x)^mu are made once per point, when the first term
    that needs them asks, so they raise where a term evaluated on its own
    would."""

    def __init__(self, xs: Sequence[ComplexLike]):
        self.xs = [cplx(x) for x in xs]
        self._logs = self._mobius = None
        self._powers: dict = {}
        self._prefactors: dict = {}

    def logs(self) -> list:
        if self._logs is None:
            self._logs = [log_one_minus(x) for x in self.xs]
        return self._logs

    def power(self, j: int) -> list:
        """x^j at every point."""
        if j not in self._powers:
            self._powers[j] = [x**j for x in self.xs]
        return self._powers[j]

    def prefactor(self, mu: ComplexValue) -> list:
        """(1-x)^mu = exp(mu Log(1-x)) at every point."""
        if mu not in self._prefactors:
            self._prefactors[mu] = [mp.exp(mu * log) for log in self.logs()]
        return self._prefactors[mu]

    def mobius(self) -> list:
        if self._mobius is None:
            self._mobius = [mobius_arg(x) for x in self.xs]
        return self._mobius


@dataclass(frozen=True)
class HypTerm:
    """One term in closed form: coeff * x^j * (1-x)^mu * pFq(...; arg(x))."""

    coeff: ComplexValue
    x_power: int = 0
    prefactor_exponent: ComplexValue = mp.mpc(0)
    arg_map: str = ARG_IDENTITY
    fun: Optional[HypFunction] = None

    def __post_init__(self):
        object.__setattr__(self, "coeff", cplx(self.coeff))
        object.__setattr__(self, "prefactor_exponent", cplx(self.prefactor_exponent))
        if self.arg_map not in (ARG_IDENTITY, ARG_MOBIUS):
            raise ValueError(f"unknown arg_map {self.arg_map!r}")

    def _at(self, points: _Points, tol) -> list:
        """The term at every point; its series is summed once for all, to
        ``tol`` over max(1, max |weight|), the weight being everything that
        multiplies the series (coefficient, x-power and prefactor)."""
        xs = points.xs
        if self.coeff == 0:
            return [mp.mpc(0)] * len(xs)
        values = [self.coeff] * len(xs)
        if self.x_power:
            values = [v * p for v, p in zip(values, points.power(self.x_power))]
        if self.prefactor_exponent != 0:
            values = [v * p for v, p in zip(values, points.prefactor(self.prefactor_exponent))]
        if self.fun is not None:
            args = points.mobius() if self.arg_map == ARG_MOBIUS else xs
            tol = default_series_tolerance() if tol is None else mp.mpf(tol)
            # the weight scales the series' error, so a heavy term sums finer
            sums = eval_pfq_many(self.fun, args, tol / max(1, max(abs(v) for v in values)))
            values = [v * s.value for v, s in zip(values, sums)]
        return values


@dataclass(frozen=True)
class HypExpression:
    """Finite sum of :class:`HypTerm`; evaluation is the sum of the terms."""

    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def evaluate(self, x: ComplexLike, tol=None) -> ComplexValue:
        return self.evaluate_many([x], tol)[0]

    def evaluate_many(self, xs: Sequence[ComplexLike], tol=None) -> list:
        """The expression at every point of ``xs``, each term evaluated once
        for all; the terms share each point's Log(1-x), x/(x-1), x^j and
        (1-x)^mu."""
        points = _Points(xs)
        totals = [mp.mpc(0)] * len(points.xs)
        for term in self.terms:
            totals = [t + v for t, v in zip(totals, term._at(points, tol))]
        return totals

    def __len__(self) -> int:
        return len(self.terms)


def ipd_function(spec: IpdSpec, c: ComplexLike | None = None) -> HypFunction:
    """The input function r+2_F_r+1(a, b, f+m; c, f) as a HypFunction."""
    cc = cplx(c) if c is not None else spec.c
    if cc is None:
        raise ValueError("spec carries no bottom parameter c")
    num = [spec.a, spec.b] + list(spec.f.shifted_by(spec.m))
    den = [cc] + list(spec.f)
    return HypFunction(ParamVector(num), ParamVector(den))


#: Distance from a nonpositive integer at which a root's parameter is flagged as a pole.
POLE_RISK_TOL = mp.mpf("1e-6")


def _collapsed(num, den, poly, what: str, negate: bool = False) -> HypFunction:
    """HypFunction(num + (rho+1); den + rho), rho the roots of ``poly``.

    With ``negate`` rho = -root; a degree-0 ``poly`` gives no pairs.
    Warns (RootWarning) when a bottom parameter rho lies at a nonpositive
    integer, where the series is ill-defined unless it terminates first.
    """
    roots = find_roots(poly).roots
    rho = [-r for r in roots] if negate else list(roots)
    bad = [mp.nstr(v, 8) for v in rho if as_nonpositive_integer(v, POLE_RISK_TOL) is not None]
    if bad:
        warnings.warn(
            f"{what} has shifted parameters at nonpositive integers: {bad}; "
            "evaluation fails only if the series reaches the pole",
            RootWarning,
            stacklevel=3,
        )
    return HypFunction(ParamVector(num + [v + 1 for v in rho]), ParamVector(den + rho))


def apply_mp1(spec: IpdSpec, route: str = "paperQ") -> HypExpression:
    """First transformation: F = (1-x)^-a * m+2_F_m+1(...; x/(x-1)).

    The transformed function carries a, c-b-m and the pairs (zeta+1; zeta)
    over the bottom parameter c, where zeta are the roots of the
    characteristic polynomial (route "paperQ" builds Q, route "newP" builds
    the equivalent P).  Requires (c-b-m)_m != 0.
    """
    a, b, c = spec.a, spec.b, spec.c
    if c is None:
        raise ValueError("apply_mp1 needs c set on the IpdSpec")
    mt = spec.m_total
    if route == "paperQ":
        poly = build_Q(b, c, spec.f, spec.m)
    elif route == "newP":
        poly = build_P(b, c, spec.f, spec.m)
    else:
        raise ValueError(f"unknown route {route!r}")
    fun = _collapsed([a, c - b - mt], [c], poly, "first transformation")
    return HypExpression([HypTerm(mp.mpc(1), 0, -a, ARG_MOBIUS, fun)])


def apply_mp2(spec: IpdSpec, route: str = "paperQhat") -> HypExpression:
    """Second transformation: F = (1-x)^(c-a-b-m) * m+2_F_m+1(...; x).

    Parameters c-a-m, c-b-m and pairs (eta+1; eta) over c, eta the roots of
    the hatted characteristic polynomial (routes "paperQhat" / "newPhat").
    Requires (c-a-m)_m, (c-b-m)_m and (1+a+b-c)_m all nonzero.
    """
    a, b, c = spec.a, spec.b, spec.c
    if c is None:
        raise ValueError("apply_mp2 needs c set on the IpdSpec")
    mt = spec.m_total
    nonzero(pochhammer(1 + a + b - c, mt), "(1+a+b-c)_m")
    if route == "paperQhat":
        poly = build_Qhat(a, b, c, spec.f, spec.m)
    elif route == "newPhat":
        poly = build_Phat(a, b, c, spec.f, spec.m)
    else:
        raise ValueError(f"unknown route {route!r}")
    fun = _collapsed([c - a - mt, c - b - mt], [c], poly, "second transformation")
    return HypExpression([HypTerm(mp.mpc(1), 0, c - a - b - mt, ARG_IDENTITY, fun)])


def expand_to_gauss(spec: IpdSpec) -> HypExpression:
    """Expansion F = (1/(f)_m) sum_k (-1)^k D_k (b)_k 2F1(a, b+k; c | x)."""
    a, b, c = spec.a, spec.b, spec.c
    if c is None:
        raise ValueError("expand_to_gauss needs c set on the IpdSpec")
    fm = run_fixed(fm_coeffs, (spec.f,), spec.m)[0]
    dk = run_fixed(d_coeffs, (spec.f, b), spec.m, spec.m_total)
    bk = rising(b, spec.m_total)
    terms = []
    for k in range(spec.m_total + 1):
        weight = (-1) ** k * dk[k] * bk[k] / fm
        fun = HypFunction(ParamVector([a, b + k]), ParamVector([c]))
        terms.append(HypTerm(weight, 0, mp.mpc(0), ARG_IDENTITY, fun))
    return HypExpression(terms)


def _algebraic_tail(a: ComplexValue, yl: list, al: list, scale: ComplexValue):
    """Terms scale * Y_l (a)_l x^l (1-x)^(-a-l), l = 0..m-1, from the Y
    vector ``yl`` and the run ``al`` of (a)_l."""
    return [
        HypTerm(scale * y * al[l], l, -a - l, ARG_IDENTITY, None) for l, y in enumerate(yl)
    ]


def apply_degenerate_single(spec: IpdSpec, variant: str = "eq19") -> HypExpression:
    """Transformation for c = b+1 (implied structurally, never inferred).

    Both variants return F itself: one Gauss term

        eq19: (f-b)_m/(f)_m * (1-x)^(-a)  * 2F1(1, a; b+1 | x/(x-1))
        eq20: (f-b)_m/(f)_m * (1-x)^(1-a) * 2F1(1, b+1-a; b+1 | x)

    plus the m algebraic terms Y_l (a)_l x^l (1-x)^(-a-l).  The |x| < 1
    intermediate form ("eq26") keeps the plain-argument Gauss function
    2F1(a, b; b+1 | x) with no prefactor.
    """
    a, b = spec.a, spec.b
    if spec.c is not None and spec.c != b + 1:
        raise ValueError("spec.c must be exactly b+1 (or omitted) here")
    fm = run_fixed(fm_coeffs, (spec.f,), spec.m)[0]
    if variant == "eq19":
        mu, arg, num = -a, ARG_MOBIUS, [mp.mpc(1), a]
    elif variant == "eq20":
        mu, arg, num = 1 - a, ARG_IDENTITY, [mp.mpc(1), b + 1 - a]
    elif variant == "eq26":
        mu, arg, num = mp.mpc(0), ARG_IDENTITY, [a, b]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    fbm = pochhammer_vec(spec.f - b, spec.m)
    fun = HypFunction(ParamVector(num), ParamVector([b + 1]))
    gauss = HypTerm(fbm / fm, 0, mu, arg, fun)
    yl = run_fixed(y_coeffs, (spec.f, b), spec.m, spec.m_total - 1)
    tail = _algebraic_tail(a, yl, rising(a, spec.m_total), mp.mpc(1))
    return HypExpression([gauss] + tail)


def apply_degenerate_p(
    spec: IpdSpec,
    p: int,
    variant: str = "eq29",
) -> HypExpression:
    """Transformation for c = b+p with any positive integer p.

    The Gauss parts of the p shifted single-difference transformations
    collapse into one (p+1)_F_p with parameter pairs (-lambda+1; -lambda),
    lambda the roots of the degree-(p-1) polynomial (variant "eq29" uses T
    with the Moebius argument, "eq31" uses T* at the plain argument) and
    the head coefficient T(0)/(f)_m; no Gamma is evaluated.  The algebraic
    part is the double sum over q = 1..p and l = 0..m-1: one Y vector per
    q, each its own fixed-point run, and one run of (a)_l that the p tails
    share.  Requires
    b+q-1 != 0 for q = 1..p, and for eq31 (b+1-a)_{p-1} != 0.
    """
    a, b = spec.a, spec.b
    p = integral(p, "p")
    if spec.c is not None and spec.c != b + p:
        raise ValueError("spec.c must be exactly b+p (or omitted) here")
    fm = run_fixed(fm_coeffs, (spec.f,), spec.m)[0]
    betas = [nonzero(b + (q - 1), "b+q-1") for q in range(1, p + 1)]
    if variant == "eq29":
        num, mu, arg, which = [a, mp.mpc(1)], -a, ARG_MOBIUS, "T"
    elif variant == "eq31":
        num, mu, arg, which = [mp.mpc(1), b + 1 - a], 1 - a, ARG_IDENTITY, "Tstar"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    poly = build_T(b, p, spec.f, spec.m, variant=which, a=a)
    fun = _collapsed(num, [b + p], poly, "degenerate transformation", negate=True)
    terms = [HypTerm(poly(0) / fm, 0, mu, arg, fun)]
    bp, al = pochhammer(b, p), rising(a, spec.m_total)
    for q, beta_q in enumerate(betas, start=1):
        weight = (
            (-1) ** (q - 1)
            * bp
            / (beta_q * mp.factorial(q - 1) * mp.factorial(p - q))
        )
        yl = run_fixed(y_coeffs, (spec.f, beta_q), spec.m, spec.m_total - 1)
        terms.extend(_algebraic_tail(a, yl, al, weight))
    return HypExpression(terms)


def apply_degenerate_vector(
    b: ParamVector,
    p: IntVector,
    a: ComplexLike,
    f: ParamVector,
    m: IntVector,
    variant: str = "eq27",
) -> HypExpression:
    """Several negative integral differences: bottom parameters b_j + p_j.

    Partial fractions split the function over the grid
    beta = (b_1, ..., b_1+p_1-1, ..., b_l, ..., b_l+p_l-1), which must be
    pairwise distinct; each grid point contributes a weighted c = beta_q + 1
    transformation (variant "eq27" via the Moebius-argument form, "eq28"
    via the plain-argument form).
    """
    b, p = ParamVector(b), IntVector(p)
    bp = pochhammer_vec(b, p)
    a = cplx(a)
    beta = []
    for bj, pj in zip(b, p):
        beta.extend(bj + i for i in range(pj))
    ptot = p.total
    coincidence_tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
    for i in range(ptot):
        for j in range(i + 1, ptot):
            if abs(beta[i] - beta[j]) <= coincidence_tol * (1 + abs(beta[i])):
                raise DistinctnessViolationError(
                    f"coincident shifted parameters beta = {mp.nstr(beta[i], 10)}"
                )
    single_variant = "eq19" if variant == "eq27" else "eq20" if variant == "eq28" else None
    if single_variant is None:
        raise ValueError(f"unknown variant {variant!r}")
    terms = []
    for q in range(ptot):
        B_q = mp.mpc(1)
        for v in range(ptot):
            if v != q:
                B_q *= beta[v] - beta[q]
        weight = bp / (nonzero(beta[q], "beta_q") * B_q)
        sub = apply_degenerate_single(
            IpdSpec(b=beta[q], f=f, m=m, a=a), variant=single_variant
        )
        for t in sub.terms:
            terms.append(
                HypTerm(weight * t.coeff, t.x_power, t.prefactor_exponent, t.arg_map, t.fun)
            )
    return HypExpression(terms)


def apply_two_free(
    a: ComplexLike,
    d: ComplexLike,
    e: ComplexLike,
    b: ComplexLike,
    f: ParamVector,
    m: IntVector,
    variant: str = "first",
) -> HypExpression:
    """Free parameter pair (d; e) on top of the c = b+1 structure.

    Splits r+3_F_r+2(a, d, b, f+m; e, b+1, f) into a 3F2 with weight
    (f-b)_m/(f)_m plus, with the complementary weight, a first- (variant
    "first") or second- (variant "second") transformed m+1_F_m whose
    parameter pairs come from the roots of L or L-hat.  Requires
    m_total >= 1, as ``build_L`` does.
    """
    a, d, e, b = cplx(a), cplx(d), cplx(e), cplx(b)
    f, m = ParamVector(f), IntVector(m)
    nonzero(b, "b")
    mt = m.total
    fm = nonzero(pochhammer_vec(f, m), "(f)_m")
    fbm = pochhammer_vec(f - b, m)
    head = HypTerm(
        fbm / fm,
        0,
        mp.mpc(0),
        ARG_IDENTITY,
        HypFunction(ParamVector([a, d, b]), ParamVector([e, b + 1])),
    )
    if variant == "first":
        num, mu, arg, which = [a, e - d - mt + 1], -a, ARG_MOBIUS, "L"
    elif variant == "second":
        nonzero(pochhammer(1 + a + d - e, mt - 1), "(1+a+d-e)_{m-1}")
        num, mu, arg, which = (
            [e - a - mt + 1, e - d - mt + 1], e - a - d - mt + 1, ARG_IDENTITY, "Lhat"
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    poly = build_L(a, d, e, b, f, m, variant=which)
    fun = _collapsed(num, [e], poly, "two-free-parameter transformation")
    tail = HypTerm((fm - fbm) / fm, 0, mu, arg, fun)
    return HypExpression([head, tail])


def two_free_function(a, d, e, b, f, m) -> HypFunction:
    """Left side of the two-free-parameter identity as a HypFunction."""
    a, d, e, b = cplx(a), cplx(d), cplx(e), cplx(b)
    f, m = ParamVector(f), IntVector(m)
    num = [a, d, b] + list(f.shifted_by(m))
    den = [e, b + 1] + list(f)
    return HypFunction(ParamVector(num), ParamVector(den))


def vector_function(a, b: ParamVector, p: IntVector, f, m) -> HypFunction:
    """Left side of the vector-difference identity as a HypFunction."""
    b, p = ParamVector(b), IntVector(p)
    f, m = ParamVector(f), IntVector(m)
    num = [cplx(a)] + list(b) + list(f.shifted_by(m))
    den = [bj + pj for bj, pj in paired(b, p)] + list(f)
    return HypFunction(ParamVector(num), ParamVector(den))


def meijer_norlund_ipd(
    t: ComplexLike,
    b: ComplexLike,
    c: ComplexLike,
    f,
    m,
    route: str = "closed",
    tol=None,
) -> ComplexValue:
    """IPD instance of the Meijer-Norlund kernel on (0, 1).

    route "closed": t^b (1-t)^(c-b-1) / Gamma(c-b) *
                    sum_k D_k (c-b-k)_k t^k/(t-1)^k  (always valid).
    route "series": t^b (f-b)_m / Gamma(c-b) *
                    (r+1)F_r(1-c+b, 1-f+b; 1-f-m+b | t), which requires the
                    genericity conditions f_i - f_j and f_i - c not integral
                    (otherwise raises IntegerDifferenceError).
    """
    return meijer_norlund_ipd_many([t], b, c, f, m, route, tol)[0]


def meijer_norlund_ipd_many(
    ts: Sequence[ComplexLike],
    b: ComplexLike,
    c: ComplexLike,
    f,
    m,
    route: str = "closed",
    tol=None,
) -> list:
    """:func:`meijer_norlund_ipd` at every t of ``ts``, each value equal to it.

    Every t is checked to lie in (0, 1) before anything is summed.  The
    closed route makes the weights D_k (c-b-k)_k and Gamma(c-b) once; the
    series route sums its one series at all the t together.
    """
    ts = [cplx(t) for t in ts]
    if not all(t.imag == 0 and 0 < t.real < 1 for t in ts):
        raise ValueError("t must be real in (0, 1)")
    b, c = cplx(b), cplx(c)
    f, m = ParamVector(f), IntVector(m)
    mt = m.total
    if route == "closed":
        # (c-b-k)_k = (-1)^k (1-c+b)_k
        dk, ck = run_fixed(d_coeffs, (f, b), m, mt), rising(1 - c + b, mt)
        weights = [(-1) ** k * dk[k] * ck[k] for k in range(mt + 1)]
        exponent, scale = c - b - 1, gamma(c - b)
        values = []
        for t in ts:
            acc = mp.mpc(0)
            for k, weight in enumerate(weights):
                acc += weight * t**k / (t - 1) ** k
            values.append(t**b * (1 - t) ** exponent / scale * acc)
        return values
    if route == "series":
        for i, fi in enumerate(f):
            if mp.isint(fi - c):
                raise IntegerDifferenceError(f"f[{i}] - c is an integer")
            for j, fj in enumerate(f):
                if i != j and mp.isint(fi - fj):
                    raise IntegerDifferenceError(f"f[{i}] - f[{j}] is an integer")
        fbm = pochhammer_vec(f - b, m)
        scale = gamma(c - b)
        fun = HypFunction(
            ParamVector([1 - c + b] + [1 - fi + b for fi in f]),
            ParamVector([1 - fi - mi + b for fi, mi in zip(f, m)]),
        )
        sums = eval_pfq_many(fun, ts, tol)
        return [t**b * fbm / scale * s.value for t, s in zip(ts, sums)]
    raise ValueError(f"unknown route {route!r}")
