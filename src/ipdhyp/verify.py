"""Batch verification harness for the full identity catalog.

Each identity in the catalog declares its preconditions as data: a flat
tuple of draw steps (its parameter letters, its m pool and any extra
draws) and a tuple of named clauses, each of one kind (``_clear``,
``_poch``, ``_away`` or ``_distinct``) and named after the hypothesis or
engine guard it encodes; a clause is kept only where the check breaks with
its guard at its zero or pole.  ``admissible(id, params)`` returns the
names of the clauses a parameter set fails.  ``sample_params`` redraws
until that list is empty, then builds a two-sided case's right side and
screens it, a test separate from the clauses.  A checker evaluates both
sides numerically, the right side through the transformation engine
and the left side through the independent series oracle.  Residuals are
relative:

    |LHS(x) - RHS(x)| / max(1, |LHS(x)|).

Coefficient-level identities (the P = (f)_m Q and Q-hat = P-hat
cross-checks) compare coefficient vectors normwise instead; the root-level
corollaries compare shifted parameters in closed form against the general
root extraction.

The whole harness is deterministic: parameter and sample draws derive from
SHA-256 of (seed, identity id, case index), never from process-dependent
hashing, so a fixed seed reproduces a byte-identical report (modulo the
wall-time field).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random
import time
import warnings
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, NamedTuple, Optional, Sequence

import mpmath as mp

from .charpoly import build_L, build_P, build_Phat, build_Q, build_Qhat, build_T, find_roots
from .coeffs import IpdSpec
from .errors import IpdHypError, RejectionExhaustedError, RootWarning
from .hypeval import eval_pfq, eval_pfq_many
from .kernel import (
    ComplexValue,
    IntVector,
    ParamVector,
    as_nonpositive_integer,
    cplx,
    gamma,
    pochhammer,
    pochhammer_vec,
    rising,
    run_fixed,
    terminating_family,
    terminating_pfq,
)
from .transforms import (
    HypExpression,
    apply_degenerate_p,
    apply_degenerate_single,
    apply_degenerate_vector,
    apply_mp1,
    apply_mp2,
    apply_two_free,
    expand_to_gauss,
    ipd_function,
    meijer_norlund_ipd_many,
    two_free_function,
    vector_function,
)

#: Margin of every clause kind, read when a clause is tested.
MARGIN = mp.mpf("1e-3")

#: Multiplicity vectors drawn by the sampler.
M_POOL = ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1))

MAX_REJECTIONS = 10**4


@dataclass
class IdentityCase:
    """One sampled parameter tuple plus argument samples for an identity; a
    two-sided case keeps the right side ``sample_params`` built, or its error."""

    identity_id: str
    params: dict
    x_samples: list
    rhs: Optional[HypExpression] = None
    rhs_error: Optional[IpdHypError] = None


#: Case statuses from least to most severe.
_STATUS_ORDER = ("pass", "skipped", "fail")


@dataclass
class CaseResult:
    identity_id: str
    index: int
    status: str  # "pass" | "fail" | "skipped"
    max_residual: Optional[mp.mpf]
    samples: int
    skip_reason: Optional[str] = None


@dataclass
class VerificationReport:
    seed: int
    digits: int
    count: int
    tolerance: mp.mpf
    cases: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def n_skipped(self) -> int:
        return sum(1 for c in self.cases if c.status == "skipped")

    @property
    def exit_code(self) -> int:
        return 1 if self.n_failed or self.n_skipped else 0

    def identity_summary(self) -> dict:
        """Per-identity aggregation: worst residual (NaN if any case's is),
        every skip reason, and the combined status (fail over skipped over
        pass)."""
        out: dict = {}
        for c in self.cases:
            slot = out.setdefault(
                c.identity_id,
                {"cases": 0, "samples": 0, "max_residual": None, "status": "pass",
                 "skip_reasons": []},
            )
            slot["cases"] += 1
            slot["samples"] += c.samples
            if c.max_residual is not None:
                known = [r for r in (slot["max_residual"], c.max_residual) if r is not None]
                slot["max_residual"] = _worst(known)
            if c.status == "skipped":
                slot["skip_reasons"].append(c.skip_reason)
            slot["status"] = max(slot["status"], c.status, key=_STATUS_ORDER.index)
        return out


def _worst(residuals: list) -> mp.mpf:
    """The largest residual, or a NaN one, which ``max`` alone drops after a number."""
    return max(residuals, key=lambda r: (mp.isnan(r), r))


def _case_rng(seed: int, identity_id: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{identity_id}/{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _default_x_samples(rng: random.Random) -> list:
    """x = 0 plus points in the disk |x| <= 0.45 (so Re(x) < 1/2)."""
    xs = [mp.mpc(0)]
    while len(xs) < 8:
        r = mp.mpf("0.05") + mp.mpf(rng.random()) * mp.mpf("0.4")
        theta = 2 * mp.pi * mp.mpf(rng.random())
        xs.append(r * mp.exp(mp.mpc(0, theta)))
    return xs


def _complex(rng: random.Random, *_) -> ComplexValue:
    """A complex parameter from the box Re in [-2, 3], Im in [-1, 1]."""
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _choice(pool: tuple) -> Callable:
    """Draw an IntVector from ``pool``."""
    return lambda rng, p, index: IntVector(rng.choice(pool))


def _one_per(key: str) -> Callable:
    """Draw one complex parameter per entry of the IntVector ``p[key]``."""
    return lambda rng, p, index: ParamVector([_complex(rng) for _ in p[key]])


def _by_index(*values) -> Callable:
    """No draw: the value the case index picks from ``values``, cyclically."""
    return lambda rng, p, index: values[index % len(values)]


def _draws(letters: str, *extra, pool: tuple = M_POOL) -> tuple:
    """The draw steps: a complex parameter per letter in order, m from
    ``pool``, one f_i per entry of m, then the ``extra`` steps.  A step is
    (name, (rng, params, index) -> value)."""
    complexes = tuple((name, _complex) for name in letters)
    return (*complexes, ("m", _choice(pool)), ("f", _one_per("m")), *extra)


# The clause kinds: each takes the values its clause computes from a draw,
# and reads MARGIN when it is called.


def _clear(*zs: ComplexValue) -> bool:
    """Every z clears the margin around the nonpositive integers.

    The margin is a square box, |Re z + n| <= MARGIN and |Im z| <= MARGIN,
    around every pole -n of Gamma: the box of ``as_nonpositive_integer``.
    """
    return all(as_nonpositive_integer(z, MARGIN) is None for z in zs)


def _poch(*pairs: tuple) -> bool:
    """Every factor of each (z)_n, a pair (z, n), clears the margin: z keeps
    the box of ``_clear`` off each of the poles 0, -1, ..., -(n-1), and may
    lie near -n or below."""
    return all((k := as_nonpositive_integer(z, MARGIN)) is None or k <= -n for z, n in pairs)


def _away(*zs: ComplexValue) -> bool:
    """Every |z| clears the margin: for a quantity that must not vanish and
    is not a pole of Gamma (poles go through ``_clear`` and ``_poch``)."""
    return all(abs(z) >= MARGIN for z in zs)


def _distinct(*zs: ComplexValue) -> bool:
    """The zs are pairwise at least the margin apart."""
    return all(abs(y - z) >= MARGIN for y, z in combinations(zs, 2))


class _Clause(NamedTuple):
    """One named precondition: it holds when ``kind(*values(**params))`` does."""

    name: str  # the hypothesis or engine guard the clause encodes
    kind: Callable  # _clear, _poch, _away or _distinct
    values: Callable  # (**params) -> the arguments of kind


def _rhs_usable(expr: HypExpression) -> bool:
    """Every bottom parameter of the series in ``expr`` is moderate and off the poles."""
    den = [v for term in expr.terms if term.fun is not None for v in term.fun.den]
    return all(abs(v) <= mp.mpf("1e4") and _clear(v) for v in den)


def _relative(lhs: ComplexValue, rhs: ComplexValue) -> mp.mpf:
    return abs(lhs - rhs) / max(1, abs(lhs))


def _coeff_deviation(p1: list, p2: list) -> mp.mpf:
    """Normwise relative deviation between two coefficient lists."""
    n = max(len(p1), len(p2))
    a = p1 + [mp.mpc(0)] * (n - len(p1))
    b = p2 + [mp.mpc(0)] * (n - len(p2))
    scale = max(max(abs(c) for c in a), max(abs(c) for c in b), mp.mpf(1))
    return max(abs(x - y) for x, y in zip(a, b)) / scale


def _series_tol() -> mp.mpf:
    return mp.mpf(10) ** (-(mp.mp.dps - 6))


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _lemma1_t_samples(rng: random.Random) -> list:
    return [mp.mpf("0.05") + mp.mpf(rng.random()) * mp.mpf("0.9") for _ in range(8)]


def _check_lemma1(case: IdentityCase) -> list:
    p = case.params
    args = (case.x_samples, p["b"], p["c"], p["f"], p["m"])
    closed = meijer_norlund_ipd_many(*args, route="closed")
    series = meijer_norlund_ipd_many(*args, route="series", tol=_series_tol())
    return [_relative(left, right) for left, right in zip(closed, series)]


def _check_lemma2(case: IdentityCase) -> list:
    p = case.params
    q_poly = build_Q(p["b"], p["c"], p["f"], p["m"])
    p_poly = build_P(p["b"], p["c"], p["f"], p["m"])
    fm = pochhammer_vec(p["f"], p["m"])
    return [_coeff_deviation(p_poly.coeffs, [c * fm for c in q_poly.coeffs])]


def _check_cor2(case: IdentityCase) -> list:
    p = case.params
    qhat = build_Qhat(p["a"], p["b"], p["c"], p["f"], p["m"])
    phat = build_Phat(p["a"], p["b"], p["c"], p["f"], p["m"])
    return [_coeff_deviation(qhat.coeffs, phat.coeffs)]


def _fixed_residuals(sides: list) -> list:
    """|lhs - rhs| / max(1, |rhs|) of each relation, read from the list
    [rhs, lhs - rhs, ...] that a check's fixed-point run returns."""
    return [abs(diff) / max(1, abs(rhs)) for rhs, diff in zip(sides[::2], sides[1::2])]


def _lemma3_sides(alpha, m_max: int) -> list:
    """LEMMA3's relation for every 0 <= i <= k <= mt <= m_max, as [rhs,
    lhs - rhs, ...].  (-n)_j = (-1)^j n!/(n-j)!, perms and factorials are
    exact ints; the complex Pochhammers are runs made once per mt, each
    from alpha - mt + j."""
    sides = []
    for mt in range(m_max + 1):
        base = rising(alpha - mt, mt)
        shifted = [rising(alpha - mt + j, mt) for j in range(mt + 1)]
        for k in range(mt + 1):
            for i in range(k + 1):
                # (-k)_j (-j)_i / j! = (-1)^(i+j) C(k, j) j!/(j-i)!, an int
                lhs = sum(
                    shifted[j][mt - i] * ((-1) ** (i + j) * math.comb(k, j) * math.perm(j, i))
                    for j in range(i, k + 1)
                )
                # (-1)^i (-k)_i (-mt)_k = (-1)^k k!/(k-i)! mt!/(mt-k)!
                rhs = (
                    base[mt] * ((-1) ** k * math.perm(k, i) * math.perm(mt, k))
                    / (base[k] * ((-1) ** i * math.perm(mt, i)))
                )
                sides += [rhs, lhs - rhs]
    return sides


def _lemma4_sides(b, fs: list, ms: tuple) -> list:
    """LEMMA4's relation for every k <= |m| and every m of ``ms``, as [rhs,
    lhs - rhs, ...]; ``fs`` holds the f of each m in turn.  (-|m|)_i and
    the perms and factorials are exact ints."""
    sides = []
    for m in ms:
        f, fs = fs[:len(m)], fs[len(m):]
        mt = sum(m)
        f_shift = [fi + mi for fi, mi in zip(f, m)]
        inner = terminating_family(f_shift, f, mt)
        pb, nb = rising(b, mt), rising(-b - mt, mt)
        for k in range(mt + 1):
            # (-k)_i (b)_i / ((-mt)_i i!) times the inner sum
            lhs = sum(
                pb[i] * inner[i] * math.perm(k, i) / (math.perm(mt, i) * math.factorial(i))
                for i in range(k + 1)
            )
            outer = terminating_pfq([-k, b] + f_shift, [b + mt - k + 1] + f, k)
            rhs = nb[k] * outer / ((-1) ** k * math.perm(mt, k))
            sides += [rhs, lhs - rhs]
    return sides


def _check_lemma3(case: IdentityCase) -> list:
    p = case.params
    return _fixed_residuals(run_fixed(_lemma3_sides, (p["alpha"],), p["m_max"]))


def _check_lemma4(case: IdentityCase) -> list:
    f_by_m = case.params["f_by_m"]
    fs = [fi for f in f_by_m.values() for fi in f]
    return _fixed_residuals(run_fixed(_lemma4_sides, (case.params["b"], fs), tuple(f_by_m)))


def _unit_check(p: dict, a: ComplexValue, gauss: ComplexValue) -> list:
    """The c = b+1 IPD function with top parameter a, summed at x = 1,
    against the Gauss value times (f-b)_m/(f)_m."""
    b, f, m = p["b"], p["f"], p["m"]
    fun = ipd_function(IpdSpec(b=b, f=f, m=m, a=a), c=b + 1)
    lhs = eval_pfq(fun, 1, _series_tol()).value
    rhs = gauss * pochhammer_vec(f - b, m) / pochhammer_vec(f, m)
    return [_relative(lhs, rhs)]


def _check_minton(case: IdentityCase) -> list:
    p = case.params
    k = p["k"]
    return _unit_check(p, mp.mpc(-k), mp.factorial(k) / pochhammer(p["b"] + 1, k))


def _check_karlsson(case: IdentityCase) -> list:
    p = case.params
    a, b = p["a"], p["b"]
    return _unit_check(p, a, gamma(b + 1) * gamma(1 - a) / gamma(b + 1 - a))


def _check_cor3(case: IdentityCase) -> list:
    p = case.params
    a, b, f, m = p["a"], p["b"], p["f"], p["m"]
    fb = pochhammer_vec(f - b, m)
    fb1 = pochhammer_vec(f - b - 1, m)
    lam_star = (b - a + 1) * ((b + 1) * fb - b * fb1) / ((b - a + 1) * fb - b * fb1)
    poly = build_T(b, 2, f, m, variant="Tstar", a=a)
    return [_relative(-lam_star, find_roots(poly).roots[0])]


def _single_roots(p: dict, lam: ComplexValue, lam_star: ComplexValue) -> list:
    """Closed-form roots lam and lam* against find_roots of the degree-1 L and L-hat."""
    args = (p["a"], p["d"], p["e"], p["b"], p["f"], p["m"])
    root = find_roots(build_L(*args, variant="L")).roots[0]
    root_star = find_roots(build_L(*args, variant="Lhat")).roots[0]
    return [_relative(lam, root), _relative(lam_star, root_star)]


def _check_cor4(case: IdentityCase) -> list:
    p = case.params
    a, d, e, b = p["a"], p["d"], p["e"], p["b"]
    f0 = p["f"][0]
    lam = (2 * f0 - b + 1) * (e - d - 1) / (2 * f0 - b - d + 1)
    lam_star = (
        (2 * f0 - b + 1)
        * (e - a - 1)
        * (e - d - 1)
        / (a * d + (2 * f0 - b + 1) * (e - a - d - 1))
    )
    return _single_roots(p, lam, lam_star)


def _check_cor5(case: IdentityCase) -> list:
    p = case.params
    a, d, e, f = p["a"], p["d"], p["e"], p["f"]
    s = f[0] + f[1] - p["b"]
    lam = s * (e - d - 1) / (s - d)
    lam_star = s * (e - a - 1) * (e - d - 1) / (a * d + s * (e - a - d - 1))
    return _single_roots(p, lam, lam_star)


# --------------------------------------------------------------------------
# the identity table
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSided:
    """Check of a transformation: engine right side against the oracle.

    ``rhs`` maps a case's params to the transformed HypExpression, which
    ``sample_params`` builds once per case and the call evaluates, and
    ``lhs`` to the input HypFunction, which the oracle sums directly.
    ``keys`` gives the type of every params entry the two sides read and
    ``defaults`` the value of the optional ones; ``ipdhyp transform`` reads
    params files by them.  Engine functions are looked up by module-level
    name at call time, so a caller may replace them.
    """

    rhs: Callable
    lhs: Callable
    keys: dict
    defaults: dict = field(default_factory=dict)

    def __call__(self, case: IdentityCase) -> list:
        if case.rhs_error is not None:
            raise case.rhs_error
        stol = _series_tol()
        lhs = eval_pfq_many(self.lhs(case.params), case.x_samples, stol)
        rhs = case.rhs.evaluate_many(case.x_samples, stol)
        return [_relative(left.value, right) for left, right in zip(lhs, rhs)]


def _spec(p: dict) -> IpdSpec:
    return IpdSpec(b=p["b"], f=p["f"], m=p["m"], a=p["a"], c=p.get("c"))


def _general_lhs(p: dict):
    """The general IPD function, the left side of MP1, MP2 and COR1."""
    return ipd_function(_spec(p))


_IPD_KEYS = {"a": ComplexValue, "b": ComplexValue, "f": ParamVector, "m": IntVector}
_GENERAL_KEYS = dict(_IPD_KEYS, c=ComplexValue)


def _degenerate_single(variant: str) -> TwoSided:
    return TwoSided(
        lambda p: apply_degenerate_single(_spec(p), variant=variant),
        lambda p: ipd_function(_spec(p), c=p["b"] + 1),
        _IPD_KEYS,
    )


def _degenerate_p(variant: str) -> TwoSided:
    return TwoSided(
        lambda p: apply_degenerate_p(_spec(p), p["p"], variant=variant),
        lambda p: ipd_function(_spec(p), c=p["b"] + p["p"]),
        dict(_IPD_KEYS, p=int),
        {"p": 1},
    )


def _degenerate_vector(variant: str) -> TwoSided:
    return TwoSided(
        lambda p: apply_degenerate_vector(p["b"], p["p"], p["a"], p["f"], p["m"], variant=variant),
        lambda p: vector_function(p["a"], p["b"], p["p"], p["f"], p["m"]),
        dict(_IPD_KEYS, b=ParamVector, p=IntVector),
    )


def _two_free(variant: str) -> TwoSided:
    return TwoSided(
        lambda p: apply_two_free(p["a"], p["d"], p["e"], p["b"], p["f"], p["m"], variant=variant),
        lambda p: two_free_function(p["a"], p["d"], p["e"], p["b"], p["f"], p["m"]),
        dict(_IPD_KEYS, d=ComplexValue, e=ComplexValue),
    )


def _unit_x_samples(rng: random.Random) -> list:
    return [mp.mpf(1)]


def _no_x_samples(rng: random.Random) -> list:
    return []


@dataclass(frozen=True)
class _Identity:
    check: Callable  # case -> residuals, one per sample checked
    draws: tuple  # (name, drawer) steps, drawn in order before any clause is tested
    clauses: tuple  # the _Clause preconditions of an admissible draw
    x_samples: Callable = _default_x_samples  # rng -> arguments


# Clauses several identities share.  A name cites the hypothesis or the
# engine guard the clause encodes; |m| is the total multiplicity.
_F = _Clause("(f_i)_{|m|+1} != 0: (f)_m, the guard of every coefficient family",
             _poch, lambda f, m, **_: [(fi, m.total + 1) for fi in f])
_FM = _Clause("(f_i)_{|m|} != 0: (f)_m and the terminating sums over it",
              _poch, lambda f, m, **_: [(fi, m.total) for fi in f])
_B = _Clause("b != 0", _away, lambda b, **_: (b,))
_CB = _Clause("(c-b-m)_m != 0: the norm of Q (eq5) and P",
              _poch, lambda b, c, m, **_: [(c - b - m.total, m.total)])
_D = _Clause("(1-f_i+b-m_i)_{|m|} != 0: the bottom of D_k's (r+1)F_r",
             _poch, lambda b, f, m, **_: [(1 - fi + b - mi, m.total) for fi, mi in zip(f, m)])
_HATTED = (
    _Clause("(c-a-m)_m != 0: Q-hat and P-hat",
            _poch, lambda a, c, m, **_: [(c - a - m.total, m.total)]),
    _CB,
    _Clause("(b+1)_{|m|} != 0: the terminating sums inside Q-hat and P-hat",
            _poch, lambda b, m, **_: [(b + 1, m.total)]),
)


def _beta(b: ParamVector, p: IntVector, **_) -> list:
    """VEC's grid: b_j, b_j+1, ..., b_j+p_j-1 for every j."""
    return [bj + i for bj, pj in zip(b, p) for i in range(pj)]


_THM4_DRAWS = _draws("ab", ("p", _by_index(1, 2, 3, 4)))
_THM4_B = _Clause("(b)_p != 0: b+q-1 != 0 for q = 1..p (eq29, eq31)",
                  _poch, lambda b, p, **_: [(b, p)])
_VEC = (
    _draws("a", ("p", _choice(((1, 1), (2, 1), (1, 2), (2, 2)))), ("b", _one_per("p"))),
    (
        _Clause("beta_q != 0: the weights of eq27 and eq28", _away, _beta),
        _Clause("the beta grid is distinct (eq27, eq28)", _distinct, _beta),
        _F,
    ),
)
_THM5_L = (_B, _Clause("(e-d-m+1)_{m-1} != 0: L",
                       _poch, lambda d, e, m, **_: [(e - d - m.total + 1, m.total - 1)]))

#: COR4 and COR5: b != 0 and the guards of L, L-hat and Y at |m| = 2.
_SINGLE_ROOT = (
    _B,
    _Clause("e-d-1 != 0: (e-d-m+1)_{m-1} of L", _away, lambda d, e, **_: (e - d - 1,)),
    _Clause("e-a-1 != 0: (e-a-m+1)_{m-1} of L-hat", _away, lambda a, e, **_: (e - a - 1,)),
    _Clause("(b+1)_1 != 0: the bottom b+1 of Y", _poch, lambda b, **_: [(b + 1, 1)]),
)

_LEMMA4_M_POOL = ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1),
                  (2, 1, 1), (1, 1, 1, 1), (4,), (5,), (3, 2), (4, 1))


def _lemma4_f(rng: random.Random, p: dict, index: int) -> dict:
    """LEMMA4's f_by_m: one f_i per entry of each m of its pool, in pool order."""
    return {m: ParamVector([_complex(rng) for _ in m]) for m in _LEMMA4_M_POOL}


def _minton_k(rng: random.Random, p: dict, index: int) -> int:
    """MINTON's terminating index k, at least |m|."""
    return p["m"].total + rng.randint(0, 4)


def _karlsson_a(rng: random.Random, p: dict, index: int) -> ComplexValue:
    """KARLSSON's a, from the box shifted so that Re(1-a-|m|) >= 0.05: its
    series at x = 1 converges at every m of the pool."""
    return _complex(rng) - (p["m"].total + mp.mpf("2.05"))


#: Identity catalog, in report order.
IDENTITIES = {
    "MP1": _Identity(
        TwoSided(lambda p: apply_mp1(_spec(p), route=p["route"]), _general_lhs,
                 dict(_GENERAL_KEYS, route=str), {"route": "paperQ"}),
        _draws("abc", ("route", _by_index("paperQ", "newP"))),
        (_F, _D, _CB),
    ),
    "MP2": _Identity(
        TwoSided(lambda p: apply_mp2(_spec(p), route=p["route"]), _general_lhs,
                 dict(_GENERAL_KEYS, route=str), {"route": "paperQhat"}),
        _draws("abc", ("route", _by_index("paperQhat", "newPhat"))),
        _HATTED + (_F, _Clause("(1+a+b-c)_m != 0: apply_mp2",
                               _poch, lambda a, b, c, m, **_: [(1 + a + b - c, m.total)])),
    ),
    "THM3_EQ19": _Identity(_degenerate_single("eq19"), _draws("ab"), (_F,)),
    "THM3_EQ20": _Identity(_degenerate_single("eq20"), _draws("ab"), (_F,)),
    "THM4_EQ29": _Identity(_degenerate_p("eq29"), _THM4_DRAWS, (_THM4_B, _F)),
    "THM4_EQ31": _Identity(_degenerate_p("eq31"), _THM4_DRAWS, (
        _THM4_B,
        _Clause("(b+1-a)_{p-1} != 0: T* (eq31)",
                _poch, lambda a, b, p, **_: [(b + 1 - a, p - 1)]),
        _F,
    )),
    "VEC_EQ27": _Identity(_degenerate_vector("eq27"), *_VEC),
    "VEC_EQ28": _Identity(_degenerate_vector("eq28"), *_VEC),
    "THM5_FIRST": _Identity(_two_free("first"), _draws("adeb"), _THM5_L + (_F,)),
    "THM5_SECOND": _Identity(_two_free("second"), _draws("adeb"), _THM5_L + (
        _Clause("(e-a-m+1)_{m-1} != 0: L-hat",
                _poch, lambda a, e, m, **_: [(e - a - m.total + 1, m.total - 1)]),
        _Clause("(1+a+d-e)_{m-1} != 0: the second variant",
                _poch, lambda a, d, e, m, **_: [(1 + a + d - e, m.total - 1)]),
        _F,
    )),
    "LEMMA1": _Identity(_check_lemma1, _draws("bc"), (
        _Clause("c-b and f_i-f_j (i != j) clear: the kernel's partial fractions",
                _clear, lambda b, c, f, **_: [c - b, *(fi - fj for fi, fj in permutations(f, 2))]),
        _Clause("f_i-c, c-f_i and 1-f_i-m_i+b clear: the series route's genericity",
                _clear, lambda b, c, f, m, **_: [
                    z for fi, mi in zip(f, m) for z in (fi - c, c - fi, 1 - fi - mi + b)
                ]),
    ), _lemma1_t_samples),
    "COR1": _Identity(TwoSided(lambda p: expand_to_gauss(_spec(p)), _general_lhs, _GENERAL_KEYS),
                      _draws("abc"), (_F, _D)),
    "LEMMA2": _Identity(_check_lemma2, _draws("bc"), (_FM, _D, _CB), _no_x_samples),
    "COR2": _Identity(_check_cor2, _draws("abc"), _HATTED + (_FM,), _no_x_samples),
    "LEMMA3": _Identity(_check_lemma3, (("alpha", _complex), ("m_max", _by_index(6))), (
        _Clause("(alpha-m_max)_{m_max} != 0",
                _poch, lambda alpha, m_max, **_: [(alpha - m_max, m_max)]),
    ), _no_x_samples),
    "LEMMA4": _Identity(_check_lemma4, (("b", _complex), ("f_by_m", _lemma4_f)), (
        _Clause("(f_i)_{|m|} != 0 for every m: (f)_m", _poch,
                lambda f_by_m, **_: [(fi, sum(m)) for m, f in f_by_m.items() for fi in f]),
        _Clause("(b+1)_{|m|} != 0 for every m: the outer sum's bottom b+|m|-k+1",
                _poch, lambda b, f_by_m, **_: [(b + 1, sum(m)) for m in f_by_m]),
    ), _no_x_samples),
    "MINTON": _Identity(_check_minton, _draws("b", ("k", _minton_k)), (
        _Clause("(b+1)_k != 0: k!/(b+1)_k", _poch, lambda b, k, **_: [(b + 1, k)]),
        _Clause("(f_i)_k != 0: the bottom f", _poch, lambda f, k, **_: [(fi, k) for fi in f]),
    ), _unit_x_samples),
    "KARLSSON": _Identity(_check_karlsson, _draws("b", ("a", _karlsson_a)), (
        _Clause("b+1, b+1-a and f_i clear: Gamma(b+1)/Gamma(b+1-a) and the bottom",
                _clear, lambda a, b, f, **_: (b + 1, b + 1 - a, *f)),
    ), _unit_x_samples),
    "COR3": _Identity(_check_cor3, _draws("ab", pool=((1,), (2,), (3,))), (
        _Clause("(b+1-a)_1 != 0: (b+1-a)_{p-1} of T* at p = 2",
                _poch, lambda a, b, **_: [(b + 1 - a, 1)]),
        _Clause("lambda*'s denominator (b-a+1)(f-b)_m - b(f-b-1)_m != 0", _away,
                lambda a, b, f, m, **_: (
                    (b - a + 1) * pochhammer_vec(f - b, m) - b * pochhammer_vec(f - b - 1, m),
                )),
    ), _no_x_samples),
    "COR4": _Identity(_check_cor4, _draws("adeb", pool=((2,),)), _SINGLE_ROOT + (
        _Clause("lambda's denominator 2f-b-d+1 != 0",
                _away, lambda b, d, f, **_: (2 * f[0] - b - d + 1,)),
        _Clause("lambda*'s denominator ad+(2f-b+1)(e-a-d-1) != 0",
                _away, lambda a, b, d, e, f, **_: (a * d + (2 * f[0] - b + 1) * (e - a - d - 1),)),
        _FM,
    ), _no_x_samples),
    "COR5": _Identity(_check_cor5, _draws("adeb", pool=((1, 1),)), _SINGLE_ROOT + (
        _Clause("lambda's denominator s-d != 0, s = f_1+f_2-b",
                _away, lambda b, d, f, **_: (sum(f) - b - d,)),
        _Clause("lambda*'s denominator ad+s(e-a-d-1) != 0",
                _away, lambda a, b, d, e, f, **_: (a * d + (sum(f) - b) * (e - a - d - 1),)),
        _Clause("(f_i)_1 != 0: (f)_m", _poch, lambda f, **_: [(fi, 1) for fi in f]),
    ), _no_x_samples),
}

IDENTITY_IDS = tuple(IDENTITIES)


def admissible(identity_id: str, params: dict) -> list:
    """Names of the clauses of ``identity_id`` that ``params`` fails, in
    table order; an empty list means admissible.  The right-side screen of
    ``sample_params`` is not a clause and is not applied here.  Raises
    ValueError naming the key when ``params`` lacks one a clause reads."""
    clauses = IDENTITIES[identity_id].clauses
    for clause in clauses:
        for key, arg in inspect.signature(clause.values).parameters.items():
            if arg.kind is not arg.VAR_KEYWORD and key not in params:
                raise ValueError(f"{identity_id} params are missing {key!r}")
    return [c.name for c in clauses if not c.kind(*c.values(**params))]


def _draw_case(identity_id: str, rng: random.Random, index: int) -> Optional[IdentityCase]:
    """One draw: None if a clause or the right-side screen rejects it.

    Every draw step runs, then the clauses are tested up to the first that
    fails.  A two-sided draw's right side is built with RootWarning raised
    as an error whatever the caller's filters, and a draw whose build warns
    is rejected like one the screen rejects."""
    entry = IDENTITIES[identity_id]
    params: dict = {}
    for name, draw in entry.draws:
        params[name] = draw(rng, params, index)
    if not all(c.kind(*c.values(**params)) for c in entry.clauses):
        return None
    case = IdentityCase(identity_id, params, [])
    if isinstance(entry.check, TwoSided):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RootWarning)
            try:
                case.rhs = entry.check.rhs(params)
            except RootWarning:
                return None
            except IpdHypError as exc:
                case.rhs_error = exc
        if case.rhs is not None and not _rhs_usable(case.rhs):
            return None
    return case


def sample_params(identity_id: str, seed: int, count: int) -> list:
    """Draw ``count`` admissible cases for one identity, deterministically.

    The identity's draw steps take complex parameters from the box Re in
    [-2, 3], Im in [-1, 1] (KARLSSON's a from that box shifted by
    -(|m| + 2.05)), and the draw is redrawn if ``admissible`` names a failed
    clause.  A two-sided case's right side is then built once, for its
    check to evaluate, and the draw is redrawn if the build warns
    (RootWarning, under any warning filter) or unless each bottom parameter
    of its series is at most 1e4 and MARGIN clear of the poles: this
    right-side screen is not a clause, and the clauses leave those bottom
    parameters to it.  A domain error building an admissible draw is kept
    for the check to raise (a skip, not a redraw).  Raises
    RejectionExhaustedError after 10^4 failed draws.
    """
    if identity_id not in IDENTITIES:
        raise KeyError(f"unknown identity id {identity_id!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cases = []
    for index in range(count):
        rng = _case_rng(seed, identity_id, index)
        for _attempt in range(MAX_REJECTIONS):
            case = _draw_case(identity_id, rng, index)
            if case is not None:
                break
        else:
            raise RejectionExhaustedError(
                f"{identity_id}: no admissible draw in {MAX_REJECTIONS} attempts"
            )
        case.x_samples = IDENTITIES[identity_id].x_samples(rng)
        cases.append(case)
    return cases


def evaluate_case(case: IdentityCase, tol: mp.mpf, index: int = 0) -> CaseResult:
    """Run one case; a domain error (IpdHypError) becomes a skipped status.

    The case passes when every residual is at most ``tol``; a NaN residual
    fails and is the case's ``max_residual``.  Any other exception is a fault of the program and propagates,
    and a RootWarning is left to the caller's warning filters.
    """
    check = IDENTITIES[case.identity_id].check
    try:
        residuals = check(case)
    except IpdHypError as exc:
        return CaseResult(
            case.identity_id, index, "skipped", None, 0,
            f"{type(exc).__name__}: {exc}",
        )
    status = "pass" if all(r <= tol for r in residuals) else "fail"
    return CaseResult(case.identity_id, index, status, _worst(residuals), len(residuals))


def run_suite(
    ids: Optional[Sequence[str]] = None,
    seed: int = 1,
    count: int = 20,
    tol: mp.mpf | None = None,
) -> VerificationReport:
    """Verify the identity catalog; returns the aggregated report.

    ``ids`` (default: the whole catalog) must name at least one identity
    and none twice.  Default tolerance is 10^-(P-12) relative at P context
    digits (1e-28 at the default 40 digits), sized so that root-solver and
    series-truncation error dominate cancellation noise.  A given ``tol``
    must be finite, >= 0.
    """
    if ids is None:
        ids = IDENTITY_IDS
    for identity_id in ids:
        if identity_id not in IDENTITIES:
            raise KeyError(f"unknown identity id {identity_id!r}")
    if not ids or len(set(ids)) < len(ids):
        raise ValueError(f"ids must name each identity once, got {list(ids)!r}")
    tol = mp.mpf(10) ** (-(mp.mp.dps - 12)) if tol is None else mp.mpf(tol)
    if not (mp.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {mp.nstr(tol, 8)}")
    started = time.time()
    report = VerificationReport(
        seed=seed, digits=mp.mp.dps, count=count, tolerance=tol
    )
    for identity_id in ids:
        cases = sample_params(identity_id, seed, count)
        for index, case in enumerate(cases):
            report.cases.append(evaluate_case(case, tol, index))
    report.wall_time_s = time.time() - started
    return report


def report_to_json(report: VerificationReport) -> str:
    """Deterministic JSON rendering (wall time is the only varying field)."""
    summary = report.identity_summary()
    doc = {
        "seed": report.seed,
        "digits": report.digits,
        "count": report.count,
        "tolerance": mp.nstr(report.tolerance, 8),
        "identities": [
            {
                "id": identity_id,
                "cases": data["cases"],
                "samples": data["samples"],
                "max_residual": (
                    mp.nstr(data["max_residual"], 12)
                    if data["max_residual"] is not None
                    else None
                ),
                "status": data["status"],
                "skip_reasons": data["skip_reasons"],
            }
            for identity_id, data in summary.items()
        ],
        "failed": report.n_failed,
        "skipped": report.n_skipped,
        "exit_code": report.exit_code,
        "wall_time_s": round(report.wall_time_s, 3),
    }
    return json.dumps(doc, indent=2)
