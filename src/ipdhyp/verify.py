"""Batch verification harness for the full identity catalog.

For every identity in the catalog a sampler draws random admissible
parameter tuples (rejection-resampled until the identity's preconditions
hold with margin) and a checker evaluates both sides numerically, the right
side through the transformation engine and the left side through the
independent series oracle.  Residuals are relative:

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
import json
import math
import random
import time
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, Optional, Sequence

import mpmath as mp

from .charpoly import build_L, build_P, build_Phat, build_Q, build_Qhat, build_T, find_roots
from .coeffs import IpdSpec
from .errors import IpdHypError, RejectionExhaustedError
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

#: Pochhammer non-vanishing margin used by the rejection sampler.
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
        """Per-identity aggregation: worst residual, every skip reason, and
        the combined status (fail over skipped over pass)."""
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
                if slot["max_residual"] is None or c.max_residual > slot["max_residual"]:
                    slot["max_residual"] = c.max_residual
            if c.status == "skipped":
                slot["skip_reasons"].append(c.skip_reason)
            slot["status"] = max(slot["status"], c.status, key=_STATUS_ORDER.index)
        return out


class _Reject(Exception):
    """Internal: parameter draw violated a precondition; redraw."""


def _case_rng(seed: int, identity_id: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{identity_id}/{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_complex(rng: random.Random) -> ComplexValue:
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _draw(rng: random.Random, names: str, pool=M_POOL) -> dict:
    """Draw the complex parameters named by the letters of ``names`` in
    order, then m from ``pool`` (a pool of one is taken without a draw) and
    one f_i per entry of m."""
    params = {name: _draw_complex(rng) for name in names}
    m = IntVector(pool[0] if len(pool) == 1 else rng.choice(pool))
    params["f"] = ParamVector([_draw_complex(rng) for _ in m])
    params["m"] = m
    return params


def _default_x_samples(rng: random.Random) -> list:
    """x = 0 plus points in the disk |x| <= 0.45 (so Re(x) < 1/2)."""
    xs = [mp.mpc(0)]
    while len(xs) < 8:
        r = mp.mpf("0.05") + mp.mpf(rng.random()) * mp.mpf("0.4")
        theta = 2 * mp.pi * mp.mpf(rng.random())
        xs.append(r * mp.exp(mp.mpc(0, theta)))
    return xs


def _require(condition: bool) -> None:
    if not condition:
        raise _Reject


def _away(z: ComplexValue) -> bool:
    """|z| clears the margin: for a quantity that must not vanish and is
    not a pole of Gamma (poles go through ``_clear`` and ``_poch_margin``)."""
    return abs(z) >= MARGIN


def _clear(*zs: ComplexValue) -> bool:
    """Every z clears the margin around the nonpositive integers.

    The margin is a square box, |Re z + n| <= MARGIN and |Im z| <= MARGIN,
    around every pole -n of Gamma: the box of ``as_nonpositive_integer``.
    """
    return all(as_nonpositive_integer(z, MARGIN) is None for z in zs)


def _poch_margin(z: ComplexValue, n: int) -> bool:
    """Every factor of (z)_n clears the margin: z keeps the box of ``_clear``
    off each of the poles 0, -1, ..., -(n-1), and may lie near -n or below."""
    k = as_nonpositive_integer(z, MARGIN)
    return k is None or k <= -n


def _f_margin(p: dict) -> bool:
    """Every (f_i)_{|m|+1} clears the margin, |m| the total multiplicity."""
    return all(_poch_margin(fi, p["m"].total + 1) for fi in p["f"])


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
# samplers
# --------------------------------------------------------------------------


def _sample_mp1(rng: random.Random, index: int) -> dict:
    p = _sample_cor1(rng, index)
    b, c, m = p["b"], p["c"], p["m"]
    _require(_poch_margin(c - b - m.total, m.total))
    p["route"] = "paperQ" if index % 2 == 0 else "newP"
    return p


def _sample_mp2(rng: random.Random, index: int) -> dict:
    p = _sample_cor2(rng, index)
    a, b, c, m = p["a"], p["b"], p["c"], p["m"]
    _require(_poch_margin(1 + a + b - c, m.total))
    p["route"] = "paperQhat" if index % 2 == 0 else "newPhat"
    return p


def _sample_thm3(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "ab")
    _require(_away(p["b"]) and _f_margin(p))
    return p


def _sample_thm4(rng: random.Random, index: int) -> dict:
    p_shift = index % 4 + 1
    p = _draw(rng, "ab")
    a, b = p["a"], p["b"]
    _require(_clear(b, *(b + q - a for q in range(1, p_shift + 1))) and _f_margin(p))
    p["p"] = p_shift
    return p


_P_POOL = ((1, 1), (2, 1), (1, 2), (2, 2))


def _sample_vec(rng: random.Random, index: int) -> dict:
    pvec = IntVector(rng.choice(_P_POOL))
    bvec = ParamVector([_draw_complex(rng) for _ in pvec])
    p = _draw(rng, "a")
    beta = [bj + i for bj, pj in zip(bvec, pvec) for i in range(pj)]
    _require(
        all(_away(z) for z in beta)
        and all(_away(y - z) for y, z in combinations(beta, 2))
        and _f_margin(p)
    )
    p.update(b=bvec, p=pvec)
    return p


def _sample_thm5(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "adeb")
    a, d, e, b, mt = p["a"], p["d"], p["e"], p["b"], p["m"].total
    _require(
        _away(b)
        and _poch_margin(e - d - mt + 1, mt - 1)
        and _poch_margin(e - a - mt + 1, mt - 1)
        and _poch_margin(1 + a + d - e, mt - 1)
        and _f_margin(p)
    )
    return p


def _sample_lemma1(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "bc")
    b, c, f, m = p["b"], p["c"], p["f"], p["m"]
    # f_i - c and f_i - f_j must be clear of the integers of either sign
    _require(
        _clear(c - b, *(fi - fj for fi, fj in permutations(f, 2)))
        and _clear(*(z for fi, mi in zip(f, m) for z in (fi - c, c - fi, 1 - fi - mi + b)))
        and _f_margin(p)
    )
    return p


def _lemma1_t_samples(rng: random.Random) -> list:
    return [mp.mpf("0.05") + mp.mpf(rng.random()) * mp.mpf("0.9") for _ in range(8)]


def _check_lemma1(case: IdentityCase) -> list:
    p = case.params
    args = (case.x_samples, p["b"], p["c"], p["f"], p["m"])
    closed = meijer_norlund_ipd_many(*args, route="closed")
    series = meijer_norlund_ipd_many(*args, route="series", tol=_series_tol())
    return [_relative(left, right) for left, right in zip(closed, series)]


def _sample_cor1(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "abc")
    b, f, m = p["b"], p["f"], p["m"]
    _require(
        _f_margin(p) and all(_poch_margin(1 - fi + b - mi, m.total) for fi, mi in zip(f, m))
    )
    return p


def _sample_lemma2(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "bc")
    b, c, f, m = p["b"], p["c"], p["f"], p["m"]
    mt = m.total
    _require(
        _poch_margin(c - b - mt, mt)
        and _f_margin(p)
        and all(_poch_margin(1 - fi + b - mi, mt) for fi, mi in zip(f, m))
    )
    return p


def _check_lemma2(case: IdentityCase) -> list:
    p = case.params
    q_poly = build_Q(p["b"], p["c"], p["f"], p["m"])
    p_poly = build_P(p["b"], p["c"], p["f"], p["m"])
    fm = pochhammer_vec(p["f"], p["m"])
    return [_coeff_deviation(p_poly.coeffs, [c * fm for c in q_poly.coeffs])]


def _sample_cor2(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "abc")
    a, b, c, mt = p["a"], p["b"], p["c"], p["m"].total
    # (b+1)_{m+1}: the terminating sums inside the hatted polynomials
    _require(
        _poch_margin(c - a - mt, mt)
        and _poch_margin(c - b - mt, mt)
        and _poch_margin(b + 1, mt + 1)
        and _f_margin(p)
    )
    return p


def _check_cor2(case: IdentityCase) -> list:
    p = case.params
    qhat = build_Qhat(p["a"], p["b"], p["c"], p["f"], p["m"])
    phat = build_Phat(p["a"], p["b"], p["c"], p["f"], p["m"])
    return [_coeff_deviation(qhat.coeffs, phat.coeffs)]


def _sample_lemma3(rng: random.Random, index: int) -> dict:
    alpha = _draw_complex(rng)
    _require(_poch_margin(alpha - 6, 6))
    return {"alpha": alpha, "m_max": 6}


def _check_lemma3(case: IdentityCase) -> list:
    # (-n)_j = (-1)^j n!/(n-j)! and j! are exact ints: an mpc times an int
    # rounds as it does times the same value held as an mpc, and dividing by
    # an int rounds as dividing by an mpf.  The complex Pochhammers are runs
    # made once per mt, each from alpha - mt + j (alpha + (j - mt) can round
    # differently).
    alpha = case.params["alpha"]
    m_max = case.params["m_max"]
    residuals = []
    for mt in range(m_max + 1):
        base = rising(alpha - mt, mt)
        shifted = [rising(alpha - mt + j, mt) for j in range(mt + 1)]
        for k in range(mt + 1):
            for i in range(k + 1):
                lhs = mp.mpc(0)
                for j in range(i, k + 1):
                    lhs += (
                        (-1) ** j * math.perm(k, j)
                        * shifted[j][mt - i]
                        * ((-1) ** i * math.perm(j, i))
                        / math.factorial(j)
                    )
                # (-1)^i (-k)_i (-mt)_k = (-1)^k k!/(k-i)! mt!/(mt-k)!
                rhs = (
                    (-1) ** k * math.perm(k, i) * math.perm(mt, k)
                    * base[mt]
                    / ((-1) ** i * math.perm(mt, i) * base[k])
                )
                residuals.append(_relative(rhs, lhs))
    return residuals


_LEMMA4_M_POOL = ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1),
                  (2, 1, 1), (1, 1, 1, 1), (4,), (5,), (3, 2), (4, 1))


def _sample_lemma4(rng: random.Random, index: int) -> dict:
    b = _draw_complex(rng)
    fs = {}
    for pool_m in _LEMMA4_M_POOL:
        p = _draw(rng, "", (pool_m,))
        _require(_f_margin(p) and _poch_margin(b + 1, 2 * p["m"].total + 1))
        fs[pool_m] = p["f"]
    return {"b": b, "f_by_m": fs}


def _check_lemma4(case: IdentityCase) -> list:
    # Integer Pochhammers as exact ints, as in _check_lemma3; a divisor stays
    # an mpc, since dividing by an mpc rounds unlike dividing by an int.
    b = case.params["b"]
    residuals = []
    for pool_m, f in case.params["f_by_m"].items():
        m = IntVector(pool_m)
        mt = m.total
        f_shift = list(f.shifted_by(m))
        inner = terminating_family(f_shift, f, mt)
        pb, nb, nm = rising(b, mt), rising(-b - mt, mt), rising(mp.mpc(-mt), mt)
        denominators = [
            mp.mpc((-1) ** i * math.perm(mt, i) * math.factorial(i)) for i in range(mt + 1)
        ]
        for k in range(mt + 1):
            lhs = mp.mpc(0)
            for i in range(k + 1):
                lhs += (-1) ** i * math.perm(k, i) * pb[i] / denominators[i] * inner[i]
            outer = terminating_pfq(
                [mp.mpc(-k), b] + f_shift, [b + mt - k + 1] + list(f), k
            )
            rhs = nb[k] / nm[k] * outer
            residuals.append(_relative(rhs, lhs))
    return residuals


def _sample_minton(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "b")
    b, f, mt = p["b"], p["f"], p["m"].total
    k = p["k"] = mt + rng.randint(0, 4)
    _require(
        _poch_margin(b + 1, k)
        and all(_poch_margin(fi, k + 1) and _poch_margin(fi - b, mt) for fi in f)
    )
    return p


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


def _sample_karlsson(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "b")
    b, f, mt = p["b"], p["f"], p["m"].total
    a = p["a"] = _draw_complex(rng)
    _require(
        (1 - a - mt).real >= mp.mpf("0.05")
        and _clear(b + 1, b + 1 - a, *f)
        and all(_poch_margin(fi - b, mt) for fi in f)
    )
    return p


def _check_karlsson(case: IdentityCase) -> list:
    p = case.params
    a, b = p["a"], p["b"]
    return _unit_check(p, a, gamma(b + 1) * gamma(1 - a) / gamma(b + 1 - a))


def _sample_cor3(rng: random.Random, index: int) -> dict:
    p = _draw(rng, "ab", ((1,), (2,), (3,)))
    a, b, f, m = p["a"], p["b"], p["f"], p["m"]
    fb = pochhammer_vec(f - b, m)
    fb1 = pochhammer_vec(f - b - 1, m)
    _require(
        _clear(b, b + 1 - a)
        and _away((b - a + 1) * fb - b * fb1)
        and _f_margin(p)
    )
    return p


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


def _sample_single_root(rng: random.Random, m: tuple) -> dict:
    """COR4 and COR5: a, d, e, b and f at a fixed m, with their common margins."""
    p = _draw(rng, "adeb", (m,))
    a, d, e, b = p["a"], p["d"], p["e"], p["b"]
    _require(_away(b) and _away(e - d - 1) and _away(e - a - 1) and _poch_margin(b + 1, 2))
    return p


def _sample_cor4(rng: random.Random, index: int) -> dict:
    p = _sample_single_root(rng, (2,))
    a, d, e, b, f0 = p["a"], p["d"], p["e"], p["b"], p["f"][0]
    _require(
        _away(2 * f0 - b - d + 1)
        and _away(a * d + (2 * f0 - b + 1) * (e - a - d - 1))
        and _f_margin(p)
    )
    return p


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


def _sample_cor5(rng: random.Random, index: int) -> dict:
    p = _sample_single_root(rng, (1, 1))
    a, d, e, f = p["a"], p["d"], p["e"], p["f"]
    s = f[0] + f[1] - p["b"]
    _require(
        _away(s - d)
        and _away(a * d + s * (e - a - d - 1))
        and all(_poch_margin(fi, 2) for fi in f)
    )
    return p


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
    sample: Callable  # (rng, index) -> params
    check: Callable  # case -> residuals, one per sample checked
    x_samples: Callable = _default_x_samples  # rng -> arguments


#: Identity catalog, in report order.
IDENTITIES = {
    "MP1": _Identity(_sample_mp1, TwoSided(
        lambda p: apply_mp1(_spec(p), route=p["route"]),
        lambda p: ipd_function(_spec(p)),
        dict(_GENERAL_KEYS, route=str),
        {"route": "paperQ"},
    )),
    "MP2": _Identity(_sample_mp2, TwoSided(
        lambda p: apply_mp2(_spec(p), route=p["route"]),
        lambda p: ipd_function(_spec(p)),
        dict(_GENERAL_KEYS, route=str),
        {"route": "paperQhat"},
    )),
    "THM3_EQ19": _Identity(_sample_thm3, _degenerate_single("eq19")),
    "THM3_EQ20": _Identity(_sample_thm3, _degenerate_single("eq20")),
    "THM4_EQ29": _Identity(_sample_thm4, _degenerate_p("eq29")),
    "THM4_EQ31": _Identity(_sample_thm4, _degenerate_p("eq31")),
    "VEC_EQ27": _Identity(_sample_vec, _degenerate_vector("eq27")),
    "VEC_EQ28": _Identity(_sample_vec, _degenerate_vector("eq28")),
    "THM5_FIRST": _Identity(_sample_thm5, _two_free("first")),
    "THM5_SECOND": _Identity(_sample_thm5, _two_free("second")),
    "LEMMA1": _Identity(_sample_lemma1, _check_lemma1, _lemma1_t_samples),
    "COR1": _Identity(_sample_cor1, TwoSided(
        lambda p: expand_to_gauss(_spec(p)),
        lambda p: ipd_function(_spec(p)),
        _GENERAL_KEYS,
    )),
    "LEMMA2": _Identity(_sample_lemma2, _check_lemma2, _no_x_samples),
    "COR2": _Identity(_sample_cor2, _check_cor2, _no_x_samples),
    "LEMMA3": _Identity(_sample_lemma3, _check_lemma3, _no_x_samples),
    "LEMMA4": _Identity(_sample_lemma4, _check_lemma4, _no_x_samples),
    "MINTON": _Identity(_sample_minton, _check_minton, _unit_x_samples),
    "KARLSSON": _Identity(_sample_karlsson, _check_karlsson, _unit_x_samples),
    "COR3": _Identity(_sample_cor3, _check_cor3, _no_x_samples),
    "COR4": _Identity(_sample_cor4, _check_cor4, _no_x_samples),
    "COR5": _Identity(_sample_cor5, _check_cor5, _no_x_samples),
}

IDENTITY_IDS = tuple(IDENTITIES)


def _draw_case(identity_id: str, entry: _Identity, rng: random.Random, index: int) -> IdentityCase:
    case = IdentityCase(identity_id, entry.sample(rng, index), [])
    if isinstance(entry.check, TwoSided):
        try:
            case.rhs = entry.check.rhs(case.params)
        except IpdHypError as exc:
            case.rhs_error = exc
        else:
            _require(_rhs_usable(case.rhs))
    return case


def sample_params(identity_id: str, seed: int, count: int) -> list:
    """Draw ``count`` admissible cases for one identity, deterministically.

    Parameters come from the box Re in [-2, 3], Im in [-1, 1] and are
    rejection-resampled until the identity's preconditions hold with margin
    1e-3 (Pochhammer non-vanishing, distinctness, pole clearance).  A
    two-sided case's right side is built here once, for its check to
    evaluate, and redrawn unless each bottom parameter of its series is at
    most 1e4 and 1e-3 clear of the poles: the samplers leave the pole
    clearance of those bottom parameters to this screen.  A domain error
    building an admissible draw is kept for the check to raise (a skip, not
    a redraw); a draw may warn (RootWarning) and then be redrawn.  Raises
    RejectionExhaustedError after 10^4 failed draws.
    """
    if identity_id not in IDENTITIES:
        raise KeyError(f"unknown identity id {identity_id!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    entry = IDENTITIES[identity_id]
    cases = []
    for index in range(count):
        rng = _case_rng(seed, identity_id, index)
        for _attempt in range(MAX_REJECTIONS):
            with suppress(_Reject):
                case = _draw_case(identity_id, entry, rng, index)
                break
        else:
            raise RejectionExhaustedError(
                f"{identity_id}: no admissible draw in {MAX_REJECTIONS} attempts"
            )
        case.x_samples = entry.x_samples(rng)
        cases.append(case)
    return cases


def evaluate_case(case: IdentityCase, tol: mp.mpf, index: int = 0) -> CaseResult:
    """Run one case; a domain error (IpdHypError) becomes a skipped status.

    The case passes when every residual is at most ``tol`` (a NaN residual
    fails).  Any other exception is a fault of the program and propagates,
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
    return CaseResult(case.identity_id, index, status, max(residuals), len(residuals))


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
