import dataclasses
import hashlib
import json
import math
import pickle
import random
import re
import runpy
import warnings
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdhyp.charpoly import (
    build_L,
    build_P,
    build_Phat,
    build_Q,
    build_Qhat,
    build_T,
    find_roots,
    w_poly,
)
from ipdhyp.cli import cli_dispatch, format_complex, parse_complex
from ipdhyp.errors import (
    DegenerateCaseError,
    IpdHypError,
    NonConvergenceError,
    RejectionExhaustedError,
    RootWarning,
)
import ipdhyp.verify as verify_mod
from ipdhyp.kernel import (
    Fixed,
    IntVector,
    ParamVector,
    cplx,
    pochhammer,
    pochhammer_vec,
    rising,
    run_fixed,
    set_precision,
    terminating_family,
    terminating_pfq,
)
from ipdhyp.verify import (
    IDENTITIES,
    IDENTITY_IDS,
    IdentityCase,
    TwoSided,
    _away,
    _clear,
    _draw_case,
    admissible,
    evaluate_case,
    report_to_json,
    run_suite,
    sample_params,
)


#: A params file that every ``charpoly --which`` can read.
_CHARPOLY_PARAMS = {
    "a": "0.7+0.1i", "b": "0.4-0.2i", "c": "2.3+0.3i", "d": "0.9", "e": "3.1-0.4i",
    "f": ["1.5+0.2i", "0.8"], "m": [2, 1],
}


def _strip_wall_time(rendered: str) -> str:
    return re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": 0', rendered)


class TestSampler:
    def test_deterministic_under_seed(self):
        first = sample_params("MP1", seed=7, count=3)
        second = sample_params("MP1", seed=7, count=3)
        for c1, c2 in zip(first, second):
            assert c1.params["a"] == c2.params["a"]
            assert c1.params["c"] == c2.params["c"]
            assert all(x1 == x2 for x1, x2 in zip(c1.x_samples, c2.x_samples))

    def test_different_seeds_differ(self):
        one = sample_params("MP1", seed=1, count=1)[0]
        two = sample_params("MP1", seed=2, count=1)[0]
        assert one.params["a"] != two.params["a"]

    def test_mp1_precondition_margin(self):
        for case in sample_params("MP1", seed=11, count=10):
            b, c, m = case.params["b"], case.params["c"], case.params["m"]
            value = pochhammer(c - b - m.total, m.total)
            assert abs(value) > mp.mpf("1e-9")

    def test_minton_k_at_least_m(self):
        for case in sample_params("MINTON", seed=13, count=10):
            assert case.params["k"] >= case.params["m"].total

    def test_karlsson_convergence_margin(self):
        for case in sample_params("KARLSSON", seed=17, count=10):
            a, m = case.params["a"], case.params["m"]
            assert (1 - a - m.total).real > 0

    def test_karlsson_draws_every_m_of_the_pool(self):
        # a is drawn relative to |m|, so no m is out of reach of the series
        drawn = {case.params["m"] for case in sample_params("KARLSSON", seed=1, count=40)}
        assert drawn == set(verify_mod.M_POOL)

    def test_lemma4_draws_f_in_pool_order(self):
        case = sample_params("LEMMA4", seed=1, count=1)[0]
        assert tuple(case.params["f_by_m"]) == verify_mod._LEMMA4_M_POOL

    def test_x_samples_include_origin_and_stay_in_disk(self):
        for case in sample_params("MP2", seed=19, count=3):
            assert case.x_samples[0] == 0
            assert len(case.x_samples) == 8
            assert all(abs(x) <= mp.mpf("0.45") + mp.mpf("1e-20") for x in case.x_samples)

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            sample_params("NOPE", seed=1, count=1)

    def test_rejection_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "MAX_REJECTIONS", 0)
        with pytest.raises(RejectionExhaustedError):
            sample_params("MP1", seed=1, count=1)

    def test_roots_found_once_per_case(self, monkeypatch):
        # sampling builds each right side once and the check reuses it, so
        # every case finds its characteristic roots once, degree 0 included
        import ipdhyp.transforms as transforms_mod
        calls = []

        def counted(poly):
            calls.append(poly.degree)
            return find_roots(poly)

        for module in (transforms_mod, verify_mod):
            monkeypatch.setattr(module, "find_roots", counted)
        ids = ["MP1", "MP2", "THM4_EQ29", "THM5_SECOND"]
        report = run_suite(ids=ids, seed=1, count=4)
        assert report.exit_code == 0
        run_calls = len(calls)
        cases = [case for identity_id in ids for case in sample_params(identity_id, seed=1, count=4)]
        assert run_calls == len(cases) == 16
        assert len(calls) == 2 * run_calls

    def test_check_evaluates_the_sampled_right_side(self, monkeypatch):
        cases = sample_params("MP1", seed=1, count=2)

        def rebuilt(*args, **kwargs):
            raise AssertionError("the check rebuilt the right side")

        monkeypatch.setattr(verify_mod, "apply_mp1", rebuilt)
        for case in cases:
            residuals = IDENTITIES["MP1"].check(case)
            assert len(residuals) == len(case.x_samples)
            assert max(residuals) <= mp.mpf("1e-28")

    def test_every_identity_id_registered(self):
        assert set(IDENTITY_IDS) == set(IDENTITIES)

    @pytest.mark.parametrize("identity_id", IDENTITY_IDS)
    def test_cases_survive_a_pickle_round_trip(self, identity_id):
        # the precondition of handing cases to worker processes
        cases = sample_params(identity_id, seed=1, count=2)
        back = pickle.loads(pickle.dumps(cases))
        for case, copy in zip(cases, back, strict=True):
            assert copy.params == case.params
            assert {k: type(v) for k, v in copy.params.items()} == {
                k: type(v) for k, v in case.params.items()
            }
            assert copy.x_samples == case.x_samples
            assert copy.rhs == case.rhs
            assert type(copy.rhs_error) is type(case.rhs_error)

    def test_draws_are_pinned(self):
        # A change that alters sampling on purpose updates this digest and
        # says so in CHANGES.md.
        digest = hashlib.sha256()
        for identity_id in IDENTITY_IDS:
            for case in sample_params(identity_id, seed=1, count=3):
                digest.update(identity_id.encode())
                _feed(digest, case.params)
                _feed(digest, case.x_samples)
        assert digest.hexdigest() == _PINNED_DRAWS

    def test_draws_under_a_wide_margin_are_pinned(self, monkeypatch):
        # At MARGIN 1e-3 almost no draw is rejected, so the plain pins cannot
        # see a draw order that changes after a rejection.  At 0.2 the
        # clauses of every identity reject some draw (some 280 in all,
        # LEMMA4's 136 and LEMMA3's one) and the right-side screen some 80,
        # and this digest moves if any of them does.
        monkeypatch.setattr(verify_mod, "MARGIN", mp.mpf("0.2"))
        draw_digest = runpy.run_path(str(_TOOLS / "draw_digest.py"))["draw_digest"]
        assert draw_digest(range(1, 4), 20)[:2] == (1260, _PINNED_WIDE_DRAWS)


#: SHA-256 of every identity's sample_params(id, 1, 3) at 40 digits.
_PINNED_DRAWS = "1153297cc14bc7459ac15a79e98358328cacd6f42df2c4a19f71e4f0289e181a"

#: tools/draw_digest.py at 40 digits, seeds 1-3, count 20, with MARGIN 0.2.
_PINNED_WIDE_DRAWS = "ce699d28e5baedf5af52eb91a628e3f114e0b3a2dc849c9f413b1f1c7ed1c82f"

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _feed(digest, value) -> None:
    """Hash a params value exactly: mantissa and exponent of every number."""
    if isinstance(value, dict):
        for key in sorted(value):
            digest.update(repr(key).encode())
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple, IntVector, ParamVector)):
        digest.update(f"{type(value).__name__}[".encode())
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    elif isinstance(value, mp.mpc):
        digest.update(b"c")
        _feed(digest, value.real)
        _feed(digest, value.imag)
    elif isinstance(value, mp.mpf):
        digest.update(repr(value.man_exp).encode())
    else:
        digest.update(repr(value).encode())


_A, _B, _D, _E = cplx(0.7, 0.1), cplx(0.4, -0.2), cplx(0.9), cplx(3.1, -0.4)
_F, _M = ParamVector([cplx(1.5, 0.2)]), IntVector([2])


def _general(route):
    return lambda z: {"a": _A, "b": _B, "c": z - 1, "f": _F, "m": _M, "route": route}


def _thm3(z):
    return {"a": _A, "b": z - 2, "f": _F, "m": _M}


#: Params of the identities whose clauses leave pole clearance to the
#: right-side screen, as a function of z: the named bottom parameter of the
#: right side is z - 1 or z - 2, so z = 5e-4 puts it 5e-4 from a pole.
_SCREENED = [
    pytest.param("MP1", _general("paperQ"), id="MP1-c"),
    pytest.param("COR1", _general(None), id="COR1-c"),
    pytest.param("MP2", _general("paperQhat"), id="MP2-c"),
    pytest.param("THM3_EQ19", _thm3, id="THM3_EQ19-b+1"),
    pytest.param("THM3_EQ20", _thm3, id="THM3_EQ20-b+1"),
    *(
        pytest.param(identity_id, params, id=f"{identity_id}-{name}")
        for identity_id in ("THM5_FIRST", "THM5_SECOND")
        for name, params in (
            ("e", lambda z: {"a": _A, "d": _D, "e": z - 1, "b": _B, "f": _F, "m": _M}),
            ("b+1", lambda z: {"a": _A, "d": _D, "e": _E, "b": z - 2, "f": _F, "m": _M}),
        )
    ),
    *(
        pytest.param(
            identity_id,
            lambda z: {"a": _A, "b": ParamVector([z - 2, _B]), "p": IntVector([2, 1]),
                       "f": _F, "m": _M},
            id=f"{identity_id}-beta+1",
        )
        for identity_id in ("VEC_EQ27", "VEC_EQ28")
    ),
]


class TestRightSideScreen:
    @pytest.mark.parametrize("identity_id, params", _SCREENED)
    def test_rejects_a_bottom_parameter_near_a_pole(self, identity_id, params, monkeypatch):
        # no clause tests these parameters: the screen after the clauses does
        rng = random.Random(0)
        for z, rejected in ((mp.mpf("5e-4"), True), (mp.mpf("0.5"), False)):
            assert admissible(identity_id, params(z)) == []
            _fix_draw(monkeypatch, identity_id, params(z))
            case = _draw_case(identity_id, rng, 0)
            if rejected:
                assert case is None
            else:
                assert case.rhs is not None and case.rhs_error is None

    @pytest.mark.parametrize("action", ["error", "default", "ignore"])
    def test_rejects_a_right_side_that_warns(self, action, monkeypatch):
        # an admissible MP1 draw with the root zeta = -1 exactly: its right
        # side warns (RootWarning), and the draw is redrawn under any filter
        params = {"a": cplx(0.31, 0.1), "b": cplx(0.5), "c": cplx(0.75),
                  "f": ParamVector([2]), "m": IntVector([1]), "route": "paperQ"}
        assert admissible("MP1", params) == []
        _fix_draw(monkeypatch, "MP1", params)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RootWarning)
            assert _draw_case("MP1", random.Random(0), 0) is None


def _fix_draw(monkeypatch, identity_id: str, params: dict) -> None:
    """Make every draw of ``identity_id`` return ``params``."""
    fixed = tuple((name, lambda rng, p, index, v=v: v) for name, v in params.items())
    monkeypatch.setitem(IDENTITIES, identity_id,
                        dataclasses.replace(IDENTITIES[identity_id], draws=fixed))


#: One clause of each kind, as (kind, id, params(d)): at d = 9e-4 the
#: params sit just inside the clause's margin, at d = 1.1e-3 just outside.
_BY_KIND = [
    pytest.param("_clear", "KARLSSON",
                 lambda d: {"a": _A, "b": cplx(-2 + d, d), "f": _F, "m": _M}, id="clear"),
    pytest.param("_poch", "MP1",
                 lambda d: {"a": _A, "b": _B, "c": _B + 1 + d, "f": _F, "m": _M, "route": "paperQ"},
                 id="poch"),
    pytest.param("_away", "THM5_FIRST",
                 lambda d: {"a": _A, "d": _D, "e": _E, "b": cplx(d), "f": _F, "m": _M}, id="away"),
    pytest.param("_distinct", "VEC_EQ27",
                 lambda d: {"a": _A, "b": ParamVector([_B, _B + d]), "p": IntVector([1, 1]),
                            "f": _F, "m": _M}, id="distinct"),
]


def _raw_draw(identity_id: str, rng: random.Random, index: int) -> dict:
    """Every draw step of an identity, with no clause tested."""
    params: dict = {}
    for name, draw in IDENTITIES[identity_id].draws:
        params[name] = draw(rng, params, index)
    return params


class TestClauses:
    @pytest.mark.parametrize("kind, identity_id, params", _BY_KIND)
    def test_rejects_just_inside_the_margin(self, kind, identity_id, params):
        inside = admissible(identity_id, params(9e-4))
        assert len(inside) == 1
        clause = next(c for c in IDENTITIES[identity_id].clauses if c.name == inside[0])
        assert clause.kind.__name__ == kind
        assert admissible(identity_id, params(1.1e-3)) == []

    def test_poch_admits_a_factor_past_its_last(self):
        # (c-b-2)_2 with c-b-2 near -2: its factors are near -2 and -1
        params = {"a": _A, "b": _B, "c": _B + cplx(5e-4, 5e-4), "f": _F, "m": _M, "route": "newP"}
        assert admissible("MP1", params) == []

    def test_names_a_missing_key(self):
        params = {"a": _A, "b": _B, "f": _F, "m": _M, "route": "newP"}
        with pytest.raises(ValueError, match="MP1 params are missing 'c'"):
            admissible("MP1", params)

    def test_clause_names_are_unique(self):
        for entry in IDENTITIES.values():
            names = [c.name for c in entry.clauses]
            assert len(set(names)) == len(names)

    @settings(max_examples=40, deadline=None)
    @given(identity_id=st.sampled_from(IDENTITY_IDS), seed=st.integers(0, 2**32))
    def test_sampled_cases_are_admissible(self, identity_id, seed):
        for case in sample_params(identity_id, seed, 2):
            assert admissible(identity_id, case.params) == []

    def test_every_clause_rejects_under_a_wide_margin(self, monkeypatch):
        # No clause is dead weight: at MARGIN 0.2 each fails on some draw of
        # its identity, which sample_params would then redraw.
        monkeypatch.setattr(verify_mod, "MARGIN", mp.mpf("0.2"))
        for identity_id, entry in IDENTITIES.items():
            silent = {c.name for c in entry.clauses}
            for index in range(2000):
                params = _raw_draw(identity_id, random.Random(index), index)
                silent -= set(admissible(identity_id, params))
                if not silent:
                    break
            assert not silent, (identity_id, silent)


# The clause probes.  Each identity has one base params dict, with binary
# fractions so that the sums a probe forms are exact, and each clause one
# override that puts its guard exactly at its zero or pole (for a
# Pochhammer clause, its last zero).  MP1 and MP2 take the route that
# evaluates every one of their guards.
_PA, _PB, _PC = cplx(0.625, 0.125), cplx(0.375, -0.25), cplx(2.3125, 0.3125)
_PD, _PE = cplx(0.875, 0.0625), cplx(3.125, -0.375)
_PF, _PF2 = cplx(1.5, 0.1875), cplx(0.8125, -0.125)
_PM = IntVector([2])


def _pv(*values) -> ParamVector:
    return ParamVector(list(values))


def _probe_base(letters: str, **more) -> dict:
    values = {"a": _PA, "b": _PB, "c": _PC, "d": _PD, "e": _PE}
    return {**{k: values[k] for k in letters}, "f": _pv(_PF), "m": _PM, **more}


_PROBE_BASES = {
    "MP1": _probe_base("abc", route="newP"),
    "MP2": _probe_base("abc", route="newPhat"),
    "THM3_EQ19": _probe_base("ab"),
    "THM3_EQ20": _probe_base("ab"),
    "THM4_EQ29": _probe_base("ab", p=2),
    "THM4_EQ31": _probe_base("ab", p=2),
    "VEC_EQ27": _probe_base("a", b=_pv(_PB, _PF2), p=IntVector([2, 1])),
    "VEC_EQ28": _probe_base("a", b=_pv(_PB, _PF2), p=IntVector([2, 1])),
    "THM5_FIRST": _probe_base("adeb"),
    "THM5_SECOND": _probe_base("adeb"),
    "LEMMA1": _probe_base("bc", f=_pv(_PF, _PF2), m=IntVector([2, 1])),
    "COR1": _probe_base("abc"),
    "LEMMA2": _probe_base("bc"),
    "COR2": _probe_base("abc"),
    "LEMMA3": {"alpha": _PA, "m_max": 6},
    "LEMMA4": {"b": _PB, "f_by_m": {
        m: _pv(*(_PF + i / 4 for i in range(len(m)))) for m in verify_mod._LEMMA4_M_POOL
    }},
    "MINTON": _probe_base("b", k=3),
    "KARLSSON": _probe_base("b", a=cplx(-1.375, 0.125)),
    "COR3": _probe_base("ab"),
    "COR4": _probe_base("adeb"),
    "COR5": _probe_base("adeb", f=_pv(_PF, _PF2), m=IntVector([1, 1])),
}


def _f0(p: dict, value) -> dict:
    """Override f_1 with ``value``, keeping the other f_i."""
    return {"f": _pv(value, *p["f"][1:])}


#: Clause name up to its colon -> the override that probes it.
_PROBES = {
    "(f_i)_{|m|+1} != 0": lambda p: _f0(p, -p["m"].total),
    "(f_i)_{|m|} != 0": lambda p: _f0(p, 1 - p["m"].total),
    "b != 0": lambda p: {"b": cplx(0)},
    "(c-b-m)_m != 0": lambda p: {"c": p["b"] + 1},
    "(1-f_i+b-m_i)_{|m|} != 0": lambda p: _f0(p, p["b"] - p["m"][0] + p["m"].total),
    "(c-a-m)_m != 0": lambda p: {"c": p["a"] + 1},
    "(b+1)_{|m|} != 0": lambda p: {"b": cplx(-p["m"].total)},
    "(1+a+b-c)_m != 0": lambda p: {"c": p["a"] + p["b"] + p["m"].total},
    "(b)_p != 0": lambda p: {"b": cplx(1 - p["p"])},
    "(b+1-a)_{p-1} != 0": lambda p: {"b": p["a"] + 1 - p["p"]},
    "beta_q != 0": lambda p: {"b": _pv(p["b"][0], 0)},
    "the beta grid is distinct (eq27, eq28)": lambda p: {"b": _pv(p["b"][0], p["b"][0] + 1)},
    "(e-d-m+1)_{m-1} != 0": lambda p: {"e": p["d"] + 1},
    "(e-a-m+1)_{m-1} != 0": lambda p: {"e": p["a"] + 1},
    "(1+a+d-e)_{m-1} != 0": lambda p: {"e": 1 + p["a"] + p["d"] + p["m"].total - 2},
    "c-b and f_i-f_j (i != j) clear": lambda p: {"c": p["b"]},
    "f_i-c, c-f_i and 1-f_i-m_i+b clear": lambda p: _f0(p, p["c"]),
    "(alpha-m_max)_{m_max} != 0": lambda p: {"alpha": cplx(1)},
    "(f_i)_{|m|} != 0 for every m": lambda p: {"f_by_m": {**p["f_by_m"], (5,): _pv(-4)}},
    "(b+1)_{|m|} != 0 for every m": lambda p: {"b": cplx(-5)},
    "(b+1)_k != 0": lambda p: {"b": cplx(-p["k"])},
    "(f_i)_k != 0": lambda p: _f0(p, 1 - p["k"]),
    "b+1, b+1-a and f_i clear": lambda p: {"b": cplx(-1)},
    "(b+1-a)_1 != 0": lambda p: {"b": p["a"] - 1},
    "lambda*'s denominator (b-a+1)(f-b)_m - b(f-b-1)_m != 0": lambda p: {
        "a": p["b"] + 1 - p["b"] * pochhammer_vec(p["f"] - p["b"] - 1, p["m"])
        / pochhammer_vec(p["f"] - p["b"], p["m"])},
    "e-d-1 != 0": lambda p: {"e": p["d"] + 1},
    "e-a-1 != 0": lambda p: {"e": p["a"] + 1},
    "(b+1)_1 != 0": lambda p: {"b": cplx(-1)},
    "lambda's denominator 2f-b-d+1 != 0": lambda p: {"d": 2 * p["f"][0] - p["b"] + 1},
    "lambda*'s denominator ad+(2f-b+1)(e-a-d-1) != 0": lambda p: {
        "e": p["a"] + p["d"] + 1 - p["a"] * p["d"] / (2 * p["f"][0] - p["b"] + 1)},
    "lambda's denominator s-d != 0, s = f_1+f_2-b": lambda p: {"d": sum(p["f"]) - p["b"]},
    "lambda*'s denominator ad+s(e-a-d-1) != 0": lambda p: {
        "e": p["a"] + p["d"] + 1 - p["a"] * p["d"] / (sum(p["f"]) - p["b"])},
    "(f_i)_1 != 0": lambda p: _f0(p, 0),
}


def _probe_key(name: str) -> str:
    return name.partition(":")[0]


def _check_passes(identity_id: str, params: dict) -> bool:
    """Whether the check of ``identity_id`` passes at ``params``: a skip, a
    failure or a ZeroDivisionError is not a pass."""
    entry = IDENTITIES[identity_id]
    case = IdentityCase(identity_id, params, entry.x_samples(random.Random(0)))
    try:
        if isinstance(entry.check, TwoSided):
            try:
                case.rhs = entry.check.rhs(params)
            except IpdHypError as exc:
                case.rhs_error = exc
        return evaluate_case(case, mp.mpf("1e-28")).status == "pass"
    except ZeroDivisionError:
        return False


class TestClauseProbes:
    """Every clause guards its point: with the guard at its zero or pole the
    clause rejects the params alone, and the check does not pass there."""

    @pytest.mark.parametrize("identity_id, name", [
        pytest.param(identity_id, clause.name, id=f"{identity_id}-{_probe_key(clause.name)}")
        for identity_id, entry in IDENTITIES.items() for clause in entry.clauses
    ])
    def test_clause_guards_its_point(self, identity_id, name):
        base = _PROBE_BASES[identity_id]
        assert admissible(identity_id, base) == []
        params = {**base, **_PROBES[_probe_key(name)](base)}
        assert admissible(identity_id, params) == [name]
        assert not _check_passes(identity_id, params)

    def test_every_clause_has_a_probe(self):
        assert set(_PROBE_BASES) == set(IDENTITIES)
        keys = [_probe_key(c.name) for c in {c for e in IDENTITIES.values() for c in e.clauses}]
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(_PROBES)

#: Real parts within 2e-3 of an integer in -8..2, and a wider box.
_NEAR_INTEGERS = st.builds(
    lambda n, offset: mp.mpf(n) + mp.mpf(offset),
    st.integers(-8, 2),
    st.floats(-2e-3, 2e-3),
)
_REAL_PARTS = st.one_of(_NEAR_INTEGERS, st.floats(-10, 10).map(mp.mpf))


class TestSamplerImplications:
    """The implications that let a clause list drop a test that another
    clause, or the draw, makes."""

    @settings(max_examples=300, deadline=None)
    @given(re=_REAL_PARTS, im=st.floats(-3e-3, 3e-3), k=st.integers(0, 8))
    def test_clear_holds_after_a_nonnegative_shift(self, re, im, k):
        z = cplx(re, im)
        if _clear(z):
            assert _clear(z + k)
            assert _away(z + k)

    @settings(max_examples=300, deadline=None)
    @given(re=_REAL_PARTS, im=st.floats(-3e-3, 3e-3), mt=st.integers(1, 6))
    def test_karlsson_convergence_margin_clears_1_minus_a(self, re, im, mt):
        # KARLSSON draws Re(1-a-|m|) >= 0.05, so Gamma(1-a) needs no clause
        a = cplx(re, im)
        if (1 - a - mt).real >= mp.mpf("0.05"):
            assert _clear(1 - a)


def _lemma3_reference(case) -> list:
    """LEMMA3's relations on mpc at the working precision, as pairs (rhs,
    lhs): the check's body before it ran in fixed point."""
    alpha = case.params["alpha"]
    m_max = case.params["m_max"]
    pairs = []
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
                rhs = (
                    (-1) ** k * math.perm(k, i) * math.perm(mt, k)
                    * base[mt]
                    / ((-1) ** i * math.perm(mt, i) * base[k])
                )
                pairs.append((rhs, lhs))
    return pairs


def _lemma4_reference(case) -> list:
    """LEMMA4's relations on mpc at the working precision, as pairs (rhs,
    lhs): the check's body before it ran in fixed point."""
    b = case.params["b"]
    pairs = []
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
            outer = terminating_pfq([mp.mpc(-k), b] + f_shift, [b + mt - k + 1] + list(f), k)
            pairs.append((nb[k] / nm[k] * outer, lhs))
    return pairs


def _lemma3_run(case) -> list:
    return run_fixed(verify_mod._lemma3_sides, (case.params["alpha"],), case.params["m_max"])


def _lemma4_run(case) -> list:
    f_by_m = case.params["f_by_m"]
    fs = [fi for f in f_by_m.values() for fi in f]
    return run_fixed(verify_mod._lemma4_sides, (case.params["b"], fs), tuple(f_by_m))


#: id -> (the fixed-point run, the mpc reference, relations per case)
_LEMMAS = {"LEMMA3": (_lemma3_run, _lemma3_reference, 84),
           "LEMMA4": (_lemma4_run, _lemma4_reference, 63)}


#: (id, kernel helper the check's run calls, entry of its list to nudge)
_NUDGED = [("LEMMA4", "terminating_family", 2), ("LEMMA3", "rising", 3)]


def _nudge(monkeypatch, name, entry, scale) -> list:
    """Patch the kernel helper ``name`` as the checks call it, so that entry
    ``entry`` of every list it returns in the run moves by 1/scale relative,
    in int arithmetic; the returned list collects the values it moved."""
    real = getattr(verify_mod, name)
    nudged = []

    def nudge(*args):
        out = real(*args)
        if len(out) > entry:
            value = out[entry]
            assert type(value) is Fixed
            out[entry] = value + value / scale
            nudged.append(value)
        return out

    monkeypatch.setattr(verify_mod, name, nudge)
    return nudged


class TestFixedPointLemmas:
    """LEMMA3 and LEMMA4 form both sides of every relation in one fixed-point run."""

    @pytest.mark.parametrize("digits", [40, 60])
    @pytest.mark.parametrize("identity_id", _LEMMAS)
    def test_sides_agree_with_the_mpc_reference(self, identity_id, digits):
        run, reference, _ = _LEMMAS[identity_id]
        set_precision(digits)
        tol = mp.mpf(10) ** -(digits - 4)
        for case in sample_params(identity_id, seed=1, count=20):
            sides = run(case)
            pairs = reference(case)
            assert len(sides) == 2 * len(pairs)
            for (rhs, diff), (ref_rhs, ref_lhs) in zip(zip(sides[::2], sides[1::2]), pairs):
                assert abs(rhs - ref_rhs) <= tol * max(1, abs(ref_rhs))
                assert abs(rhs + diff - ref_lhs) <= tol * max(1, abs(ref_lhs))

    @pytest.mark.parametrize("identity_id", _LEMMAS)
    def test_relation_counts(self, identity_id):
        for case in sample_params(identity_id, seed=1, count=2):
            assert len(IDENTITIES[identity_id].check(case)) == _LEMMAS[identity_id][2]

    @pytest.mark.parametrize("digits", [40, 60])
    @pytest.mark.parametrize("identity_id", _LEMMAS)
    def test_residuals_sit_at_the_run_width(self, identity_id, digits):
        # the run is 2 prec bits wide; 64 bits of it cover the rounding of
        # every relation with room to spare (clean residuals read below
        # 1e-78 at 40 digits, where the bound is 2.4e-63)
        set_precision(digits)
        bound = mp.ldexp(1, 64 - 2 * mp.mp.prec)
        for case in sample_params(identity_id, seed=1, count=20):
            assert max(IDENTITIES[identity_id].check(case)) <= bound

    @pytest.mark.parametrize("identity_id, name, entry", _NUDGED)
    def test_a_nudge_inside_the_run_fails_the_case(self, identity_id, name, entry, monkeypatch):
        # one entry of every such list in the run moved by 1e-20 relative
        nudged = _nudge(monkeypatch, name, entry, 10**20)
        case = sample_params(identity_id, seed=1, count=1)[0]
        result = evaluate_case(case, mp.mpf("1e-28"))
        assert nudged
        assert result.status == "fail"
        assert result.max_residual > mp.mpf("1e-21")

    @pytest.mark.parametrize("identity_id, name, entry", _NUDGED)
    def test_a_nudge_below_the_tolerance_breaks_the_width_bound(
        self, identity_id, name, entry, monkeypatch
    ):
        # moved by 1e-35 relative the case still passes the report
        # tolerance 1e-28, but its residual lies far above the run's width
        nudged = _nudge(monkeypatch, name, entry, 10**35)
        case = sample_params(identity_id, seed=1, count=1)[0]
        result = evaluate_case(case, mp.mpf("1e-28"))
        assert nudged
        assert result.status == "pass"
        assert result.max_residual > mp.ldexp(1, 64 - 2 * mp.mp.prec)


#: SHA-256 of every CaseResult of run_suite(seed=1, count=2) at 40 digits.
_PINNED_REPORT = "f7dd12c57244278eda7e8725f9ac7e710603636f69bc5bb3138fe37f84aec9f0"

#: SHA-256 of every residual the checks return for sample_params(id, 1, 2) at 40 digits.
_PINNED_RESIDUALS = "79abc50f38eb344027f6a44bba0f05dc339a02482d3eea2031ee80537ff048d9"


def _patch_check(monkeypatch, identity_id, check) -> None:
    """Replace one identity's check for the duration of a test."""
    entry = IDENTITIES[identity_id]
    monkeypatch.setitem(IDENTITIES, identity_id, dataclasses.replace(entry, check=check))


class TestRunSuite:
    def test_empty_ids_rejected(self):
        with pytest.raises(ValueError, match="each identity once"):
            run_suite(ids=[], seed=1, count=1)

    def test_repeated_id_rejected(self):
        with pytest.raises(ValueError, match="each identity once"):
            run_suite(ids=["LEMMA2", "LEMMA2"], seed=1, count=1)

    def test_zero_tolerance_fails(self):
        report = run_suite(ids=["MP1"], seed=1, count=1, tol=0)
        assert report.exit_code == 1
        assert report.n_failed >= 1

    def test_subset_passes_at_default_tolerance(self):
        report = run_suite(ids=["MP1", "LEMMA2", "MINTON"], seed=1, count=2)
        assert report.exit_code == 0
        assert report.n_skipped == 0

    def test_report_determinism(self):
        one = report_to_json(run_suite(ids=["MP1", "COR3"], seed=5, count=2))
        two = report_to_json(run_suite(ids=["MP1", "COR3"], seed=5, count=2))
        assert _strip_wall_time(one) == _strip_wall_time(two)

    def test_report_determinism_across_processes(self, tmp_path):
        # hash randomization must not leak into the sampling
        import os
        import subprocess
        import sys

        import ipdhyp

        # the children import ipdhyp from where this process found it
        package_root = os.path.dirname(os.path.dirname(ipdhyp.__file__))
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        outputs = []
        for hash_seed, name in (("1", "a.json"), ("99", "b.json")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "ipdhyp", "verify", "--only", "COR3,MINTON",
                 "--count", "2", "--json", str(path)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(_strip_wall_time(path.read_text()))
        assert outputs[0] == outputs[1]

    def test_program_error_is_not_a_skip(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug in a transform")

        monkeypatch.setattr(verify_mod, "apply_mp1", broken)
        with pytest.raises(ValueError):
            run_suite(ids=["MP1"], count=2)

    def test_domain_error_skips_and_fails_the_exit_code(self, monkeypatch):
        # an engine error on an admissible draw is a skip with its reason,
        # never a redraw; both THM4_EQ29 cases find roots, p = 1 included
        inputs = [
            ("MP1", "ipdhyp.verify.apply_mp1", DegenerateCaseError, 2),
            ("THM4_EQ29", "ipdhyp.transforms.find_roots", NonConvergenceError, 2),
        ]
        for identity_id, target, error, skips in inputs:
            def raises(*args, **kwargs):
                raise error("degenerate draw")

            with monkeypatch.context() as patch:
                patch.setattr(target, raises)
                report = run_suite(ids=[identity_id], count=2)
            assert report.n_skipped == skips
            assert report.n_failed == 0
            assert report.exit_code == 1
            reasons = report.identity_summary()[identity_id]["skip_reasons"]
            assert reasons == [f"{error.__name__}: degenerate draw"] * skips

    def test_skip_after_fail_keeps_its_reason(self, monkeypatch):
        from ipdhyp.errors import DegenerateCaseError

        calls = []

        def fail_then_skip(case):
            calls.append(case)
            if len(calls) == 1:
                return [mp.mpf(1)]
            raise DegenerateCaseError("degenerate draw")

        _patch_check(monkeypatch, "LEMMA3", fail_then_skip)
        report = run_suite(ids=["LEMMA3"], count=2)
        summary = report.identity_summary()["LEMMA3"]
        assert (report.n_failed, report.n_skipped) == (1, 1)
        assert summary["status"] == "fail"
        assert summary["skip_reasons"] == ["DegenerateCaseError: degenerate draw"]

    def test_nan_residual_fails(self, monkeypatch):
        # max() and > drop a NaN that follows a number: it must still be
        # the case's and the identity's worst residual, in either order
        for residuals in ([mp.mpf(0), mp.nan], [mp.nan, mp.mpf(0)]):
            calls = []

            def check(case):
                calls.append(case)
                return [mp.mpf(1e-40)] if len(calls) == 1 else residuals

            _patch_check(monkeypatch, "LEMMA3", check)
            report = run_suite(ids=["LEMMA3"], count=2)
            assert report.n_failed == 1
            assert mp.isnan(report.cases[1].max_residual)
            assert mp.isnan(report.identity_summary()["LEMMA3"]["max_residual"])
            (entry,) = json.loads(report_to_json(report))["identities"]
            assert (entry["max_residual"], entry["status"]) == ("nan", "fail")

    def test_root_warning_is_not_silenced(self, monkeypatch):
        def warns(case):
            warnings.warn("pole risk", RootWarning)
            return [mp.mpf(0)]

        _patch_check(monkeypatch, "LEMMA3", warns)
        with pytest.warns(RootWarning):
            run_suite(ids=["LEMMA3"], count=1)

    def test_report_is_pinned(self):
        # Every case's status, exact worst residual and sample count.  A
        # change that alters a residual on purpose updates this digest and
        # says so in CHANGES.md.
        digest = hashlib.sha256()
        for c in run_suite(seed=1, count=2).cases:
            residual = None if c.max_residual is None else c.max_residual.man_exp
            digest.update(repr((c.identity_id, c.index, c.status, residual, c.samples)).encode())
        assert digest.hexdigest() == _PINNED_REPORT

    def test_residuals_are_pinned(self):
        # Every residual of every sample, not only each case's worst.  A
        # change that alters a residual on purpose updates this digest and
        # says so in CHANGES.md.
        digest = hashlib.sha256()
        for identity_id in IDENTITY_IDS:
            for case in sample_params(identity_id, seed=1, count=2):
                residuals = IDENTITIES[identity_id].check(case)
                digest.update(repr((identity_id, [r.man_exp for r in residuals])).encode())
        assert digest.hexdigest() == _PINNED_RESIDUALS

    def test_precision_increase_keeps_passing(self):
        report40 = run_suite(ids=["MP1"], seed=3, count=1)
        assert report40.exit_code == 0
        res40 = report40.cases[0].max_residual
        set_precision(60)
        report60 = run_suite(ids=["MP1"], seed=3, count=1)
        assert report60.exit_code == 0
        assert report60.cases[0].max_residual <= max(res40, mp.mpf("1e-40"))

    @pytest.mark.parametrize("digits", [60, 100])
    def test_precision_scaling(self, digits):
        # the oracle's guard bits must keep up with the context
        set_precision(digits)
        report = run_suite(ids=["MP1", "VEC_EQ28", "THM5_SECOND", "MINTON", "KARLSSON"], count=2)
        assert report.exit_code == 0
        assert report.n_skipped == 0


class TestParseComplex:
    def test_plain_real(self):
        assert parse_complex("1.5") == cplx(1.5)
        assert parse_complex("-2e-3") == cplx(mp.mpf("-2e-3"))

    def test_full_form(self):
        z = parse_complex("0.5-0.25i")
        assert z == cplx(0.5, -0.25)
        assert parse_complex("1+2j") == cplx(1, 2)

    def test_pure_imaginary(self):
        assert parse_complex("2i") == cplx(0, 2)
        assert parse_complex("i") == cplx(0, 1)
        assert parse_complex("-i") == cplx(0, -1)

    def test_pair_form(self):
        assert parse_complex(["0.5", "-0.25"]) == cplx(0.5, -0.25)
        assert parse_complex([1, 2]) == cplx(1, 2)
        assert parse_complex("0.3,-0.1") == cplx(mp.mpf("0.3"), mp.mpf("-0.1"))

    def test_rejects_garbage(self):
        for bad in ("abc", "1+2", "", "1..2"):
            with pytest.raises(ValueError):
                parse_complex(bad)


class TestCli:
    def test_verify_only_lemma3(self, capsys):
        code = cli_dispatch(["verify", "--only", "LEMMA3", "--count", "5"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["identities"][0]["id"] == "LEMMA3"
        assert doc["identities"][0]["status"] == "pass"

    @pytest.mark.parametrize("only", [" , ", "LEMMA2,LEMMA2"])
    def test_verify_only_must_name_each_identity_once(self, only, capsys):
        code = cli_dispatch(["verify", "--only", only, "--count", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "each identity once" in captured.err

    def test_verify_exit_1_at_zero_tolerance(self, capsys):
        code = cli_dispatch(["verify", "--only", "MINTON", "--count", "1", "--tol", "0"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-30"])
    def test_verify_rejects_a_tolerance_that_bounds_nothing(self, tol, capsys):
        # such a tol bounds nothing: inf would pass every case, nan fail every one
        code = cli_dispatch(["verify", "--only", "MINTON", "--count", "1", f"--tol={tol}"])
        assert code == 2
        assert "tol" in capsys.readouterr().err

    def test_verify_writes_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli_dispatch(
            ["verify", "--only", "COR3", "--count", "1", "--json", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["exit_code"] == 0

    def test_eval_minton_instance(self, capsys):
        code = cli_dispatch(
            ["eval", "--num=-2,0.5,3", "--den", "1.5,2", "--x", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert abs(mp.mpf(doc["value"][0]) - mp.mpf("0.4")) < mp.mpf("1e-35")
        assert doc["terms_used"] == 3

    def test_eval_unit_tolerance_finer_than_digits(self, capsys):
        code = cli_dispatch(
            ["eval", "--num", "0.3,0.4", "--den", "2.1", "--x", "1", "--tol", "1e-50"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert mp.mpf(json.loads(out)["tail_bound"]) <= mp.mpf("1e-50")

    def test_eval_divergent_is_config_error(self, capsys):
        code = cli_dispatch(["eval", "--num", "0.5,0.7", "--den", "1.3", "--x", "1.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error" in err

    def test_charpoly_q_single_root(self, tmp_path, capsys):
        params = {"b": "0.4", "c": "2.3", "f": ["1.5"], "m": [1]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = cli_dispatch(["charpoly", "--which", "Q", "--params", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 1
        root = cplx(mp.mpf(doc["roots"][0][0]), mp.mpf(doc["roots"][0][1]))
        f1, b, c = mp.mpf("1.5"), mp.mpf("0.4"), mp.mpf("2.3")
        assert abs(root - f1 * (c - b - 1) / (f1 - b)) < mp.mpf("1e-28")

    def test_empty_parameter_vectors(self, tmp_path, capsys):
        # r = 0: Q is the constant 1, and MP1 and MP2 are Pfaff's and
        # Euler's transformations of 2F1(a, b; c | x)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"a": "0.7", "b": "0.4", "c": "2.3", "f": [], "m": []}))
        assert cli_dispatch(["charpoly", "--which", "Q", "--params", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["degree"], doc["roots"]) == (0, [])
        gauss = mp.hyp2f1(mp.mpf("0.7"), mp.mpf("0.4"), mp.mpf("2.3"), mp.mpf("0.3"))
        for theorem in ("MP1", "MP2"):
            argv = ["transform", "--theorem", theorem, "--params", str(path), "--x", "0.3"]
            assert cli_dispatch(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            got = cplx(mp.mpf(doc["value"][0]), mp.mpf(doc["value"][1]))
            assert abs(got - gauss) < mp.mpf("1e-28")

    @pytest.mark.parametrize(
        "which, build",
        [
            ("Q", lambda p: build_Q(p["b"], p["c"], p["f"], p["m"])),
            ("P", lambda p: build_P(p["b"], p["c"], p["f"], p["m"])),
            ("Qhat", lambda p: build_Qhat(p["a"], p["b"], p["c"], p["f"], p["m"])),
            ("Phat", lambda p: build_Phat(p["a"], p["b"], p["c"], p["f"], p["m"])),
            ("W", lambda p: w_poly(p["b"], p["f"], p["m"])),
            ("T", lambda p: build_T(p["b"], 3, p["f"], p["m"], variant="T")),
            ("Tstar", lambda p: build_T(p["b"], 3, p["f"], p["m"], variant="Tstar", a=p["a"])),
            ("L", lambda p: build_L(p["a"], p["d"], p["e"], p["b"], p["f"], p["m"], variant="L")),
            ("Lhat", lambda p: build_L(p["a"], p["d"], p["e"], p["b"], p["f"], p["m"], variant="Lhat")),
        ],
    )
    def test_charpoly_covers_every_which(self, which, build, tmp_path, capsys):
        raw = dict(_CHARPOLY_PARAMS, p=3)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(raw))
        code = cli_dispatch(["charpoly", "--which", which, "--params", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        params = {
            "f": ParamVector([parse_complex(v) for v in raw["f"]]),
            "m": IntVector(raw["m"]),
            **{k: parse_complex(raw[k]) for k in "abcde"},
        }
        poly = build(params)
        assert doc["which"] == which
        assert doc["degree"] == poly.degree > 0
        assert doc["coeffs"] == [format_complex(c) for c in poly.coeffs]
        assert len(doc["roots"]) == poly.degree

    def test_charpoly_t_defaults_to_p_1(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(_CHARPOLY_PARAMS))
        code = cli_dispatch(["charpoly", "--which", "T", "--params", str(path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        b = parse_complex(_CHARPOLY_PARAMS["b"])
        f = [parse_complex(v) for v in _CHARPOLY_PARAMS["f"]]
        poly = build_T(b, 1, f, _CHARPOLY_PARAMS["m"], variant="T")
        assert doc["degree"] == 0
        assert doc["coeffs"] == [format_complex(c) for c in poly.coeffs]
        assert doc["roots"] == [] and doc["root_residual"] == "0.0"

    def test_charpoly_zero_polynomial_exits_2(self, tmp_path, capsys):
        # f = b makes T at p = 1 the zero polynomial, which find_roots
        # rejects; beta_1 is b exactly, for a binary and a decimal fraction
        path = tmp_path / "params.json"
        for b in ("0.375+0.25i", "0.4+0.2i"):
            path.write_text(json.dumps({"b": b, "f": [b], "m": [1]}))
            code = cli_dispatch(["charpoly", "--which", "T", "--params", str(path)])
            assert code == 2, b
            assert "zero polynomial" in capsys.readouterr().err

    def test_charpoly_tstar_names_a_missing_a(self, tmp_path, capsys):
        params = {k: v for k, v in _CHARPOLY_PARAMS.items() if k != "a"}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = cli_dispatch(["charpoly", "--which", "Tstar", "--params", str(path)])
        assert code == 2
        assert "'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [[1.9], [True], ["2"]])
    def test_charpoly_rejects_nonintegral_multiplicities(self, m, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"b": "0.4", "c": "2.3", "f": ["1.5"], "m": m}))
        code = cli_dispatch(["charpoly", "--which", "Q", "--params", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'m'" in err

    def test_charpoly_accepts_integral_floats(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"b": "0.4", "c": "2.3", "f": ["1.5"], "m": [2.0]}))
        code = cli_dispatch(["charpoly", "--which", "Q", "--params", str(path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["degree"] == 2

    @pytest.mark.parametrize("p, code", [(2, 0), (2.0, 0), (1.5, 2), (True, 2), ("2", 2)])
    def test_transform_reads_integral_p(self, p, code, tmp_path, capsys):
        params = {"a": "0.7", "b": "0.4", "f": ["1.5"], "m": [2], "p": p}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        got = cli_dispatch(["transform", "--theorem", "THM4_EQ29", "--params", str(path)])
        err = capsys.readouterr().err
        assert got == code
        if code:
            assert "'p'" in err

    def test_transform_value_matches_library(self, tmp_path, capsys):
        params = {"a": "0.7", "b": "0.4", "c": "2.3", "f": ["1.5"], "m": [2]}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = cli_dispatch(
            ["transform", "--theorem", "MP1", "--params", str(path), "--x", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert len(doc["expression"]["terms"]) == 1
        from ipdhyp.coeffs import IpdSpec
        from ipdhyp.hypeval import eval_pfq
        from ipdhyp.transforms import ipd_function

        spec = IpdSpec(b="0.4", f=["1.5"], m=[2], a="0.7", c="2.3")
        lhs = eval_pfq(ipd_function(spec), mp.mpf("0.3")).value
        got = cplx(mp.mpf(doc["value"][0]), mp.mpf(doc["value"][1]))
        assert abs(got - lhs) < mp.mpf("1e-28")

    @pytest.mark.parametrize(
        "theorem",
        [i for i, entry in IDENTITIES.items() if isinstance(entry.check, TwoSided)],
    )
    def test_transform_covers_every_theorem(self, theorem, tmp_path, capsys):
        # case 1 reads the non-default MP1/MP2 routes and THM4 with p = 2
        case = sample_params(theorem, seed=3, count=2)[1]

        def encode(value):
            if isinstance(value, mp.mpc):
                return [mp.nstr(value.real, 45), mp.nstr(value.imag, 45)]
            if isinstance(value, ParamVector):
                return [encode(v) for v in value]
            if isinstance(value, IntVector):
                return list(value)
            return value

        path = tmp_path / "params.json"
        path.write_text(json.dumps({k: encode(v) for k, v in case.params.items()}))
        x = case.x_samples[1]
        code = cli_dispatch(
            ["transform", "--theorem", theorem, "--params", str(path),
             f"--x={mp.nstr(x.real, 45)},{mp.nstr(x.imag, 45)}"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        got = cplx(mp.mpf(doc["value"][0]), mp.mpf(doc["value"][1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RootWarning)
            expect = IDENTITIES[theorem].check.rhs(case.params).evaluate(x)
        assert abs(got - expect) <= mp.mpf("1e-28") * max(1, abs(expect))

    def test_transform_names_a_missing_key(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"a": "0.7", "b": "0.4", "f": ["1.5"], "m": [2]}))
        code = cli_dispatch(["transform", "--theorem", "MP2", "--params", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'c'" in err

    def test_malformed_params_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli_dispatch(["charpoly", "--which", "Q", "--params", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_missing_params_key(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"b": "0.4"}))
        code = cli_dispatch(["charpoly", "--which", "Q", "--params", str(path)])
        capsys.readouterr()
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        code = cli_dispatch(["charpoly", "--which", "NOT_A_POLY", "--params", "x.json"])
        capsys.readouterr()
        assert code == 2

    def test_digits_flag(self, capsys):
        code = cli_dispatch(
            ["--digits", "50", "eval", "--num", "0.5", "--den", "", "--x", "0.5"]
        )
        capsys.readouterr()
        assert code == 0
        from ipdhyp.kernel import get_precision

        assert get_precision() == 50

    def test_digits_flag_after_verify(self, capsys):
        from ipdhyp.kernel import get_precision

        code = cli_dispatch(["verify", "--only", "LEMMA3", "--count", "1", "--digits", "45"])
        capsys.readouterr()
        assert code == 0
        assert get_precision() == 45
        # given on both sides of the subcommand, the later one wins
        code = cli_dispatch(
            ["--digits", "50", "verify", "--only", "LEMMA3", "--count", "1", "--digits", "44"]
        )
        capsys.readouterr()
        assert code == 0
        assert get_precision() == 44

    def test_env_var_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("IPDHYP_DIGITS", "48")
        code = cli_dispatch(["eval", "--num", "0.5", "--den", "", "--x", "0.5"])
        capsys.readouterr()
        assert code == 0
        from ipdhyp.kernel import get_precision

        assert get_precision() == 48

    @pytest.mark.parametrize("value", ["abc", "2.5", "8"])
    def test_env_var_precision_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("IPDHYP_DIGITS", value)
        code = cli_dispatch(["eval", "--num", "1", "--den", "2", "--x", "0.5"])
        assert code == 2
        assert "IPDHYP_DIGITS" in capsys.readouterr().err


_report_diff = runpy.run_path(str(_TOOLS / "report_diff.py"))


class TestReportDiff:
    def _report(self, tmp_path, name, residual, wall_time_s):
        run = run_suite(["LEMMA3"], seed=1, count=1)
        run.wall_time_s = wall_time_s
        doc = json.loads(report_to_json(run))
        doc["identities"][0]["max_residual"] = residual
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_equal_apart_from_wall_time(self, tmp_path, capsys):
        old = self._report(tmp_path, "old.json", "1.0e-35", 1.0)
        new = self._report(tmp_path, "new.json", "1.0e-35", 2.0)
        assert _report_diff["main"]([old, new]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "equal apart from wall_time_s"

    def test_headroom_change(self, tmp_path, capsys):
        # tol 1e-28: headroom 7 -> 5
        old = self._report(tmp_path, "old.json", "1.0e-35", 1.0)
        new = self._report(tmp_path, "new.json", "1.0e-33", 1.0)
        assert _report_diff["main"]([old, new]) == 1
        lines = capsys.readouterr().out.splitlines()
        row = ["LEMMA3", "1.0e-35", "1.0e-33", "100.0", "7.0", "5.0", "-2.0"]
        assert lines[1].split() == row
        assert lines[-1] == "differ in: identities"
