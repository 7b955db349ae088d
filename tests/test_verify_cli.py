import dataclasses
import hashlib
import json
import random
import re
import warnings

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
    NonConvergenceError,
    RejectionExhaustedError,
    RootWarning,
)
from ipdhyp.kernel import IntVector, ParamVector, cplx, pochhammer, set_precision
from ipdhyp.verify import (
    IDENTITIES,
    IDENTITY_IDS,
    TwoSided,
    _away,
    _clear,
    _draw_case,
    _Reject,
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

    def test_x_samples_include_origin_and_stay_in_disk(self):
        for case in sample_params("MP2", seed=19, count=3):
            assert case.x_samples[0] == 0
            assert len(case.x_samples) == 8
            assert all(abs(x) <= mp.mpf("0.45") + mp.mpf("1e-20") for x in case.x_samples)

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            sample_params("NOPE", seed=1, count=1)

    def test_rejection_budget_exhausted(self, monkeypatch):
        import ipdhyp.verify as verify_mod

        monkeypatch.setattr(verify_mod, "MAX_REJECTIONS", 0)
        with pytest.raises(RejectionExhaustedError):
            sample_params("MP1", seed=1, count=1)

    def test_roots_found_once_per_case(self, monkeypatch):
        # sampling builds each right side once and the check reuses it, so
        # every case finds its characteristic roots once, degree 0 included
        import ipdhyp.transforms as transforms_mod
        import ipdhyp.verify as verify_mod

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
        import ipdhyp.verify as verify_mod

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


#: SHA-256 of every identity's sample_params(id, 1, 3) at 40 digits.
_PINNED_DRAWS = "e5e9751ea12cd22745ee6fe2432d2180501262c75cc44069f7ac5946dfcefa2e"


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


#: Params of the samplers that leave pole clearance to the right-side
#: screen, as a function of z: the named bottom parameter of the right
#: side is z - 1 or z - 2, so z = 5e-4 puts it 5e-4 from a pole.
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
    def test_rejects_a_bottom_parameter_near_a_pole(self, identity_id, params):
        # the samplers no longer test these parameters themselves
        rng = random.Random(0)
        for z, rejected in ((mp.mpf("5e-4"), True), (mp.mpf("0.5"), False)):
            entry = dataclasses.replace(
                IDENTITIES[identity_id], sample=lambda rng, index, z=z: params(z)
            )
            if rejected:
                with pytest.raises(_Reject):
                    _draw_case(identity_id, entry, rng, 0)
            else:
                case = _draw_case(identity_id, entry, rng, 0)
                assert case.rhs is not None and case.rhs_error is None


#: Real parts within 2e-3 of an integer in -8..2, and a wider box.
_NEAR_INTEGERS = st.builds(
    lambda n, offset: mp.mpf(n) + mp.mpf(offset),
    st.integers(-8, 2),
    st.floats(-2e-3, 2e-3),
)
_REAL_PARTS = st.one_of(_NEAR_INTEGERS, st.floats(-10, 10).map(mp.mpf))


class TestSamplerImplications:
    """The implications that let a sampler drop a test another one makes."""

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
        a = cplx(re, im)
        if (1 - a - mt).real >= mp.mpf("0.05"):
            assert _clear(1 - a)


#: SHA-256 of every CaseResult of run_suite(seed=1, count=2) at 40 digits.
_PINNED_REPORT = "d8f45c004fe243cd4cf29f94ba7dab351024c00e888d471808001f41f3dcdd89"

#: SHA-256 of every residual the checks return for sample_params(id, 1, 2) at 40 digits.
_PINNED_RESIDUALS = "347e99eb79b88e71b1057bbdb3de4e2ca3cd0c9a7c27ee2ead5292abd86ff06c"


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
        import ipdhyp.verify as verify_mod

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
        _patch_check(monkeypatch, "LEMMA3", lambda case: [mp.mpf(0), mp.nan])
        assert run_suite(ids=["LEMMA3"], count=1).n_failed == 1

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
        # rejects; b is a binary fraction, so b+q-1 at q = 1 is b exactly
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"b": "0.375+0.25i", "f": ["0.375+0.25i"], "m": [1]}))
        code = cli_dispatch(["charpoly", "--which", "T", "--params", str(path)])
        assert code == 2
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
