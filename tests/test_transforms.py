import random
import warnings

import mpmath as mp
import pytest

from ipdhyp.coeffs import IpdSpec, coeff_D
from ipdhyp.errors import (
    DegenerateCaseError,
    DistinctnessViolationError,
    IntegerDifferenceError,
    LengthMismatchError,
    OnBranchCutError,
    RootWarning,
)
from ipdhyp import transforms
from ipdhyp.hypeval import HypFunction, eval_pfq, eval_prefactor
from ipdhyp.kernel import (
    IntVector,
    ParamVector,
    cplx,
    gamma,
    pochhammer,
    pochhammer_vec,
)
from ipdhyp.transforms import (
    ARG_IDENTITY,
    ARG_MOBIUS,
    HypExpression,
    HypTerm,
    apply_degenerate_p,
    apply_degenerate_single,
    apply_degenerate_vector,
    apply_mp1,
    apply_mp2,
    apply_two_free,
    expand_to_gauss,
    ipd_function,
    meijer_norlund_ipd,
    meijer_norlund_ipd_many,
    two_free_function,
    vector_function,
)

STOL = mp.mpf("1e-34")


def _rng(seed=401):
    return random.Random(seed)


def _rc(rng):
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _resid(lhs, rhs):
    return abs(lhs - rhs) / max(1, abs(lhs))


def _bits(values):
    """The exact mantissas and exponents of a list of mpc values."""
    return [cplx(v)._mpc_ for v in values]


def _spec_sample():
    """The worked sample: a=0.7, b=0.4, c=2.3, f=(1.5), m=(2)."""
    return IpdSpec(
        b=mp.mpf("0.4"),
        f=[mp.mpf("1.5")],
        m=[2],
        a=mp.mpf("0.7"),
        c=mp.mpf("2.3"),
    )


class TestApplyMp1:
    def test_trivial_anchor_at_zero(self):
        expr = apply_mp1(_spec_sample())
        assert abs(expr.evaluate(0) - 1) < mp.mpf("1e-35")

    def test_single_pair_output_parameters(self):
        f1, b, c, a = cplx(1.5, 0.3), cplx(0.4, 0.15), cplx(2.3, -0.2), cplx(0.7, 0.1)
        expr = apply_mp1(IpdSpec(b=b, f=[f1], m=[1], a=a, c=c))
        assert len(expr) == 1
        term = expr.terms[0]
        zeta = f1 * (c - b - 1) / (f1 - b)
        assert abs(term.fun.den[1] - zeta) < mp.mpf("1e-28")
        assert abs(term.fun.num[2] - (zeta + 1)) < mp.mpf("1e-28")
        assert term.arg_map == "mobius"
        assert abs(term.prefactor_exponent + a) < mp.mpf("1e-35")

    def test_worked_sample_residual(self):
        spec = _spec_sample()
        x = mp.mpf("0.3")
        lhs = eval_pfq(ipd_function(spec), x, STOL).value
        for route in ("paperQ", "newP"):
            rhs = apply_mp1(spec, route=route).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-25")

    def test_complex_parameters_residual(self):
        rng = _rng(403)
        for _ in range(3):
            spec = IpdSpec(
                b=_rc(rng), f=[_rc(rng), _rc(rng)], m=[2, 1], a=_rc(rng),
                c=_rc(rng) + 2,
            )
            x = cplx(mp.mpf(rng.uniform(-0.4, 0.4)), mp.mpf(rng.uniform(-0.2, 0.2)))
            lhs = eval_pfq(ipd_function(spec), x, STOL).value
            rhs = apply_mp1(spec).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-28")

    def test_degenerate_case_raises(self):
        b = cplx(0.4, 0.15)
        with pytest.raises(DegenerateCaseError):
            apply_mp1(IpdSpec(b=b, f=[cplx(1.5)], m=[2], a=cplx(0.7), c=b + 2))

    def test_root_at_negative_integer_warns_and_degenerates(self):
        # zeta = f(c-b-1)/(f-b) = -1 exactly when f=2, b=0.5, c=0.75 (all
        # dyadic), making the output parameter pair (0; -1): the formal
        # series terminates at its first term and no longer represents the
        # input function, which is exactly what the warning flags
        spec = IpdSpec(b=mp.mpf("0.5"), f=[mp.mpf(2)], m=[1], a=cplx(0.31, 0.1),
                       c=mp.mpf("0.75"))
        with pytest.warns(RootWarning) as caught:
            expr = apply_mp1(spec)
        assert caught[0].filename == __file__
        x = mp.mpf("0.2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rhs = expr.evaluate(x)
        assert abs(rhs - eval_prefactor(x, -spec.a)) < mp.mpf("1e-33")
        lhs = eval_pfq(ipd_function(spec), x, STOL).value
        assert abs(lhs - rhs) > mp.mpf("1e-4")


class TestApplyMp2:
    def test_trivial_anchor_at_zero(self):
        expr = apply_mp2(_spec_sample())
        assert abs(expr.evaluate(0) - 1) < mp.mpf("1e-35")

    def test_worked_sample_residual(self):
        spec = _spec_sample()
        x = mp.mpf("0.3")
        lhs = eval_pfq(ipd_function(spec), x, STOL).value
        for route in ("paperQhat", "newPhat"):
            rhs = apply_mp2(spec, route=route).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-25")

    def test_routes_produce_same_function(self):
        rng = _rng(409)
        spec = IpdSpec(b=_rc(rng), f=[_rc(rng)], m=[2], a=_rc(rng), c=_rc(rng) + 2)
        x = cplx(0.22, 0.15)
        one = apply_mp2(spec, route="paperQhat").evaluate(x, STOL)
        two = apply_mp2(spec, route="newPhat").evaluate(x, STOL)
        assert _resid(one, two) < mp.mpf("1e-29")


class TestExpandToGauss:
    def test_term_count_single_pair(self):
        spec = IpdSpec(b=cplx(0.4), f=[cplx(1.5)], m=[1], a=cplx(0.7), c=cplx(2.3))
        expr = expand_to_gauss(spec)
        assert len(expr) == 2

    def test_coefficients_sum_to_one_at_origin(self):
        rng = _rng(419)
        spec = IpdSpec(
            b=_rc(rng), f=[_rc(rng), _rc(rng)], m=[2, 1], a=_rc(rng), c=_rc(rng) + 2
        )
        expr = expand_to_gauss(spec)
        total = sum((t.coeff for t in expr.terms), mp.mpc(0))
        assert abs(total - 1) < mp.mpf("1e-31")

    def test_matches_direct_series(self):
        rng = _rng(421)
        spec = IpdSpec(
            b=_rc(rng), f=[_rc(rng), _rc(rng)], m=[1, 1], a=_rc(rng), c=_rc(rng) + 2
        )
        x = cplx(0.3, 0.2)
        lhs = eval_pfq(ipd_function(spec), x, STOL).value
        rhs = expand_to_gauss(spec).evaluate(x, STOL)
        assert _resid(lhs, rhs) < mp.mpf("1e-29")


class TestDegenerateSingle:
    def _spec(self):
        return IpdSpec(
            b=mp.mpf("0.4"), f=[mp.mpf("1.5")], m=[2], a=mp.mpf("0.3")
        )

    def test_trivial_anchor(self):
        for variant in ("eq19", "eq20", "eq26"):
            expr = apply_degenerate_single(self._spec(), variant=variant)
            assert abs(expr.evaluate(0) - 1) < mp.mpf("1e-35")

    def test_worked_sample_residual(self):
        spec = self._spec()
        x = mp.mpf("0.25")
        lhs = eval_pfq(ipd_function(spec, c=spec.b + 1), x, STOL).value
        for variant in ("eq19", "eq20", "eq26"):
            rhs = apply_degenerate_single(spec, variant=variant).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-28")

    def test_c_must_match_structure(self):
        spec = IpdSpec(b=0.4, f=[1.5], m=[2], a=0.3, c=2.0)
        with pytest.raises(ValueError):
            apply_degenerate_single(spec)

    def test_limit_toward_unit_argument_reproduces_summation(self):
        # steeply decaying case: a = -6.3 keeps the series summable near 1
        # and shrinks the algebraic terms to ~|1-x|^5.3
        a, b, f1 = mp.mpf("-6.3"), mp.mpf("0.4"), mp.mpf("1.5")
        spec = IpdSpec(b=b, f=[f1], m=[1], a=a)
        x = 1 - mp.mpf("1e-6")
        expr = apply_degenerate_single(spec, variant="eq26")
        rhs = expr.evaluate(x, mp.mpf("1e-30"))
        lhs = eval_pfq(ipd_function(spec, c=b + 1), x, mp.mpf("1e-30")).value
        assert _resid(lhs, rhs) < mp.mpf("1e-26")
        closed = (
            gamma(b + 1) * gamma(1 - a) / gamma(b + 1 - a)
            * pochhammer(f1 - b, 1) / pochhammer(f1, 1)
        )
        # the gap to the x = 1 value closes like a power of |1-x|
        assert abs(rhs - closed) < mp.mpf("1e-4")


class TestDegenerateP:
    def test_reduces_to_single_at_p1(self):
        spec = IpdSpec(b=mp.mpf("0.4"), f=[mp.mpf("1.5")], m=[2], a=mp.mpf("0.3"))
        x = cplx(0.21, 0.13)
        for p_variant, s_variant in (("eq29", "eq19"), ("eq31", "eq20")):
            via_p = apply_degenerate_p(spec, 1, variant=p_variant).evaluate(x, STOL)
            via_s = apply_degenerate_single(spec, variant=s_variant).evaluate(x, STOL)
            assert _resid(via_p, via_s) < mp.mpf("1e-30")

    def test_residuals_p3(self):
        spec = IpdSpec(
            b=cplx(0.55, -0.1), f=[cplx(1.6, 0.15)], m=[1], a=cplx(0.35, 0.2)
        )
        x = mp.mpf("0.2")
        lhs = eval_pfq(ipd_function(spec, c=spec.b + 3), x, STOL).value
        for variant in ("eq29", "eq31"):
            rhs = apply_degenerate_p(spec, 3, variant=variant).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-28")

    def test_overlap_with_general_transformation(self):
        # c = b + p with p > m: both the general and the degenerate routes apply
        rng = _rng(431)
        for p in (2, 3, 4):
            spec = IpdSpec(
                b=cplx(0.45, 0.2), f=[cplx(1.7, -0.3)], m=[1], a=cplx(0.6, 0.25),
                c=cplx(0.45, 0.2) + p,
            )
            x = cplx(0.18, -0.21)
            general = apply_mp1(spec).evaluate(x, STOL)
            degenerate = apply_degenerate_p(
                IpdSpec(b=spec.b, f=spec.f, m=spec.m, a=spec.a), p, variant="eq29"
            ).evaluate(x, STOL)
            assert _resid(general, degenerate) < mp.mpf("1e-26")

    def test_trivial_anchor(self):
        spec = IpdSpec(b=mp.mpf("0.4"), f=[mp.mpf("1.5")], m=[2], a=mp.mpf("0.3"))
        for variant in ("eq29", "eq31"):
            expr = apply_degenerate_p(spec, 2, variant=variant)
            assert abs(expr.evaluate(0) - 1) < mp.mpf("1e-33")

    def test_zero_characteristic_polynomial_is_degenerate(self):
        b = cplx(0.4, 0.2)
        with pytest.raises(DegenerateCaseError):
            apply_degenerate_p(IpdSpec(b=b, f=[b], m=[1], a=0.3), 1)

    def test_p_below_1_rejected(self):
        spec = IpdSpec(b=cplx(0.4, 0.2), f=[cplx(1.5)], m=[1], a=0.3)
        with pytest.raises(ValueError, match="need p >= 1"):
            apply_degenerate_p(spec, 0)

    def test_vanishing_b_plus_q_minus_1_is_degenerate(self):
        # b+q-1 = 0 for some q in 1..p: reported as degenerate, not as the
        # gamma pole that build_T would hit at the same argument
        for b, p in ((0, 1), (-1, 3)):
            spec = IpdSpec(b=b, f=[cplx(1.5, 0.2)], m=[1], a=0.7)
            for variant in ("eq29", "eq31"):
                with pytest.raises(DegenerateCaseError, match="b\\+q-1"):
                    apply_degenerate_p(spec, p, variant=variant)


class TestDegenerateVector:
    def test_trivial_anchor(self):
        expr = apply_degenerate_vector(
            ParamVector([cplx(0.3, 0.1), cplx(1.7, -0.2)]),
            IntVector([2, 1]),
            cplx(0.42, -0.15),
            ParamVector([cplx(1.4, 0.25)]),
            IntVector([2]),
        )
        assert abs(expr.evaluate(0) - 1) < mp.mpf("1e-32")

    def test_two_sided_residuals(self):
        bvec = ParamVector([cplx(0.3, 0.1), cplx(1.7, -0.2)])
        pvec = IntVector([2, 1])
        a = cplx(0.42, -0.15)
        f = ParamVector([cplx(1.4, 0.25)])
        m = IntVector([2])
        x = cplx(0.21, 0.12)
        lhs = eval_pfq(vector_function(a, bvec, pvec, f, m), x, STOL).value
        for variant in ("eq27", "eq28"):
            rhs = apply_degenerate_vector(bvec, pvec, a, f, m, variant=variant).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-28")

    def test_single_component_matches_degenerate_p(self):
        b, p = cplx(0.55, -0.1), 3
        a, f, m = cplx(0.35, 0.2), ParamVector([cplx(1.6, 0.15)]), IntVector([1])
        x = cplx(0.19, 0.07)
        via_vector = apply_degenerate_vector(
            ParamVector([b]), IntVector([p]), a, f, m, variant="eq27"
        ).evaluate(x, STOL)
        via_p = apply_degenerate_p(
            IpdSpec(b=b, f=f, m=m, a=a), p, variant="eq29"
        ).evaluate(x, STOL)
        assert _resid(via_vector, via_p) < mp.mpf("1e-29")

    def test_contiguous_grid_weights(self):
        # B_q over the contiguous grid collapses to signed factorials
        b, p = cplx(0.55, -0.1), 4
        beta = [b + i for i in range(p)]
        for q in range(p):
            prod = mp.mpc(1)
            for v in range(p):
                if v != q:
                    prod *= beta[v] - beta[q]
            expect = (-1) ** q * mp.factorial(q) * mp.factorial(p - 1 - q)
            assert abs(prod - expect) < mp.mpf("1e-33")

    def test_distinctness_enforced(self):
        # second component sits exactly one above the first, so the shifted
        # grid (b1, b1+1, b1+1) collides
        b1 = cplx(0.3, 0.45)
        with pytest.raises(DistinctnessViolationError):
            apply_degenerate_vector(
                ParamVector([b1, b1 + 1]),
                IntVector([2, 1]),
                cplx(0.4),
                ParamVector([cplx(1.5)]),
                IntVector([1]),
            )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            apply_degenerate_vector(
                ParamVector([cplx(0.3, 0.45), cplx(1.7, -0.2)]),
                IntVector([2]),
                cplx(0.4),
                ParamVector([cplx(1.5)]),
                IntVector([1]),
            )


class TestTwoFree:
    def test_worked_sample_residual(self):
        a, d, e, b = mp.mpf("0.3"), mp.mpf("0.6"), mp.mpf("2.1"), mp.mpf("0.45")
        f, m = ParamVector([mp.mpf("1.4")]), IntVector([2])
        x = cplx(0.2, 0.1)
        lhs = eval_pfq(two_free_function(a, d, e, b, f, m), x, STOL).value
        for variant in ("first", "second"):
            rhs = apply_two_free(a, d, e, b, f, m, variant=variant).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-28")

    def test_single_pair_edge(self):
        a, d, e, b = cplx(0.3, 0.2), cplx(0.6, -0.4), cplx(2.1, 0.3), cplx(0.45, 0.1)
        f, m = ParamVector([cplx(1.7, 0.2)]), IntVector([1])
        x = cplx(0.2, 0.1)
        lhs = eval_pfq(two_free_function(a, d, e, b, f, m), x, STOL).value
        for variant in ("first", "second"):
            rhs = apply_two_free(a, d, e, b, f, m, variant=variant).evaluate(x, STOL)
            assert _resid(lhs, rhs) < mp.mpf("1e-29")

    def test_trivial_split_rejected(self):
        with pytest.raises(DegenerateCaseError):
            apply_two_free(0.3, 0.6, 2.1, 0, [1.4], [2])

    def test_trivial_anchor(self):
        expr = apply_two_free(0.3, 0.6, 2.1, 0.45, [1.4], [2])
        assert abs(expr.evaluate(0) - 1) < mp.mpf("1e-33")


class TestSharedLogs:
    XS = [mp.mpf("0.2"), cplx(0.21, 0.13), cplx(-0.35, -0.2)]

    def _expressions(self):
        spec = _spec_sample()
        degenerate = IpdSpec(b=mp.mpf("0.4"), f=[mp.mpf("1.5")], m=[2], a=mp.mpf("0.3"))
        vector = apply_degenerate_vector(
            ParamVector([cplx(0.3, 0.1), cplx(1.7, -0.2)]),
            IntVector([2, 1]),
            cplx(0.42, -0.15),
            ParamVector([cplx(1.4, 0.25)]),
            IntVector([2]),
            variant="eq28",
        )
        return [apply_mp1(spec), apply_degenerate_p(degenerate, 2, variant="eq29"), vector]

    def test_many_equals_pointwise(self):
        # Moebius (mp1, eq29), prefactor (all three) and x_power (the
        # algebraic tails of eq29 and eq28) terms
        for expr in self._expressions():
            many = expr.evaluate_many(self.XS, STOL)
            assert _bits(many) == _bits(expr.evaluate(x, STOL) for x in self.XS)

    def test_one_log_per_point(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return mp.log(1 - x)

        monkeypatch.setattr(transforms, "log_one_minus", counted)
        for expr in self._expressions()[1:]:
            assert sum(t.prefactor_exponent != 0 for t in expr.terms) > 1
            calls.clear()
            expr.evaluate_many(self.XS, STOL)
            assert len(calls) == len(self.XS)

    def test_nonzero_exponent_raises_on_the_cut(self):
        fun = HypFunction(ParamVector([mp.mpf("0.5")]), ParamVector([mp.mpf("1.5")]))
        expr = HypExpression([
            HypTerm(1, 0, 0, ARG_IDENTITY, fun),
            HypTerm(1, 0, mp.mpf("0.3"), ARG_IDENTITY, fun),
        ])
        with pytest.raises(OnBranchCutError):
            expr.evaluate_many([mp.mpf("0.2"), mp.mpf("1.5")], STOL)

    def test_zero_exponents_never_check_the_cut(self, monkeypatch):
        def refuse(x):
            raise AssertionError("Log(1-x) taken for a term with exponent 0")

        monkeypatch.setattr(transforms, "log_one_minus", refuse)
        fun = HypFunction(ParamVector([mp.mpf("0.5")]), ParamVector([mp.mpf("1.5")]))
        expr = HypExpression([HypTerm(1, 0, 0, ARG_IDENTITY, fun), HypTerm(2, 1)])
        x = mp.mpf("1.5")
        (value,) = expr.evaluate_many([x], STOL)
        assert value == eval_pfq(fun, x, STOL).value + 2 * x

    def test_mobius_made_once_per_point(self, monkeypatch):
        calls = []
        mobius = transforms.mobius_arg

        def counted(x):
            calls.append(x)
            return mobius(x)

        monkeypatch.setattr(transforms, "mobius_arg", counted)
        fun = HypFunction(ParamVector([mp.mpf("0.5")]), ParamVector([mp.mpf("1.5")]))
        expr = HypExpression([HypTerm(1, 0, 0, ARG_MOBIUS, fun)] * 3)
        expr.evaluate_many(self.XS, STOL)
        assert len(calls) == len(self.XS)


class TestMeijerNorlund:
    TS = [mp.mpf("0.07"), mp.mpf("0.4"), mp.mpf("0.93")]

    @pytest.mark.parametrize("route", ["closed", "series"])
    def test_many_equals_scalar(self, route):
        b, c = cplx(0.4, 0.15), cplx(2.3, -0.2)
        f, m = [cplx(1.5, 0.3), cplx(0.8, -0.2)], [2, 1]
        many = meijer_norlund_ipd_many(self.TS, b, c, f, m, route=route, tol=STOL)
        scalar = [meijer_norlund_ipd(t, b, c, f, m, route=route, tol=STOL) for t in self.TS]
        assert _bits(many) == _bits(scalar)

    @pytest.mark.parametrize("route", ["closed", "series"])
    def test_many_checks_every_t_before_summing(self, monkeypatch, route):
        def refuse(*args, **kwargs):
            raise AssertionError("summed before every t was checked")

        monkeypatch.setattr(transforms, "eval_pfq_many", refuse)
        monkeypatch.setattr(transforms, "coeff_D", refuse)
        for bad in (mp.mpf("1.2"), mp.mpf(0), cplx(0.5, 0.1)):
            with pytest.raises(ValueError, match="t must be real"):
                meijer_norlund_ipd_many(
                    [mp.mpf("0.4"), bad], 0.4, 2.3, [1.5], [1], route=route
                )

    def test_many_is_exported(self):
        import ipdhyp

        assert ipdhyp.meijer_norlund_ipd_many is meijer_norlund_ipd_many
        assert "meijer_norlund_ipd_many" in ipdhyp.__all__

    def test_many_integer_difference_rejected(self):
        b, c = cplx(0.4, 0.15), cplx(2.3, -0.2)
        f, m = [cplx(1.5, 0.3), cplx(2.5, 0.3)], [1, 1]  # f2 - f1 = 1
        with pytest.raises(IntegerDifferenceError):
            meijer_norlund_ipd_many(self.TS, b, c, f, m, route="series")
        closed = meijer_norlund_ipd_many(self.TS, b, c, f, m, route="closed")
        assert all(mp.isfinite(v.real) for v in closed)

    def test_route_agreement(self):
        b, c = cplx(0.4, 0.15), cplx(2.3, -0.2)
        f, m = [cplx(1.5, 0.3)], [1]
        t = mp.mpf("0.4")
        closed = meijer_norlund_ipd(t, b, c, f, m, route="closed")
        series = meijer_norlund_ipd(t, b, c, f, m, route="series", tol=STOL)
        assert _resid(closed, series) < mp.mpf("1e-30")

    def test_closed_form_two_summands_for_single_pair(self):
        # m = 1: the closed form is the beta density times (D_0 + D_1 (c-b-1) t/(t-1))
        b, c = cplx(0.4, 0.15), cplx(2.3, -0.2)
        f, m = [cplx(1.5, 0.3)], [1]
        t = mp.mpf("0.35")
        d0 = coeff_D(0, f, m, b)
        d1 = coeff_D(1, f, m, b)
        expect = (
            t**b * (1 - t) ** (c - b - 1) / gamma(c - b)
            * (d0 + d1 * (c - b - 1) * t / (t - 1))
        )
        got = meijer_norlund_ipd(t, b, c, f, m, route="closed")
        assert _resid(expect, got) < mp.mpf("1e-33")

    def test_leading_behavior_at_small_t(self):
        b, c = cplx(0.4, 0.15), cplx(2.3, -0.2)
        f, m = [cplx(1.5, 0.3), cplx(0.8, -0.2)], [2, 1]
        t = mp.mpf("1e-4")
        got = meijer_norlund_ipd(t, b, c, f, m, route="closed")
        lead = t**b * pochhammer_vec([fi - b for fi in f], m) / gamma(c - b)
        assert abs(got / lead - 1) < mp.mpf("1e-3")

    def test_integer_difference_rejected_for_series_route(self):
        b, c = cplx(0.4, 0.15), cplx(2.3, -0.2)
        f, m = [cplx(1.5, 0.3), cplx(2.5, 0.3)], [1, 1]  # f2 - f1 = 1
        with pytest.raises(IntegerDifferenceError):
            meijer_norlund_ipd(mp.mpf("0.4"), b, c, f, m, route="series")
        value = meijer_norlund_ipd(mp.mpf("0.4"), b, c, f, m, route="closed")
        assert mp.isfinite(value.real)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            meijer_norlund_ipd(mp.mpf("1.2"), 0.4, 2.3, [1.5], [1])


class TestLemmas:
    def test_index_sum_identity(self):
        # finite double-factorial sum vs its closed form, all index pairs
        rng = _rng(433)
        alpha = _rc(rng)
        worst = mp.mpf(0)
        for mt in range(7):
            for k in range(mt + 1):
                for i in range(k + 1):
                    lhs = mp.mpc(0)
                    for j in range(i, k + 1):
                        lhs += (
                            pochhammer(-k, j)
                            * pochhammer(alpha - mt + j, mt - i)
                            * pochhammer(-j, i)
                            / mp.factorial(j)
                        )
                    rhs = (
                        (-1) ** i
                        * pochhammer(-k, i)
                        * pochhammer(-mt, k)
                        * pochhammer(alpha - mt, mt)
                        / (pochhammer(-mt, i) * pochhammer(alpha - mt, k))
                    )
                    worst = max(worst, abs(lhs - rhs) / max(1, abs(rhs)))
        assert worst < mp.mpf("1e-30")

    def test_terminating_resummation_identity(self):
        from ipdhyp.kernel import terminating_pfq

        rng = _rng(439)
        b = _rc(rng)
        for shape in ((1,), (2,), (2, 1), (1, 1, 1)):
            m = IntVector(shape)
            f = ParamVector([_rc(rng) for _ in shape])
            mt = m.total
            f_shift = list(f.shifted_by(m))
            for k in range(mt + 1):
                lhs = mp.mpc(0)
                for i in range(k + 1):
                    inner = terminating_pfq(f_shift + [mp.mpc(-i)], list(f), i)
                    lhs += (
                        pochhammer(-k, i)
                        * pochhammer(b, i)
                        / (pochhammer(-mt, i) * mp.factorial(i))
                        * inner
                    )
                outer = terminating_pfq(
                    [mp.mpc(-k), b] + f_shift, [b + mt - k + 1] + list(f), k
                )
                rhs = pochhammer(-b - mt, k) / pochhammer(-mt, k) * outer
                assert abs(lhs - rhs) <= mp.mpf("1e-30") * max(1, abs(rhs))
