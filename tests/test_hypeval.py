import random

import mpmath as mp
import pytest

import ipdhyp.hypeval as hypeval
from ipdhyp.errors import (
    DenominatorPoleError,
    DivergentSeriesError,
    OnBranchCutError,
    PoleAtOneError,
    SlowConvergenceError,
)
from ipdhyp.hypeval import (
    HypFunction,
    eval_pfq,
    eval_prefactor,
    mobius_arg,
    pfq,
)
from ipdhyp.kernel import ParamVector, cplx, gamma, pochhammer


def _rng(seed=311):
    return random.Random(seed)


def _rc(rng):
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _fun(num, den):
    return HypFunction(ParamVector(num), ParamVector(den))


class TestEvalPfq:
    def test_any_function_at_zero(self):
        result = eval_pfq(_fun([cplx(0.3, 2.0), 5], [cplx(-0.7, 0.4)]), 0)
        assert result.value == 1
        assert result.tail_bound == 0

    def test_binomial_series(self):
        rng = _rng()
        for _ in range(5):
            a = _rc(rng)
            x = cplx(mp.mpf(rng.uniform(-0.8, 0.8)), mp.mpf(rng.uniform(-0.3, 0.3)))
            if abs(x) >= 1:
                continue
            got = pfq([a], [], x)
            expect = (1 - x) ** (-a)
            assert abs(got - expect) <= mp.mpf("1e-30") * max(1, abs(expect))

    def test_minton_terminating_instance(self):
        result = eval_pfq(_fun([-2, 0.5, 3], [1.5, 2]), 1)
        assert result.terms_used == 3
        assert abs(result.value - mp.mpf("0.4")) < mp.mpf("1e-38")
        # right side of the unit-argument summation for this instance
        closed = (
            mp.factorial(2)
            / pochhammer(1.5, 2)
            * pochhammer(2 - 0.5, 1)
            / pochhammer(2, 1)
        )
        assert abs(result.value - closed) < mp.mpf("1e-38")

    def test_early_zero_numerator_terminates_rest(self):
        # -1 zeroes every term past the second even though -3 terminates later
        den = [mp.mpf("1.7"), mp.mpf("2.3")]
        x = mp.mpf("0.4")
        result = eval_pfq(_fun([-1, -3, mp.mpf("0.5")], den), x)
        expect = 1 + mp.mpf(-1) * -3 * mp.mpf("0.5") / (den[0] * den[1]) * x
        assert abs(result.value - expect) < mp.mpf("1e-36")

    def test_euler_pfaff_self_check(self):
        rng = _rng(313)
        for _ in range(6):
            a, b, c = _rc(rng), _rc(rng), _rc(rng)
            if abs(c.imag) < 0.05:
                c += cplx(0, 0.3)
            x = cplx(mp.mpf(rng.uniform(-0.4, 0.4)), mp.mpf(rng.uniform(-0.2, 0.2)))
            lhs = pfq([a, b], [c], x)
            rhs = eval_prefactor(x, -a) * pfq([a, c - b], [c], mobius_arg(x))
            assert abs(lhs - rhs) <= mp.mpf("1e-29") * max(1, abs(lhs))

    def test_chu_vandermonde(self):
        rng = _rng(317)
        b, c = cplx(0.7, 0.4), cplx(2.2, -0.3)
        for n in range(11):
            got = pfq([-n, b], [c], 1)
            expect = pochhammer(c - b, n) / pochhammer(c, n)
            assert abs(got - expect) <= mp.mpf("1e-33") * max(1, abs(expect))

    def test_gauss_summation_at_unit(self):
        rng = _rng(331)
        for _ in range(5):
            a, b = _rc(rng), _rc(rng)
            c = _rc(rng) + 3  # keep Re(c-a-b) > 0 likely
            if not (c - a - b).real > 0.1:
                continue
            got = pfq([a, b], [c], 1)
            expect = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
            assert abs(got - expect) <= mp.mpf("1e-28") * max(1, abs(expect))

    def test_divergent_outside_disk(self):
        with pytest.raises(DivergentSeriesError):
            pfq([0.5, 0.7], [1.3], 1.2)

    def test_divergent_when_p_exceeds_q_plus_one(self):
        with pytest.raises(DivergentSeriesError):
            pfq([0.5, 0.7, 1.1], [1.3], 0.1)

    def test_unit_argument_requires_positive_excess(self):
        # sum(den) - sum(num) = -0.5 here
        with pytest.raises(DivergentSeriesError):
            pfq([1.0, 0.8], [1.3], 1)

    def test_unit_circle_off_one_fails_fast(self):
        # converges (sigma = 2) but far too slowly for direct summation
        import time

        started = time.perf_counter()
        with pytest.raises(SlowConvergenceError):
            pfq([0.5, 0.5], [2], -1)
        assert time.perf_counter() - started < 1

    def test_unit_circle_off_one_checks_divergence_first(self):
        with pytest.raises(DivergentSeriesError):
            pfq([1.0, 0.8], [1.3], -1)

    def test_denominator_pole_before_termination(self):
        with pytest.raises(DenominatorPoleError):
            eval_pfq(_fun([-5, 0.5], [-2]), 0.3)

    def test_terminating_before_denominator_pole(self):
        result = eval_pfq(_fun([-2, 0.5], [-5]), 0.3)
        assert result.terms_used == 3

    def test_nonterminating_denominator_pole(self):
        with pytest.raises(DenominatorPoleError):
            eval_pfq(_fun([0.4, 0.5], [-3]), 0.3)

    def test_tail_bound_is_a_true_bound(self):
        rng = _rng(337)
        for _ in range(5):
            a, b, c = _rc(rng), _rc(rng), _rc(rng) + 2
            x = cplx(mp.mpf(rng.uniform(0.1, 0.6)), mp.mpf(rng.uniform(-0.3, 0.3)))
            loose = eval_pfq(_fun([a, b], [c]), x, tol=mp.mpf("1e-20"))
            tight = eval_pfq(_fun([a, b], [c]), x, tol=mp.mpf("1e-36"))
            assert loose.tail_bound <= mp.mpf("1e-20") * max(1, abs(loose.value))
            assert abs(loose.value - tight.value) <= loose.tail_bound

    def test_unit_tail_bound_is_true(self):
        a, b = cplx(-1.3, 0.7), cplx(0.45, -0.2)
        c = cplx(2.9, 0.4)
        res = eval_pfq(_fun([a, b], [c]), 1)
        expect = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
        assert abs(res.value - expect) <= max(res.tail_bound, mp.mpf("1e-34"))

    def test_unit_argument_scales_with_precision(self):
        # the power-law tail must track the context well past 40 digits
        from ipdhyp.kernel import set_precision

        a, b = cplx(-2.6, 0.7), cplx(0.4, 0.15)
        f = [cplx(1.5, 0.3), cplx(0.8, -0.2)]
        m = [2, 1]
        num = [a, b] + [fi + mi for fi, mi in zip(f, m)]
        den = [b + 1] + f
        closed = lambda: (
            gamma(b + 1) * gamma(1 - a) / gamma(b + 1 - a)
            * pochhammer(f[0] - b, 2) * pochhammer(f[1] - b, 1)
            / (pochhammer(f[0], 2) * pochhammer(f[1], 1))
        )
        for dps, floor in ((40, "1e-30"), (80, "1e-66")):
            set_precision(dps)
            res = eval_pfq(_fun(num, den), 1)
            rel = abs(res.value - closed()) / abs(closed())
            assert rel <= mp.mpf(floor), (dps, mp.nstr(rel, 4))

    def test_slow_convergence_cap(self, monkeypatch):
        monkeypatch.setattr(hypeval, "TERM_CAP", 60)
        with pytest.raises(SlowConvergenceError):
            pfq([0.5, 0.7], [1.3], 0.995)


class TestPrefactor:
    def test_at_zero(self):
        assert eval_prefactor(0, cplx(0.3, 1.7)) == 1

    def test_reciprocal_at_half(self):
        assert abs(eval_prefactor(0.5, -1) - 2) < mp.mpf("1e-38")

    def test_principal_branch_complex(self):
        x, mu = cplx(0, 2), cplx(0.3)
        expect = mp.exp(mu * mp.log(1 - x))
        assert abs(eval_prefactor(x, mu) - expect) < mp.mpf("1e-38")

    def test_branch_cut_rejected(self):
        for x in (1, 1.5, 7):
            with pytest.raises(OnBranchCutError):
                eval_prefactor(x, 0.3)

    def test_just_off_the_cut_is_fine(self):
        value = eval_prefactor(cplx(1.5, "1e-10"), 0.3)
        assert mp.isfinite(value.real) and mp.isfinite(value.imag)


class TestMobiusArg:
    def test_values(self):
        assert mobius_arg(0) == 0
        assert abs(mobius_arg(-1) - 0.5) < mp.mpf("1e-38")
        assert abs(mobius_arg(mp.mpf("0.3")) - mp.mpf(-3) / 7) < mp.mpf("1e-38")

    def test_pole(self):
        with pytest.raises(PoleAtOneError):
            mobius_arg(1)

    def test_maps_left_half_region_into_disk(self):
        rng = _rng(347)
        for _ in range(10):
            x = cplx(mp.mpf(rng.uniform(-2, 0.49)), mp.mpf(rng.uniform(-1, 1)))
            assert abs(mobius_arg(x)) < 1
