import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    eval_pfq_many,
    eval_prefactor,
    mobius_arg,
    pfq,
)
from ipdhyp.kernel import (
    ParamVector,
    as_nonpositive_integer,
    cplx,
    gamma,
    pochhammer,
    set_precision,
)


def _rng(seed=311):
    return random.Random(seed)


def _rc(rng):
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _clear(z, margin=0.05):
    """z is at least ``margin`` from every nonpositive integer."""
    return not (z.real < margin and abs(z - mp.nint(z.real)) < margin)


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
        # terms up to 7e27 cancel to |F| = 6e-14
        n, b, c = 44, mp.mpf("31.5"), mp.mpf("1.25")
        for digits in (40, 60, 100):
            set_precision(digits)
            got = pfq([-n, b], [c], 1)
            expect = pochhammer(c - b, n) / pochhammer(c, n)
            assert abs(got - expect) <= mp.mpf(10) ** (8 - digits) * max(1, abs(expect)), digits

    def test_saalschutz_sum(self):
        # 3F2(-n, a, b; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n),
        # here with terms up to 1e9 and |F| = 1.9e-5
        n, a, b, c = 30, mp.mpf("12.5"), mp.mpf("-20.25"), mp.mpf("1.75")
        for digits in (40, 60, 100):
            set_precision(digits)
            got = pfq([-n, a, b], [c, 1 + a + b - c - n], 1)
            expect = (
                pochhammer(c - a, n) * pochhammer(c - b, n)
                / (pochhammer(c, n) * pochhammer(c - a - b, n))
            )
            assert abs(got - expect) <= mp.mpf(10) ** (8 - digits) * max(1, abs(expect)), digits

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
        with pytest.raises(SlowConvergenceError):
            eval_pfq_many(_fun([0.5, 0.7], [1.3]), [0.3, 0.995])

    @pytest.mark.parametrize(
        "num, den, x",
        [([0.5, 0.5], [2], 0.5), ([0.5, 0.5], [2], 1), ([-3, 0.5], [2], 0.5)],
        ids=["geometric", "unit", "terminating"],
    )
    def test_tolerance_must_be_positive(self, num, den, x):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            pfq(num, den, x, tol=0)

    @pytest.mark.parametrize("digits", [40, 60, 100])
    def test_unit_tail_retries_a_longer_head(self, digits):
        # with the first head the tail expansion stops where its terms rise
        # again (k = 11 of N = 64 at 40 digits), short of the tolerance
        set_precision(digits)
        a, b = cplx("-1.51003", "0.159707"), cplx("0.230329", "-0.345141")
        c = cplx("2.15209", "0.382712")
        got = eval_pfq(_fun([a, b], [c]), 1)
        assert got.terms_used == 2 * max(hypeval.UNIT_DIRECT_TERMS, digits)
        with mp.workdps(digits + 20):
            expect = mp.hyper([a, b], [c], 1)
        assert abs(got.value - expect) <= mp.mpf(10) ** (8 - digits) * abs(expect)

    @pytest.mark.parametrize("tol", ["1e-50", "1e-70"])
    def test_unit_tolerance_finer_than_digits(self, tol):
        # like the kernel, the x = 1 tail works to the digits of tol
        res = eval_pfq(_fun([0.3, 0.4], [2.1]), 1, tol=mp.mpf(tol))
        assert res.tail_bound <= mp.mpf(tol)
        with mp.workdps(100):
            expect = mp.hyper([0.3, 0.4], [2.1], 1)
        assert abs(res.value - expect) <= mp.mpf("1e-40") * abs(expect)

    @pytest.mark.parametrize("digits", [40, 60, 100])
    def test_dixon_at_unit(self, digits):
        set_precision(digits)
        rng, drawn = _rng(367), 0
        while drawn < 8:
            a, b, c = _rc(rng), _rc(rng), _rc(rng)
            args = [1 + a / 2, 1 + a - b, 1 + a - c, 1 + a / 2 - b - c]
            args += [1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c]
            if (2 + a - 2 * b - 2 * c).real < 0.05 or not all(_clear(z) for z in args):
                continue
            drawn += 1
            got = pfq([a, b, c], [1 + a - b, 1 + a - c], 1)
            with mp.workdps(digits + 20):
                expect = mp.fprod(gamma(z) for z in args[:4]) / mp.fprod(
                    gamma(z) for z in args[4:]
                )
            assert abs(got - expect) <= mp.mpf(10) ** (8 - digits) * max(1, abs(expect))

    @pytest.mark.parametrize("digits", [40, 60, 100])
    @pytest.mark.parametrize("m", [(1,), (2,), (1, 1)], ids=["1", "2", "1-1"])
    def test_karlsson_minton_at_unit(self, m, digits):
        set_precision(digits)
        rng, drawn = _rng(373 + len(m) * sum(m)), 0
        while drawn < 3:
            a, b, f = _rc(rng), _rc(rng), [_rc(rng) for _ in m]
            args = [b + 1, 1 - a, b + 1 - a] + f
            if (1 - a - sum(m)).real < 0.05 or not all(_clear(z) for z in args):
                continue
            drawn += 1
            got = pfq([a, b] + [fi + mi for fi, mi in zip(f, m)], [b + 1] + f, 1)
            with mp.workdps(digits + 20):
                expect = gamma(b + 1) * gamma(1 - a) / gamma(b + 1 - a)
                for fi, mi in zip(f, m):
                    expect *= pochhammer(fi - b, mi) / pochhammer(fi, mi)
            assert abs(got - expect) <= mp.mpf(10) ** (8 - digits) * max(1, abs(expect))

    def test_gauss_sweep_at_unit(self):
        rng = _rng(353)
        drawn = 0
        while drawn < 100:
            a, b, c = (mp.mpf(rng.uniform(-2, 3)) for _ in range(3))
            if c - a - b < 0.05 or (c < 0.5 and abs(c - mp.nint(c)) < 1e-3):
                continue
            drawn += 1
            expect = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
            got = pfq([a, b], [c], 1)
            assert abs(got - expect) <= mp.mpf("1e-30") * max(1, abs(expect)), (a, b, c)


class TestCancellation:
    def test_exponential_series_keeps_its_digits(self):
        # 1F1(1; 2; x) = (1 - e^x) / (-x): terms near 1e16 cancel to 1/40
        for x in (-40, -60):
            expect = (1 - mp.exp(x)) / (-x)
            got = pfq([1], [2], x)
            assert abs(got - expect) <= mp.mpf("1e-30") * abs(expect), x

    def test_terms_beyond_double_range_of_the_tolerance(self):
        # at 320 digits a term of 1e16 is past 2^1024 units of the tolerance
        set_precision(320)
        expect = (1 - mp.exp(-40)) / 40
        assert abs(pfq([1], [2], -40) - expect) <= mp.mpf(10) ** -310 * expect

    @pytest.mark.parametrize(
        "num, den, x, tol",
        [
            # t_6 of 1F1(1; 2; 1e-8) is near 1e-49, below the fixed-point
            # resolution at 40 digits two terms before the tail test starts
            ([1], [2], mp.mpf("1e-8"), None),
            ([cplx(0.3, 0.2), cplx(-1.4, 0.5)], [cplx(2.6, -0.3)], cplx("1e-12", "-3e-13"), None),
            # at tol = 1e-20 the resolution is near 1e-35, reached by t_7
            ([0.5, 1.5], [2.5], mp.mpf("1e-5"), mp.mpf("1e-20")),
        ],
    )
    def test_terms_below_resolution_early(self, num, den, x, tol):
        result = eval_pfq(_fun(num, den), x, tol)
        with mp.workdps(60):
            expect = mp.hyper(num, den, x)
        assert abs(result.value - expect) <= (tol or mp.mpf("1e-38")) * abs(expect)
        assert result.terms_used <= 12

    @pytest.mark.parametrize("digits", [40, 60, 100])
    def test_matches_mpmath_hyper(self, digits):
        set_precision(digits)
        rng = _rng(359 + digits)
        for q in (2, 3, 4):
            for radius in (0.3, 0.7, 0.95):
                num = [_rc(rng) for _ in range(q + 1)]
                den = [_rc(rng) + 2 for _ in range(q)]
                x = radius * mp.expjpi(2 * mp.mpf(rng.random()))
                got = pfq(num, den, x)
                with mp.workdps(digits + 20):
                    expect = mp.hyper(num, den, x)
                assert abs(got - expect) <= mp.mpf(10) ** (8 - digits) * max(1, abs(expect))

    @pytest.mark.parametrize("digits", [40, 60, 100])
    @pytest.mark.parametrize(
        "num, den, x",
        [
            ([-20, 1.5, 2.5], [], mp.mpf("-0.01")),
            ([-12, cplx(0.5, 0.3), 1.7, -3.4], [2.2, cplx(-0.6, 0.1), 1.3], mp.mpf("2.5")),
        ],
        ids=["p-above-q-plus-one", "growing-terms"],
    )
    def test_terminating_matches_mpmath_hyper(self, num, den, x, digits):
        set_precision(digits)
        got = pfq(num, den, x)
        with mp.workdps(digits + 20):
            expect = mp.hyper(num, den, x)
        assert abs(got - expect) <= mp.mpf(10) ** (8 - digits) * max(1, abs(expect))

    @pytest.mark.parametrize(
        "num, den",
        [
            ([1], [mp.mpf("1e-300")]),
            ([-2, 1], [mp.mpf("1e-300")]),
            ([1, 0.5], [cplx(-3, "1e-300")]),
            ([-6, 0.5], [cplx(-3, "1e-300")]),
        ],
    )
    def test_bottom_parameter_below_resolution(self, num, den):
        # v + n of size 1e-300 must not read as a pole in fixed point
        got = pfq(num, den, mp.mpf("0.5"))
        with mp.workdps(60):
            expect = mp.hyper(num, den, mp.mpf("0.5"))
        assert abs(got - expect) <= mp.mpf("1e-32") * abs(expect)


class TestHugeSums:
    @pytest.mark.parametrize("x", [680, 700])
    def test_tail_test_needs_a_finite_estimate(self, x):
        # |S| near 1e300: tol |S| overflows a double, and so does the tail
        # estimate of the terms a few steps short of the stop
        result = eval_pfq(_fun([], []), x)
        expect = mp.exp(x)
        tol = hypeval.default_series_tolerance()
        assert mp.isfinite(result.tail_bound)
        assert result.tail_bound <= tol * abs(result.value)
        assert abs(result.value - expect) <= tol * expect


def _product_ratio_maker(fun, wp):
    """Reference for ``hypeval._ratio_maker``: the ratio straight from the
    products prod(u+n) and (n+1) prod(v+n) of the fixed-point parameters."""
    low = min((exp + bc for v in fun.den for _, man, exp, bc in v._mpc_ if man), default=0)
    pw = wp + max(0, -mp.mp.prec - low)
    nums = [hypeval._to_fixed(u, pw) for u in fun.num]
    dens = [hypeval._to_fixed(v, pw) for v in fun.den]
    lift = (fun.q - fun.p) * pw

    def ratio(n):
        k = n << pw
        nr, ni = 1, 0
        for ur, ui in nums:
            ur += k
            nr, ni = nr * ur - ni * ui, nr * ui + ni * ur
        dr, di = n + 1, 0
        for vr, vi in dens:
            vr += k
            dr, di = dr * vr - di * vi, dr * vi + di * vr
        norm = dr * dr + di * di
        ar = nr * dr + ni * di
        ai = ni * dr - nr * di
        shift = wp + max(0, norm.bit_length() - max(abs(ar), abs(ai)).bit_length() - lift)
        up = shift + lift
        if up < 0:
            norm <<= -up
            return ar // norm, ai // norm, shift
        return (ar << up) // norm, (ai << up) // norm, shift

    return ratio


_BOX = st.builds(
    cplx,
    st.floats(min_value=-2, max_value=3, allow_nan=False),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
)
_TOP = st.one_of(_BOX, st.builds(cplx, st.integers(-6, 6)))
# bottom parameters: no pole, but some within 1e-300 of one, where the
# parameters take more fixed-point bits than the ratio
_TINY = st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False).filter(bool)
_BOTTOM = st.one_of(
    _BOX.filter(lambda v: as_nonpositive_integer(v) is None),
    st.builds(cplx, st.integers(1, 6)),
    st.builds(lambda tiny: cplx(mp.mpf(tiny)), _TINY),
    st.builds(lambda k, tiny: cplx(-k, mp.mpf(tiny)), st.integers(0, 6), _TINY),
)


def _outcome(ratio, n):
    # at wp = prec a part below 2^-prec has no bit left and reads as a pole,
    # in both forms alike; a pass always has guard bits beyond prec
    try:
        return ratio(n)
    except ZeroDivisionError:
        return "pole"


class TestTermRatio:
    @settings(max_examples=300, deadline=None)
    @given(
        num=st.lists(_TOP, max_size=6),
        den=st.lists(_BOTTOM, max_size=5),
        extra=st.integers(0, 400),
        ns=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
    )
    def test_matches_the_products(self, num, den, extra, ns):
        fun = _fun(num, den)
        wp = mp.mp.prec + extra
        fast, reference = hypeval._ratio_maker(fun, wp), _product_ratio_maker(fun, wp)
        for n in [0, 1] + ns:
            assert _outcome(fast, n) == _outcome(reference, n), n


class TestEvalPfqMany:
    def _assert_pointwise(self, fun, xs):
        results = eval_pfq_many(fun, xs)
        assert len(results) == len(xs)
        for x, result in zip(xs, results):
            single = eval_pfq(fun, x)
            assert (result.value, result.terms_used, result.tail_bound) == (
                single.value, single.terms_used, single.tail_bound
            ), x
        return results

    def test_mixed_points_match_pointwise(self):
        fun = _fun([cplx(0.3, 0.2), cplx(-1.4, 0.5), 1.7], [cplx(2.6, -0.3), 2.2])
        xs = [0, cplx(0.3, 0.1), 1, mp.mpf("-0.9"), cplx(0, "0.45"), 0]
        self._assert_pointwise(fun, xs)

    def test_terminating_function_matches_pointwise(self):
        fun = _fun([-4, cplx(0.5, 0.3), 1.2], [cplx(1.5, 0.2), 2])
        self._assert_pointwise(fun, [0, 1, cplx(0.4, 0.2), 2.5, -3])

    def test_points_stopping_far_apart_match_pointwise(self):
        # 21 to 3,569 terms: the points leave the pass one by one
        fun = _fun([cplx(0.3, 0.2), cplx(-1.4, 0.5), 1.7], [cplx(2.6, -0.3), 2.2])
        radii = ["0.05", "0.3", "0.6", "0.9", "0.97", "0.99"]
        xs = [mp.mpf(r) * mp.expjpi(mp.mpf(k) / 5) for k, r in enumerate(radii)]
        terms = [result.terms_used for result in self._assert_pointwise(fun, xs)]
        assert terms[0] < 30 and terms[-1] > 3000

    def test_point_summed_again_matches_pointwise(self, monkeypatch):
        # the terms of 1F1(1; 2; -40), near 1e16, need more guard bits than
        # the first pass has; x = 0.1 needs none
        passes = []
        run = hypeval._pass
        monkeypatch.setattr(
            hypeval, "_pass", lambda fun, xs, *rest: passes.append(len(xs)) or run(fun, xs, *rest)
        )
        self._assert_pointwise(_fun([1], [2]), [mp.mpf(-40), mp.mpf("0.1")])
        assert passes == [2, 1, 1, 1, 1]

    def test_empty(self):
        assert eval_pfq_many(_fun([0.5, 0.7], [1.3]), []) == []

    def test_one_unit_sum_per_call(self, monkeypatch):
        fun = _fun([cplx(0.3, 0.2), cplx(-1.4, 0.5)], [cplx(2.6, -0.3)])
        xs = [1, mp.mpf("0.5"), 1]
        calls = []
        unit = hypeval._sum_at_unit
        monkeypatch.setattr(hypeval, "_sum_at_unit", lambda *a: calls.append(a) or unit(*a))
        results = eval_pfq_many(fun, xs)
        assert len(calls) == 1
        for x, result in zip(xs, results):
            assert result == eval_pfq(fun, x)

    def test_raises_what_pointwise_raises_first(self):
        fun = _fun([0.5, 0.5], [2])
        with pytest.raises(DivergentSeriesError):
            eval_pfq_many(fun, [0.3, 1.2, -1])
        with pytest.raises(SlowConvergenceError):
            eval_pfq_many(fun, [0.3, -1, 1.2])
        with pytest.raises(SlowConvergenceError):
            eval_pfq_many(fun, [cplx(0, 1)])


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
