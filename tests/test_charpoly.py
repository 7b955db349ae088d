import hashlib
import random
from functools import partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, to_fixed

from ipdhyp import charpoly
from ipdhyp.charpoly import (
    CPoly,
    build_L,
    build_P,
    build_Phat,
    build_Q,
    build_Qhat,
    build_T,
    find_roots,
    w_poly,
)
from ipdhyp.coeffs import coeff_Y
from ipdhyp.errors import (
    DegenerateCaseError,
    IpdHypError,
    LengthMismatchError,
    NonConvergenceError,
)
from ipdhyp.kernel import (
    Fixed,
    IntVector,
    ParamVector,
    as_nonpositive_integer,
    cplx,
    from_fixed_pair,
    gamma,
    genfunc_coeffs,
    pochhammer,
    pochhammer_vec,
    terminating_pfq,
    to_fixed_pair,
)
from ipdhyp.verify import sample_params
from test_verify_cli import _feed

M_SHAPES = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]


def _rng(seed=211):
    return random.Random(seed)


def _rc(rng):
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _sample(rng, shape):
    return ParamVector([_rc(rng) for _ in shape]), IntVector(shape)


def _coeff_dev(p1, p2):
    """Normwise relative deviation between two coefficient lists."""
    n = max(len(p1), len(p2))
    a = p1 + [mp.mpc(0)] * (n - len(p1))
    b = p2 + [mp.mpc(0)] * (n - len(p2))
    scale = max(max(abs(c) for c in a), max(abs(c) for c in b), mp.mpf(1))
    return max(abs(x - y) for x, y in zip(a, b)) / scale


class TestCPoly:
    def test_trims_only_exact_zero_tops(self):
        assert CPoly([1, 2, 0, 0]).degree == 1
        assert CPoly([1, 2, mp.mpf("1e-39")]).degree == 2

    def test_zero_polynomial_flag(self):
        assert CPoly([0]).is_zero
        assert not CPoly([0, 1]).is_zero

    def test_from_roots_and_eval(self):
        poly = CPoly.from_roots([2, -1], lead=3)
        assert poly.degree == 2
        assert abs(poly(2)) < mp.mpf("1e-37")
        assert abs(poly(0) - (3 * (0 - 2) * (0 + 1))) < mp.mpf("1e-37")

    def test_weighted_sum_trims_only_the_result(self):
        # the first partial sum's top coefficient is below the trim threshold
        # of that partial sum, but it is all that is left once the sum is done;
        # the sum is a plain list, and CPoly trims it once
        poly = CPoly(charpoly._weighted_sum([1, -1], [[1, mp.mpf("1e-36")], [1]]))
        assert poly.degree == 1
        assert poly.coeffs[1] == mp.mpf("1e-36")


class TestFindRoots:
    def test_quadratic(self):
        roots = find_roots(CPoly([-1, 0, 1]))  # t^2 - 1
        got = sorted(roots.roots, key=lambda z: z.real)
        assert abs(got[0] + 1) < mp.mpf("1e-30")
        assert abs(got[1] - 1) < mp.mpf("1e-30")

    def test_double_root_cluster(self):
        # (t-2)^2 (t+1)
        poly = CPoly.from_roots([2, 2, -1])
        roots = find_roots(poly)
        assert roots.residual <= mp.mpf(10) ** (-(mp.mp.dps - 10))
        near_two = sum(1 for r in roots.roots if abs(r - 2) < mp.mpf("1e-10"))
        near_neg1 = sum(1 for r in roots.roots if abs(r + 1) < mp.mpf("1e-25"))
        assert near_two == 2 and near_neg1 == 1

    def test_deterministic_for_seed(self):
        poly = CPoly.from_roots([cplx(1.3, 0.4), cplx(-0.7, 1.1), 2.5])
        first = find_roots(poly)
        second = find_roots(poly)
        assert all(a == b for a, b in zip(first.roots, second.roots))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateCaseError):
            find_roots(CPoly([0]))

    @pytest.mark.parametrize(
        "coeffs, index",
        [
            ([1, 2, mp.nan], 2),
            ([1, 1, mp.inf], 2),
            ([mp.inf, 1], 0),
            ([1, mp.inf, 1], 1),
            ([cplx(1, mp.nan), cplx(mp.ninf, 0), 1], 0),
            ([mp.nan], 0),
        ],
    )
    def test_non_finite_coefficient_rejected(self, coeffs, index):
        # unchecked, these come back as roots of 1.8e-12 with residual 0,
        # as (-inf + nan j), or as NonConvergenceError after 200 sweeps
        with pytest.raises(ValueError, match=f"coefficient {index} is not finite"):
            find_roots(CPoly(coeffs))

    def test_nonconvergence_budget(self, monkeypatch):
        monkeypatch.setattr(charpoly, "MAX_SWEEPS", 1)
        poly = CPoly.from_roots([1, 2, 3, 4])
        with pytest.raises(NonConvergenceError):
            find_roots(poly)

    def test_simple_roots_take_at_most_three_sweeps(self):
        # the double-precision start leaves the sweep that meets the target
        # and its polish sweep, with one to spare
        rng = _rng(229)
        target = mp.mpf(10) ** (-(mp.mp.dps - 10))
        for degree in range(2, 7):
            for _ in range(4):
                poly = CPoly.from_roots([_rc(rng) for _ in range(degree)], lead=_rc(rng))
                roots = find_roots(poly)
                assert roots.residual <= target
                assert 2 <= roots.sweeps <= 3

    def test_degree_one_takes_no_sweeps(self):
        assert find_roots(CPoly([cplx(0.3, 1), 2])).sweeps == 0

    def test_degree_one_root_is_rounded_to_working_precision(self):
        root = find_roots(CPoly([cplx(1, 3), 3])).roots[0]
        for part in (root.real, root.imag):
            assert part._mpf_[1].bit_length() <= mp.mp.prec

    def test_far_roots_from_fujiwara_radius(self):
        # t^2 + 1e350: the roots have modulus 1e175; a start circle of the
        # Cauchy radius 1 + max|c_i| = 1e350 needs about 300 sweeps to reach
        # them, one of Fujiwara radius 2e175 a few
        mp.mp.dps = 400
        roots = find_roots(CPoly([mp.mpf("1e350"), 0, 1]))
        assert roots.sweeps <= 10
        for r in roots.roots:
            assert abs(abs(r.imag) / mp.mpf("1e175") - 1) < mp.mpf("1e-380")
            assert abs(r.real) < mp.mpf("1e-200")

    def test_zero_radius_start(self):
        # t^2 and t^3: Fujiwara's radius is 0, so every iterate starts on
        # the multiple root 0, where the derivative vanishes too
        for degree in (2, 3):
            roots = find_roots(CPoly([0] * degree + [1]))
            assert roots.residual <= mp.mpf(10) ** (-(mp.mp.dps - 10))
            assert roots.sweeps == 2

    def test_circle_start_when_double_overflows(self):
        # (t - 1e350)(t - 1): its coefficients are not finite in double, so
        # the full-precision sweeps start from the circle
        mp.mp.dps = 400
        big = mp.mpf("1e350")
        roots = find_roots(CPoly([big, -(big + 1), 1]))
        assert roots.residual <= mp.mpf(10) ** (-(mp.mp.dps - 10))
        got = sorted(roots.roots, key=abs)
        assert abs(got[0] - 1) < mp.mpf("1e-380")
        assert abs(got[1] / big - 1) < mp.mpf("1e-380")

    def test_cluster_meets_target(self):
        # (t-1)^4 (t-2): the double phase stalls near the cluster, and the
        # full-precision sweeps still reach the target
        roots = find_roots(CPoly.from_roots([1, 1, 1, 1, 2]))
        assert roots.residual <= mp.mpf(10) ** (-(mp.mp.dps - 10))
        assert sum(1 for r in roots.roots if abs(r - 1) < mp.mpf("1e-6")) == 4
        assert sum(1 for r in roots.roots if abs(r - 2) < mp.mpf("1e-25")) == 1

    def test_ill_conditioned_simple_roots_leave_double_early(self, monkeypatch):
        # (t-1)...(t-6): rounding keeps the double step near 1e-13 relative,
        # above four ulp, so only the stall rule ends phase 1 early
        counts = {complex: 0, Fixed: 0}
        sweep = charpoly._sweep

        def counted(monic, deriv, z, inv_tiny, values=None):
            counts[type(z[0])] += 1
            return sweep(monic, deriv, z, inv_tiny, values)

        monkeypatch.setattr(charpoly, "_sweep", counted)
        roots = find_roots(CPoly.from_roots(range(1, 7)))
        assert counts[complex] <= 20
        assert roots.sweeps == 2 == counts[Fixed]
        got = sorted(roots.roots, key=lambda z: z.real)
        assert all(abs(r - k) < mp.mpf("1e-28") for k, r in enumerate(got, 1))

    def test_polish_sweep_reaches_full_precision(self):
        # Without the sweep that follows the first residual under target,
        # this Q-hat (MP2, seed 1, case 11) kept a root error of 6e-51 at
        # 60 digits.  Reference: the quadratic formula at 120 digits.
        mp.mp.dps = 60
        p = sample_params("MP2", 1, 20)[11].params
        args = (p["a"], p["b"], p["c"], p["f"], p["m"])
        roots = find_roots(build_Qhat(*args))
        with mp.workdps(120):
            c0, c1, c2 = build_Qhat(*args).coeffs
            disc = mp.sqrt(c1 * c1 - 4 * c2 * c0)
            ref = [(-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)]
            for r in roots.roots:
                assert min(abs(r - x) for x in ref) < mp.mpf("1e-60")

    def test_reconstruction_from_roots(self):
        rng = _rng(223)
        for _ in range(6):
            degree = rng.randint(1, 5)
            roots_in = [_rc(rng) for _ in range(degree)]
            lead = _rc(rng)
            poly = CPoly.from_roots(roots_in, lead=lead)
            roots = find_roots(poly)
            rebuilt = CPoly.from_roots(list(roots.roots), lead=1)
            monic = [c / poly.leading for c in poly.coeffs]
            assert _coeff_dev(rebuilt.coeffs, monic) <= mp.mpf("1e-28")


def _reference_roots(poly):
    """Reference for ``find_roots`` at degree >= 2: the same start, then the
    same ``_sweep`` on mpc values and an mpc Horner residual at 15 guard
    digits, with the same stop rule."""
    target = mp.mpf(10) ** (-(mp.mp.dps - 10))
    n = poly.degree
    with mp.extradps(15):
        lead = poly.leading
        monic = [c / lead for c in poly.coeffs]
        deriv = [i * c for i, c in enumerate(monic) if i > 0]
        radius = 2 * max(mp.root(abs(c), k) for k, c in enumerate(reversed(monic[:-1]), 1))
        rng = random.Random(charpoly.ROOT_SEED)
        draws = [rng.random() for _ in range(n)]
        z = charpoly._double_start(monic, deriv, float(radius), draws)
        if z is None:
            z = [
                radius * mp.exp(mp.mpc(0, 2 * mp.pi * (k + mp.mpf(u) / 2) / n + mp.mpf("0.35")))
                for k, u in enumerate(draws)
            ]
        z = [mp.mpc(zi) for zi in z]
        inv_tiny = mp.mpf(10) ** mp.mp.dps
        met = False
        for sweeps in range(1, charpoly.MAX_SWEEPS + 1):
            charpoly._sweep(monic, deriv, z, inv_tiny)
            residual = max(abs(poly(zi)) for zi in z) / abs(lead)
            if residual <= target and met:
                break
            met = residual <= target
        else:
            raise NonConvergenceError("reference iteration did not converge")
    return [mp.mpc(zi) for zi in z], residual, sweeps


def _engine_polys(rng, shape, ps=(3,)):
    """Every characteristic polynomial of degree >= 2 for one seeded spec."""
    f, m = _sample(rng, shape)
    a, b, c, d, e = (_rc(rng) for _ in range(5))
    builds = [
        partial(build_Q, b, c, f, m),
        partial(build_Q, b, c, f, m, route="eq7"),
        partial(build_P, b, c, f, m),
        partial(build_Qhat, a, b, c, f, m),
        partial(build_Phat, a, b, c, f, m),
        partial(build_L, a, d, e, b, f, m, variant="L"),
        partial(build_L, a, d, e, b, f, m, variant="Lhat"),
        partial(w_poly, b, f, m),
    ]
    for p in ps:
        builds += [partial(build_T, b, p, f, m), partial(build_T, b, p, f, m, "Tstar", a)]
    polys = []
    for build in builds:
        try:
            poly = build()
        except IpdHypError:
            continue
        if poly.degree >= 2:
            polys.append(poly)
    return polys


class TestFixedPointPhase:
    """find_roots against the mpc phase it replaced: the same sweeps, roots
    equal to 10^-(dps-2) relative, and the residual under the target."""

    @staticmethod
    def _check(poly, sweeps_differ_by=0, multiplicity=1):
        target = mp.mpf(10) ** (-(mp.mp.dps - 10))
        got = find_roots(poly)
        ref, _, ref_sweeps = _reference_roots(poly)
        assert got.residual <= target
        assert abs(got.sweeps - ref_sweeps) == sweeps_differ_by
        # a root of multiplicity k is determined only to the k-th root of
        # the agreement of simple ones, and a zero one absolutely
        tol = (mp.mpf(10) ** (2 - mp.mp.dps)) ** (mp.mpf(1) / multiplicity)
        for new, old in zip(got.roots, ref):
            assert abs(new - old) <= tol * (abs(old) if multiplicity == 1 else max(1, abs(old)))

    def test_engine_like_specs(self):
        rng = _rng(307)
        count = 0
        for shape in [(1,), (2,), (3,), (4,), (5,), (6,), (3, 3), (2, 2, 2)]:
            for poly in _engine_polys(rng, shape, ps=(2, 3, 4, 5)):
                self._check(poly)
                count += 1
        assert count >= 70

    def test_route_study_shapes(self):
        rng = _rng(311)
        for shape in [(9,), (5, 4), (3, 3, 3), (12,), (6, 6), (4, 4, 4)]:
            for poly in _engine_polys(rng, shape):
                self._check(poly)

    def test_roots_spread_over_scales(self):
        # roots of one scale 10^e each, at 60 digits, up to e * degree = 40,
        # where the leading coefficient is 10^-40 of the constant one; CPoly
        # trims only exact zeros, so the degree holds.  The reference meets
        # its absolute target only while max|c_k z^k| stays below about
        # 10^25, which its rounding floor needs; beyond that the roots are
        # checked against the ones the polynomial was built from.
        mp.mp.dps = 60
        rng = _rng(313)
        for e in range(-20, 21, 5):
            for degree in (2, 3, 4):
                if e * degree > 40:
                    continue
                roots = [_rc(rng) * mp.mpf(10) ** e for _ in range(degree)]
                poly = CPoly.from_roots(roots, lead=_rc(rng))
                assert poly.degree == degree
                if e * degree <= 20:
                    self._check(poly)
                got = find_roots(poly)
                assert got.residual <= mp.mpf(10) ** (-(mp.mp.dps - 10))
                for r in roots:
                    assert min(abs(r - x) for x in got.roots) <= mp.mpf("1e-55") * abs(r)

    def test_nudge_moves_an_iterate_off_a_double_critical_point(self):
        # t^3 - 1 with an iterate at 0, where p' = 3t^2 vanishes to second
        # order: a nudge of one ulp would leave p' = 0 in fixed point and
        # the iterate where it is
        wp = 120

        def fixed(re, im=0):
            return Fixed(re << wp, im << wp, wp)

        monic = [fixed(-1), fixed(0), fixed(0), fixed(1)]
        deriv = [fixed(0), fixed(0), fixed(3)]
        z = [fixed(0), fixed(2), fixed(-2, 1)]
        for _ in range(50):
            charpoly._sweep(monic, deriv, z, fixed(10**40))
        for zi in z:
            v = charpoly._horner(monic, zi)
            assert max(abs(v.re), abs(v.im)) < 16

    def test_edge_inputs(self):
        self._check(CPoly.from_roots(range(1, 7)))
        self._check(CPoly.from_roots([1, 1, 1, 1, 2]), multiplicity=4)
        # t^8: after the nudge to 2^-40, p' = 8 t^7 is still 0 in fixed point
        for degree in (2, 3, 8):
            self._check(CPoly([0] * degree + [1]), multiplicity=degree)
        mp.mp.dps = 400
        # at 400 digits the reference's Horner rounds |p| to about 4e-390
        # near 1e175: t^2 + 1e350 meets the 1e-390 target a sweep later, on
        # an exact zero; and (t - 1e350)(t - 1) lands on its representable
        # roots a sweep earlier than the fixed point, which resolves 4e-384
        self._check(CPoly([mp.mpf("1e350"), 0, 1]), sweeps_differ_by=1)
        big = mp.mpf("1e350")
        self._check(CPoly([big, -(big + 1), 1]), sweeps_differ_by=1)


def _mpc_setup_roots(poly):
    """``find_roots`` with its set-up written on mpc values at 15 guard
    digits, kept verbatim apart from module names as the reference that
    the set-up on raw mpf tuples must match bit for bit: ``_double_start``
    takes mpc lists and ``_sweep`` no values."""
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
            rng = random.Random(charpoly.ROOT_SEED)
            draws = [rng.random() for _ in range(n)]
            z = charpoly._double_start(monic, deriv, float(radius), draws)
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
            for sweeps in range(1, charpoly.MAX_SWEEPS + 1):
                charpoly._sweep(monic, deriv, z, inv_tiny)
                square = max(
                    v.re * v.re + v.im * v.im for v in (charpoly._horner(monic, zi) for zi in z)
                )
                done, met = met and square <= bound, square <= bound
                if done:
                    break
            residual = mp.sqrt(mp.make_mpf(from_man_exp(square, -2 * wp)))
            if not done:
                raise NonConvergenceError(
                    f"root iteration failed to reach residual {mp.nstr(target, 5)} "
                    f"within {charpoly.MAX_SWEEPS} sweeps (got {mp.nstr(residual, 5)})"
                )
            z = [from_fixed_pair(zi.re, zi.im, wp, prec) for zi in z]
    return charpoly.RootSet(ParamVector(mp.mpc(zi) for zi in z), residual, sweeps)


def _outcome(find, poly):
    """A RootSet as its raw parts, or the error it raised as type and text."""
    try:
        got = find(poly)
    except IpdHypError as exc:
        return type(exc).__name__, str(exc)
    return [z._mpc_ for z in got.roots], got.residual._mpf_, got.sweeps


# a coefficient of 2^e times a complex integer, or an exact zero
_COEFF = st.one_of(
    st.just(0),
    st.builds(
        lambda re, im, e: cplx(mp.ldexp(re, e), mp.ldexp(im, e)),
        st.integers(-(2**60), 2**60),
        st.integers(-(2**60), 2**60),
        st.integers(-80, 40),
    ),
)


class TestSameAsMpcSetUp:
    """find_roots returns bit for bit the RootSet of the mpc set-up:
    every root's mpc, the residual's mpf and the sweeps, or the same
    error."""

    @staticmethod
    def _same(poly):
        assert _outcome(find_roots, poly) == _outcome(_mpc_setup_roots, poly)

    @settings(max_examples=120, deadline=None)
    @given(
        coeffs=st.lists(_COEFF, min_size=1, max_size=9).filter(lambda cs: cs[-1] != 0),
        digits=st.sampled_from([40, 60]),
    )
    def test_random_polynomials(self, coeffs, digits):
        mp.mp.dps = digits
        self._same(CPoly(coeffs))

    @pytest.mark.parametrize("digits", [40, 60])
    def test_named_cases(self, digits):
        mp.mp.dps = digits
        cases = [
            CPoly([16, 4, 1]),  # |c_1| = 16^(1/2): a radius tie
            CPoly([5, 0, 2, 0, 1]),
            CPoly([0, 0, 0, 1]),  # every lower coefficient zero: radius 0
            CPoly([0, cplx(1, 2), 0, 3]),
            CPoly([1, 1, mp.mpf("1e-400")]),  # monic overflows a double: the circle
            # Q at c-b = 1e10, m = 12: top coefficient 2e-121, roots near 1e10
            build_Q(cplx(0.5, 0.1), cplx(0.5, 0.1) + mp.mpf("1e10"), [cplx(1.1, 0.4)], (12,)),
            # p overflows a double at the circle, and the sweeps from the
            # full-precision circle end in NonConvergenceError
            CPoly([1, 2, 3, cplx(mp.mpf("1e-121"), mp.mpf("3e-122"))]),
            CPoly.from_roots(range(1, 7)),
            CPoly([cplx(1, 3), 3]),
            CPoly([cplx(2, -1)]),
        ]
        for poly in cases:
            self._same(poly)

    def test_engine_like_specs(self):
        rng = _rng(331)
        for shape in [(1,), (2,), (3,), (2, 1), (4,), (6,), (3, 3)]:
            for poly in _engine_polys(rng, shape, ps=(1, 2, 3, 4)):
                self._same(poly)


class TestBuildQ:
    def test_value_at_zero_is_one(self):
        rng = _rng(227)
        for shape in M_SHAPES:
            f, m = _sample(rng, shape)
            b, c = _rc(rng), _rc(rng)
            poly = build_Q(b, c, f, m)
            assert poly.degree == m.total
            assert abs(poly(0) - 1) < mp.mpf("1e-32")

    def test_single_pair_closed_root(self):
        f1, b, c = cplx(1.5, 0.3), cplx(0.4, 0.15), cplx(2.3, -0.2)
        poly = build_Q(b, c, [f1], [1])
        root = find_roots(poly).roots[0]
        expect = f1 * (c - b - 1) / (f1 - b)
        assert abs(root - expect) < mp.mpf("1e-30")

    def test_route_agreement(self):
        rng = _rng(229)
        for _ in range(6):
            f, m = _sample(rng, (2, 1))
            b, c = _rc(rng), _rc(rng)
            eq5 = build_Q(b, c, f, m, route="eq5")
            eq7 = build_Q(b, c, f, m, route="eq7")
            assert _coeff_dev(eq5.coeffs, eq7.coeffs) <= mp.mpf("1e-30")

    def test_roots_far_from_the_origin_keep_the_degree(self):
        # at large c-b every root is large and the top coefficient tiny
        # beside Q(0) = 1: 2e-121 at c-b = 1e10, m = 12; it is genuine degree
        b, f = cplx(0.5, 0.1), [cplx(1.1, 0.4)]
        tol = mp.mpf(10) ** (6 - mp.mp.dps)
        for gap, m in ((mp.mpf("1e10"), (12,)), (mp.mpf("1e30"), (3,))):
            poly = build_Q(b, b + gap, f, m)
            assert poly.degree == m[0]
            got = find_roots(poly).roots
            with mp.workdps(150):
                ref = find_roots(build_Q(b, b + gap, f, m)).roots
            for r in ref:
                assert min(abs(x - r) for x in got) <= tol * abs(r)

    def test_degenerate_case_detected(self):
        b = cplx(0.4, 0.15)
        m = IntVector([2])
        with pytest.raises(DegenerateCaseError):
            build_Q(b, b + m.total, [cplx(1.5, 0.3)], m)


class TestBuildP:
    def test_value_at_zero(self):
        rng = _rng(233)
        f, m = _sample(rng, (2, 1))
        b, c = _rc(rng), _rc(rng)
        poly = build_P(b, c, f, m)
        fm = pochhammer_vec(f, m)
        assert abs(poly(0) - fm) <= mp.mpf("1e-32") * max(1, abs(fm))

    def test_constant_multiple_of_q(self):
        rng = _rng(239)
        for _ in range(8):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            b, c = _rc(rng), _rc(rng)
            q_poly = build_Q(b, c, f, m)
            p_poly = build_P(b, c, f, m)
            assert p_poly.degree == q_poly.degree == m.total
            fm = pochhammer_vec(f, m)
            assert _coeff_dev(p_poly.coeffs, [c * fm for c in q_poly.coeffs]) <= mp.mpf("1e-30")

    def test_same_root_as_q_for_single_pair(self):
        f1, b, c = cplx(1.9, -0.4), cplx(0.2, 0.6), cplx(2.7, 0.3)
        root_q = find_roots(build_Q(b, c, [f1], [1])).roots[0]
        root_p = find_roots(build_P(b, c, [f1], [1])).roots[0]
        assert abs(root_q - root_p) < mp.mpf("1e-28")


class TestBuildQhatPhat:
    def test_values_at_zero_are_one(self):
        rng = _rng(241)
        f, m = _sample(rng, (2, 1))
        a, b, c = _rc(rng), _rc(rng), _rc(rng)
        qhat = build_Qhat(a, b, c, f, m)
        phat = build_Phat(a, b, c, f, m)
        assert abs(qhat(0) - 1) < mp.mpf("1e-30")
        assert abs(phat(0) - 1) < mp.mpf("1e-30")

    def test_coefficientwise_identity(self):
        rng = _rng(251)
        for _ in range(8):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            a, b, c = _rc(rng), _rc(rng), _rc(rng)
            qhat = build_Qhat(a, b, c, f, m)
            phat = build_Phat(a, b, c, f, m)
            assert qhat.degree == phat.degree == m.total
            assert _coeff_dev(qhat.coeffs, phat.coeffs) <= mp.mpf("1e-30")

    def test_single_pair_roots_match(self):
        f, m = ParamVector([cplx(1.7, 0.2)]), IntVector([1])
        a, b, c = cplx(0.3, 0.5), cplx(0.8, -0.3), cplx(2.4, 0.4)
        root_q = find_roots(build_Qhat(a, b, c, f, m)).roots[0]
        root_p = find_roots(build_Phat(a, b, c, f, m)).roots[0]
        assert abs(root_q - root_p) < mp.mpf("1e-28")

    def test_degenerate_case(self):
        a, b = cplx(0.3, 0.5), cplx(0.8, -0.3)
        with pytest.raises(DegenerateCaseError):
            build_Qhat(a, b, a + 1, [cplx(1.5)], [1])


class TestBuildT:
    def test_p1_constant(self):
        rng = _rng(257)
        f, m = _sample(rng, (2,))
        b = _rc(rng)
        poly = build_T(b, 1, f, m, variant="T")
        assert poly.degree == 0
        expect = pochhammer_vec([fi - b for fi in f], m)
        assert abs(poly.coeffs[0] - expect) <= mp.mpf("1e-30") * max(1, abs(expect))

    def test_matches_defining_sum(self):
        # the paper's Gamma-weighted q-sum, re-evaluated at sample points, is
        # T Gamma(b) and T* Gamma(b) / Gamma(b+1-a)
        rng = _rng(263)
        f, m = _sample(rng, (2, 1))
        b, a = _rc(rng), _rc(rng)
        p = 3
        for variant, scale in (("T", gamma(b)), ("Tstar", gamma(b) / gamma(b + 1 - a))):
            poly = build_T(b, p, f, m, variant=variant, a=a)
            assert poly.degree == p - 1
            for z in (cplx(0.3, 0.7), cplx(-1.2, 0.1), cplx(2.0, -0.5)):
                direct = mp.mpc(0)
                for q in range(1, p + 1):
                    term = (
                        (-1) ** (q - 1)
                        * pochhammer_vec([fi - b - q + 1 for fi in f], m)
                        * gamma(b + q - 1)
                        / (mp.factorial(q - 1) * mp.factorial(p - q))
                        * pochhammer(b + q + z, p - q)
                    )
                    if variant == "Tstar":
                        term *= pochhammer(b + 1 - a + z, q - 1) / gamma(b + q - a)
                    direct += term
                assert abs(poly(z) * scale - direct) <= mp.mpf("1e-30") * max(1, abs(direct))

    def test_tstar_p2_root_matches_closed_form(self):
        rng = _rng(269)
        f, m = _sample(rng, (2,))
        a, b = _rc(rng), _rc(rng)
        poly = build_T(b, 2, f, m, variant="Tstar", a=a)
        root = find_roots(poly).roots[0]
        fb = pochhammer_vec([fi - b for fi in f], m)
        fb1 = pochhammer_vec([fi - b - 1 for fi in f], m)
        lam_star = (b - a + 1) * ((b + 1) * fb - b * fb1) / ((b - a + 1) * fb - b * fb1)
        assert abs(lam_star + root) <= mp.mpf("1e-28") * max(1, abs(lam_star))

    def test_finite_where_gamma_of_b_poles(self):
        # b = -1 is a pole of the paper's weights Gamma(b+q-1); the rational
        # T is finite there and equals its defining sum
        b, p, f, m = cplx(-1), 2, ParamVector([cplx(1.5)]), IntVector([1])
        poly = build_T(b, p, f, m, variant="T")
        for z in (cplx(0.3, 0.7), cplx(-1.2, 0.1)):
            direct = sum(
                (-1) ** (q - 1)
                * pochhammer_vec([fi - b - q + 1 for fi in f], m)
                * pochhammer(b, q - 1)
                / (mp.factorial(q - 1) * mp.factorial(p - q))
                * pochhammer(b + q + z, p - q)
                for q in range(1, p + 1)
            )
            assert mp.isfinite(poly(z)) and abs(poly(z) - direct) <= mp.mpf("1e-30")

    def test_tstar_rejects_a_vanishing_shifted_pochhammer(self):
        # (b+1-a)_{q-1} = 0 at q = 2 when a = b+1
        b = cplx(0.4, 0.2)
        with pytest.raises(DegenerateCaseError, match="b\\+1-a"):
            build_T(b, 2, [cplx(1.5)], [1], variant="Tstar", a=b + 1)

    def test_zero_polynomial_left_to_find_roots(self):
        # f = b makes (f-b)_m, the one weight of T at p = 1, vanish; beta_1
        # is b exactly, so it vanishes for a decimal b as well
        for b in (cplx(0.4, 0.2), cplx("0.4", "0.2")):
            poly = build_T(b, 1, [b], [1], variant="T")
            assert poly.is_zero
            with pytest.raises(DegenerateCaseError):
                find_roots(poly)


class TestBuildL:
    def test_cor4_closed_roots(self):
        a, d, e, b = cplx(0.3, 0.1), cplx(0.6, -0.2), cplx(2.1, 0.3), cplx(0.45, 0.2)
        f0 = cplx(1.4, -0.1)
        f, m = ParamVector([f0]), IntVector([2])
        lam = (2 * f0 - b + 1) * (e - d - 1) / (2 * f0 - b - d + 1)
        root = find_roots(build_L(a, d, e, b, f, m, variant="L")).roots[0]
        assert abs(lam - root) <= mp.mpf("1e-28") * max(1, abs(lam))
        lam_star = (
            (2 * f0 - b + 1)
            * (e - a - 1)
            * (e - d - 1)
            / (a * d + (2 * f0 - b + 1) * (e - a - d - 1))
        )
        root_star = find_roots(build_L(a, d, e, b, f, m, variant="Lhat")).roots[0]
        assert abs(lam_star - root_star) <= mp.mpf("1e-28") * max(1, abs(lam_star))

    def test_cor5_closed_roots(self):
        a, d, e, b = cplx(0.2, -0.3), cplx(0.7, 0.4), cplx(2.5, -0.1), cplx(0.6, 0.1)
        f = ParamVector([cplx(1.3, 0.1), cplx(2.0, -0.3)])
        m = IntVector([1, 1])
        s = f[0] + f[1] - b
        lam = s * (e - d - 1) / (s - d)
        root = find_roots(build_L(a, d, e, b, f, m, variant="L")).roots[0]
        assert abs(lam - root) <= mp.mpf("1e-28") * max(1, abs(lam))
        lam_star = s * (e - a - 1) * (e - d - 1) / (a * d + s * (e - a - d - 1))
        root_star = find_roots(build_L(a, d, e, b, f, m, variant="Lhat")).roots[0]
        assert abs(lam_star - root_star) <= mp.mpf("1e-28") * max(1, abs(lam_star))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1)])
    def test_matches_defining_sum(self, shape):
        # pointwise re-evaluation of the L and L-hat sums above degree 1
        rng = _rng(277 + len(shape))
        f, m = _sample(rng, shape)
        a, d, e, b = (_rc(rng) for _ in range(4))
        n = m.total - 1
        y = [coeff_Y(k, b, f, m) for k in range(n + 1)]
        alpha, beta, gam = e - a - n, e - d - n, e - a - d - n
        low = build_L(a, d, e, b, f, m, variant="L")
        hat = build_L(a, d, e, b, f, m, variant="Lhat")
        assert low.degree == hat.degree == n
        for t in (cplx(0.3, 0.7), cplx(-1.2, 0.1), cplx(2.0, -0.5)):
            direct = mp.mpc(0)
            direct_hat = mp.mpc(0)
            for k in range(n + 1):
                direct += pochhammer(d, k) * y[k] * pochhammer(t, k) * pochhammer(beta - t, n - k)
                direct_hat += (
                    (-1) ** k
                    * y[k]
                    * pochhammer(a, k)
                    * pochhammer(d, k)
                    / (pochhammer(alpha, k) * pochhammer(beta, k))
                    * pochhammer(t, k)
                    * terminating_pfq([k - n, gam, t + k], [alpha + k, beta + k], n - k)
                )
            assert abs(low(t) - direct) <= mp.mpf("1e-30") * max(1, abs(direct))
            assert abs(hat(t) - direct_hat) <= mp.mpf("1e-30") * max(1, abs(direct_hat))

    def test_degenerate_condition(self):
        a, d, b = cplx(0.3), cplx(0.6), cplx(0.45)
        m = IntVector([2])
        with pytest.raises(DegenerateCaseError):
            build_L(a, d, d + m.total - 1, b, [cplx(1.4)], m, variant="L")


class TestDegreeContracts:
    def test_all_degrees(self):
        rng = _rng(271)
        f, m = _sample(rng, (2, 1))
        a, b, c, d, e = (_rc(rng) for _ in range(5))
        mt = m.total
        assert build_Q(b, c, f, m).degree == mt
        assert build_P(b, c, f, m).degree == mt
        assert build_Qhat(a, b, c, f, m).degree == mt
        assert build_Phat(a, b, c, f, m).degree == mt
        for p in (1, 2, 3):
            assert build_T(b, p, f, m, variant="T").degree == p - 1
            assert build_T(b, p, f, m, variant="Tstar", a=a).degree == p - 1
        assert build_L(a, d, e, b, f, m, variant="L").degree == mt - 1
        assert build_L(a, d, e, b, f, m, variant="Lhat").degree == mt - 1
        assert w_poly(b, f, m).degree == mt - 1

    @pytest.mark.parametrize(
        "build",
        [
            partial(build_Q, 0.3, 2.7, route="eq5"),
            partial(build_Q, 0.3, 2.7, route="eq7"),
            partial(build_P, 0.3, 2.7),
            partial(build_Qhat, 0.2, 0.3, 2.7),
            partial(build_Phat, 0.2, 0.3, 2.7),
            partial(build_T, 0.3, 2),
            partial(build_T, 0.3, 2, variant="Tstar", a=0.2),
            partial(build_L, 0.2, 1.1, 3.3, 0.3),
            partial(build_L, 0.2, 1.1, 3.3, 0.3, variant="Lhat"),
            partial(w_poly, 0.3),
        ],
        ids=["Q-eq5", "Q-eq7", "P", "Qhat", "Phat", "T", "Tstar", "L", "Lhat", "W"],
    )
    def test_unequal_lengths_are_refused(self, build):
        # two f against one m: no builder may pair them by truncating
        with pytest.raises(LengthMismatchError):
            build([1.5, 0.7], [2])


class TestRoutesAtWorkingPrecision:
    """The paper's cross-checking routes agree at the working precision,
    engine only, at m_total 4 to 8: each relation holds within
    10^-(dps-4) normwise, with no raised precision."""

    SHAPES = [(4,), (2, 2), (5,), (3, 2), (6,), (2, 2, 2), (7,), (4, 3), (8,), (4, 4)]

    @staticmethod
    def _normwise(p1, p2):
        assert len(p1) == len(p2)
        return max(abs(x - y) for x, y in zip(p1, p2)) / max(abs(y) for y in p2)

    def _specs(self, seed):
        rng = _rng(seed)
        for shape in self.SHAPES:
            f, m = _sample(rng, shape)
            yield f, m, _rc(rng), _rc(rng), _rc(rng)

    def _tol(self):
        return mp.mpf(10) ** (4 - mp.mp.dps)

    def test_p_is_fm_times_q(self):
        for f, m, a, b, c in self._specs(907):
            fm = pochhammer_vec(f, m)
            q = [fm * z for z in build_Q(b, c, f, m).coeffs]
            assert self._normwise(build_P(b, c, f, m).coeffs, q) <= self._tol(), m

    def test_q_eq5_is_q_eq7(self):
        for f, m, a, b, c in self._specs(911):
            eq5, eq7 = build_Q(b, c, f, m), build_Q(b, c, f, m, route="eq7")
            assert self._normwise(eq7.coeffs, eq5.coeffs) <= self._tol(), m

    def test_qhat_is_phat(self):
        for f, m, a, b, c in self._specs(919):
            qhat, phat = build_Qhat(a, b, c, f, m), build_Phat(a, b, c, f, m)
            assert self._normwise(phat.coeffs, qhat.coeffs) <= self._tol(), m

    def test_splitting_a_pair_keeps_q(self):
        # (f_i + m_i; f_i) = prod_j (f_i + j + 1; f_i + j): the pair (f_i, m_i)
        # and the m_i unit pairs (f_i + j, 1) define the same function
        for f, m, a, b, c in self._specs(929):
            i = max(range(len(m)), key=lambda k: m[k])
            split_f = list(f[:i]) + [f[i] + j for j in range(m[i])] + list(f[i + 1:])
            split_m = list(m[:i]) + [1] * m[i] + list(m[i + 1:])
            for route in ("eq5", "eq7"):
                whole = build_Q(b, c, f, m, route=route)
                split = build_Q(b, c, split_f, split_m, route=route)
                assert self._normwise(split.coeffs, whole.coeffs) <= self._tol(), (m, route)


class TestPinned:
    def test_builds_are_pinned(self):
        # Every builder, genfunc_coeffs and find_roots on a few seeded specs,
        # hashed exactly (mantissa and exponent).  A change that alters a
        # build on purpose updates this digest and says so in CHANGES.md.
        digest = hashlib.sha256()
        feed = partial(_feed, digest)
        rng = _rng(281)
        for shape, p in [((1,), 1), ((2,), 2), ((3,), 3), ((2, 1), 2), ((1, 1, 1), 3)]:
            f, m = _sample(rng, shape)
            a, b, c, d, e = (_rc(rng) for _ in range(5))
            polys = [
                build_Q(b, c, f, m),
                build_Q(b, c, f, m, route="eq7"),
                build_P(b, c, f, m),
                build_Qhat(a, b, c, f, m),
                build_Phat(a, b, c, f, m),
                build_L(a, d, e, b, f, m, variant="L"),
                build_L(a, d, e, b, f, m, variant="Lhat"),
                build_T(b, p, f, m, variant="T"),
                build_T(b, p, f, m, variant="Tstar", a=a),
                w_poly(b, f, m),
            ]
            for poly in polys:
                feed(poly.coeffs)
                roots = find_roots(poly)
                flags = [as_nonpositive_integer(r, mp.mpf("1e-6")) is not None for r in roots.roots]
                feed([list(roots.roots), roots.residual, flags])
            feed(genfunc_coeffs(f, m))
            feed(genfunc_coeffs(f, m, shift=b, sign=-1))
        assert digest.hexdigest() == _PINNED_BUILDS


#: SHA-256 of the builds in test_builds_are_pinned at 40 digits.
_PINNED_BUILDS = "b80e8b6077b0a01d50c71e908d7b17085b679454bc7fd5cda5f1ff1c5345db48"
