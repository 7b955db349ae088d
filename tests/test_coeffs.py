import math
import random

import mpmath as mp
import pytest

from ipdhyp.coeffs import (
    CoeffFamilies,
    IpdSpec,
    NorlundArgs,
    coeff_C,
    coeff_D,
    coeff_Y,
    norlund_g,
    w_poly_coeffs,
)
from ipdhyp.errors import (
    DegenerateCaseError,
    DenominatorPoleError,
    IndexOutOfRangeError,
    LengthMismatchError,
    UnsupportedPError,
)
from ipdhyp.kernel import (
    IntVector,
    ParamVector,
    cplx,
    pochhammer,
    pochhammer_vec,
    terminating_pfq,
)

M_SHAPES = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1)]


def _rng(seed=101):
    return random.Random(seed)


def _rc(rng):
    return cplx(mp.mpf(rng.uniform(-2, 3)), mp.mpf(rng.uniform(-1, 1)))


def _sample(rng, shape):
    m = IntVector(shape)
    f = ParamVector([_rc(rng) for _ in shape])
    return f, m


class TestCoeffC:
    def test_k0_is_one(self):
        rng = _rng()
        f, m = _sample(rng, (2, 1))
        assert coeff_C(0, f, m) == 1

    def test_km_is_inverse_pochhammer(self):
        rng = _rng(7)
        for shape in M_SHAPES:
            f, m = _sample(rng, shape)
            got = coeff_C(m.total, f, m)
            expect = 1 / pochhammer_vec(f, m)
            assert abs(got - expect) < mp.mpf("1e-35") * max(1, abs(expect))

    def test_single_pair_k1(self):
        f1 = cplx(1.8, 0.6)
        got = coeff_C(1, [f1], [1])
        # terminating sum is 1 - (f1+1)/f1; the coefficient negates it
        assert abs(got - 1 / f1) < mp.mpf("1e-36")

    def test_routes_agree(self):
        rng = _rng(13)
        for _ in range(8):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            for k in range(m.total + 1):
                hyp = coeff_C(k, f, m, route="hyp")
                stirling = coeff_C(k, f, m, route="stirling")
                assert abs(hyp - stirling) <= mp.mpf("1e-32") * max(1, abs(hyp))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            coeff_C(4, [cplx(1.5)], [2])

    def test_zero_denominator(self):
        with pytest.raises(DegenerateCaseError):
            coeff_C(1, [0], [1], route="stirling")


def _diff_oracle_D(k, f, m, b):
    """Forward-difference oracle: D_k = Delta^k (f-b-t)_m |_{t=0} / k!."""
    total = mp.mpc(0)
    for j in range(k + 1):
        total += (
            (-1) ** (k - j)
            * mp.binomial(k, j)
            * pochhammer_vec([fi - b - j for fi in f], m)
        )
    return total / mp.factorial(k)


class TestCoeffD:
    def test_k0(self):
        rng = _rng(3)
        f, m = _sample(rng, (2, 1))
        b = _rc(rng)
        expect = pochhammer_vec([fi - b for fi in f], m)
        assert abs(coeff_D(0, f, m, b) - expect) < mp.mpf("1e-34") * max(1, abs(expect))

    def test_difference_oracle_generic_b(self):
        rng = _rng(17)
        for _ in range(6):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            b = _rc(rng)
            for k in range(m.total + 1):
                got = coeff_D(k, f, m, b)
                expect = _diff_oracle_D(k, f, m, b)
                assert abs(got - expect) <= mp.mpf("1e-32") * max(1, abs(expect))

    def test_difference_oracle_b_zero(self):
        rng = _rng(19)
        f, m = _sample(rng, (2, 1))
        for k in range(m.total + 1):
            got = coeff_D(k, f, m, 0)
            expect = _diff_oracle_D(k, f, m, mp.mpc(0))
            assert abs(got - expect) <= mp.mpf("1e-33") * max(1, abs(expect))

    def test_single_pair_k1_is_minus_one(self):
        got = coeff_D(1, [cplx(1.5, 0.2)], [1], cplx(0.4, -0.1))
        assert abs(got + 1) < mp.mpf("1e-36")

    def test_routes_agree(self):
        rng = _rng(23)
        for _ in range(8):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            b = _rc(rng)
            for k in range(m.total + 1):
                hyp = coeff_D(k, f, m, b, route="hyp")
                stirling = coeff_D(k, f, m, b, route="stirling")
                assert abs(hyp - stirling) <= mp.mpf("1e-32") * max(1, abs(hyp))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            coeff_D(-1, [cplx(1.5)], [1], 0.3)


class TestWPoly:
    def test_free_term(self):
        rng = _rng(29)
        f, m = _sample(rng, (2, 1))
        b = _rc(rng)
        delta = w_poly_coeffs(b, f, m)
        fm = pochhammer_vec(f, m)
        fbm = pochhammer_vec([fi - b for fi in f], m)
        assert abs(delta[0] - (fm - fbm) / fm) < mp.mpf("1e-33")

    def test_leading_coefficient(self):
        rng = _rng(31)
        f, m = _sample(rng, (1, 1, 1))
        b = _rc(rng)
        delta = w_poly_coeffs(b, f, m)
        assert len(delta) == m.total
        assert abs(delta[-1] - b / pochhammer_vec(f, m)) < mp.mpf("1e-33")

    def test_single_pair_constant(self):
        f1 = cplx(1.4, 0.2)
        b = cplx(0.45, 0.1)
        delta = w_poly_coeffs(b, [f1], [1])
        assert len(delta) == 1
        assert abs(delta[0] - b / f1) < mp.mpf("1e-36")

    def test_b_zero_flagged(self):
        with pytest.raises(DegenerateCaseError):
            w_poly_coeffs(0, [cplx(1.5)], [2])

    def test_zero_denominator(self):
        with pytest.raises(DegenerateCaseError):
            w_poly_coeffs(0.3, [0], [1])

    def test_empty_m_is_a_usage_error(self):
        with pytest.raises(ValueError):
            w_poly_coeffs(0.3, [], [])

    def test_matches_rational_form_at_integers(self):
        # W(n) = b((f+n)_m - (f-b)_m) / ((b+n)(f)_m) pointwise
        rng = _rng(37)
        f, m = _sample(rng, (2, 1))
        b = _rc(rng)
        delta = w_poly_coeffs(b, f, m)
        fm = pochhammer_vec(f, m)
        fbm = pochhammer_vec([fi - b for fi in f], m)
        for n in range(m.total + 2):
            direct = b * (pochhammer_vec([fi + n for fi in f], m) - fbm) / ((b + n) * fm)
            horner = mp.mpc(0)
            for c in reversed(delta):
                horner = horner * n + c
            assert abs(direct - horner) <= mp.mpf("1e-32") * max(1, abs(direct))


class TestCoeffY:
    def test_single_pair_value(self):
        f1 = cplx(1.6, -0.3)
        b = cplx(0.5, 0.2)
        got = coeff_Y(0, b, [f1], [1])
        assert abs(got - b / f1) < mp.mpf("1e-35")

    def test_three_routes_agree(self):
        rng = _rng(41)
        for _ in range(6):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            b = _rc(rng)
            for l in range(m.total):
                routes = [coeff_Y(l, b, f, m, route=r) for r in ("hyp", "stirling", "norlund")]
                scale = max(1, abs(routes[0]))
                assert abs(routes[0] - routes[1]) <= mp.mpf("1e-32") * scale
                assert abs(routes[0] - routes[2]) <= mp.mpf("1e-32") * scale

    def test_stirling_inversion_reproduces_w(self):
        # sum_l Y_l * falling(n, l) = W(n) at n = 0..m-1
        rng = _rng(43)
        f, m = _sample(rng, (2, 1))
        b = _rc(rng)
        delta = w_poly_coeffs(b, f, m)
        for n in range(m.total):
            w_at_n = mp.mpc(0)
            for c in reversed(delta):
                w_at_n = w_at_n * n + c
            total = mp.mpc(0)
            for l in range(m.total):
                total += coeff_Y(l, b, f, m) * math.perm(n, l)
            assert abs(total - w_at_n) <= mp.mpf("1e-32") * max(1, abs(w_at_n))

    def test_karlsson_consistency_l0(self):
        rng = _rng(47)
        f, m = _sample(rng, (2, 1))
        b = _rc(rng)
        got = coeff_Y(0, b, f, m, route="hyp")
        expect = 1 - pochhammer_vec([fi - b for fi in f], m) / pochhammer_vec(f, m)
        assert abs(got - expect) < mp.mpf("1e-33") * max(1, abs(expect))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            coeff_Y(2, 0.3, [cplx(1.5)], [2])


class TestRouteAgreementSweep:
    def test_fifty_samples_all_families(self):
        # every multi-route family, 50 seeded draws, tolerance 1e-32 at the
        # default 40-digit context
        rng = _rng(977)
        tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
        for _ in range(50):
            shape = rng.choice(M_SHAPES)
            f, m = _sample(rng, shape)
            b = _rc(rng)
            if any(abs(fi + j) < mp.mpf("1e-2") for fi in f for j in range(m.total + 1)):
                continue
            k = rng.randint(0, m.total)
            c_hyp = coeff_C(k, f, m, route="hyp")
            c_st = coeff_C(k, f, m, route="stirling")
            assert abs(c_hyp - c_st) <= tol * max(1, abs(c_hyp))
            d_hyp = coeff_D(k, f, m, b, route="hyp")
            d_st = coeff_D(k, f, m, b, route="stirling")
            assert abs(d_hyp - d_st) <= tol * max(1, abs(d_hyp))
            l = rng.randint(0, m.total - 1)
            y_routes = [coeff_Y(l, b, f, m, route=r) for r in ("hyp", "stirling", "norlund")]
            scale = max(1, abs(y_routes[0]))
            assert abs(y_routes[0] - y_routes[1]) <= tol * scale
            assert abs(y_routes[0] - y_routes[2]) <= tol * scale


class TestNorlundG:
    def _args(self, rng, p):
        return NorlundArgs(
            ParamVector([_rc(rng) for _ in range(p - 1)]),
            ParamVector([_rc(rng) for _ in range(p)]),
        )

    def test_g0_is_one(self):
        rng = _rng(53)
        for p in (1, 2, 3, 4, 5):
            args = self._args(rng, p)
            assert norlund_g(0, args) == 1

    def test_p1_initial_values(self):
        args = NorlundArgs(ParamVector([]), ParamVector([cplx(0.7, 0.2)]))
        assert norlund_g(0, args) == 1
        for n in (1, 2, 5):
            assert norlund_g(n, args) == 0

    def test_p2_closed_form(self):
        rng = _rng(59)
        args = self._args(rng, 2)
        a0, (b0, b1) = args.a[0], (args.b[0], args.b[1])
        for n in range(7):
            expect = pochhammer(b0 - a0, n) * pochhammer(b1 - a0, n) / mp.factorial(n)
            for route in ("recurrence", "explicit", "closed"):
                got = norlund_g(n, args, route=route)
                assert abs(got - expect) <= mp.mpf("1e-33") * max(1, abs(expect))

    def test_g1_closed_form(self):
        rng = _rng(61)
        for p in (2, 3, 4, 5):
            args = self._args(rng, p)
            psi = [
                sum(args.b[: i + 1], mp.mpc(0))
                - sum(args.a[: i + 1], mp.mpc(0))
                for i in range(p - 1)
            ]
            expect = sum(
                (args.b[i + 1] - args.a[i]) * psi[i] for i in range(p - 1)
            )
            got = norlund_g(1, args)
            assert abs(got - expect) <= mp.mpf("1e-33") * max(1, abs(expect))

    def test_g2_closed_form(self):
        rng = _rng(67)
        p = 4
        args = self._args(rng, p)
        psi = [
            sum(args.b[: i + 1], mp.mpc(0))
            - sum(args.a[: i + 1], mp.mpc(0))
            for i in range(p - 1)
        ]
        diff = [args.b[i + 1] - args.a[i] for i in range(p - 1)]
        expect = sum(
            pochhammer(diff[i], 2) * pochhammer(psi[i], 2) for i in range(p - 1)
        ) / 2 + sum(
            diff[k] * (psi[k] + 1) * sum(diff[i] * psi[i] for i in range(k))
            for k in range(1, p - 1)
        )
        got = norlund_g(2, args)
        assert abs(got - expect) <= mp.mpf("1e-33") * max(1, abs(expect))

    def test_triple_route_agreement(self):
        rng = _rng(71)
        for p in (2, 3, 4):
            args = self._args(rng, p)
            for n in range(7):
                vals = [
                    norlund_g(n, args, route=r)
                    for r in ("recurrence", "explicit", "closed")
                ]
                scale = max(1, abs(vals[0]))
                assert abs(vals[0] - vals[1]) <= mp.mpf("1e-32") * scale
                assert abs(vals[0] - vals[2]) <= mp.mpf("1e-32") * scale

    def test_recurrence_explicit_agree_p5(self):
        rng = _rng(73)
        args = self._args(rng, 5)
        for n in range(5):
            rec = norlund_g(n, args, route="recurrence")
            exp = norlund_g(n, args, route="explicit")
            assert abs(rec - exp) <= mp.mpf("1e-32") * max(1, abs(rec))

    def test_shift_invariance(self):
        rng = _rng(79)
        for p in (2, 3, 4):
            args = self._args(rng, p)
            alpha = _rc(rng)
            for n in range(5):
                base = norlund_g(n, args)
                shifted = norlund_g(n, args.shifted(alpha))
                assert abs(base - shifted) <= mp.mpf("1e-31") * max(1, abs(base))

    def test_b_permutation_symmetry_p3(self):
        rng = _rng(83)
        args = self._args(rng, 3)
        b = args.b
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = NorlundArgs(args.a, ParamVector([b[i] for i in perm]))
            for n in range(5):
                base = norlund_g(n, args, route="closed")
                got = norlund_g(n, permuted, route="closed")
                assert abs(base - got) <= mp.mpf("1e-31") * max(1, abs(base))

    def test_a_permutation_symmetry(self):
        rng = _rng(89)
        args = self._args(rng, 4)
        swapped = NorlundArgs(
            ParamVector([args.a[1], args.a[0], args.a[2]]), args.b
        )
        for n in range(5):
            base = norlund_g(n, args, route="explicit")
            got = norlund_g(n, swapped, route="explicit")
            assert abs(base - got) <= mp.mpf("1e-31") * max(1, abs(base))

    def test_closed_form_rejects_large_p(self):
        rng = _rng(97)
        args = self._args(rng, 5)
        with pytest.raises(UnsupportedPError):
            norlund_g(2, args, route="closed")

    def test_negative_n_rejected(self):
        rng = _rng(101)
        with pytest.raises(IndexOutOfRangeError):
            norlund_g(-1, self._args(rng, 2))


class TestSpecTypes:
    def test_ipd_spec_validates_lengths(self):
        with pytest.raises(LengthMismatchError):
            IpdSpec(b=0.3, f=[1.0, 2.0], m=[1], a=0.7)

    def test_ipd_spec_m_total(self):
        spec = IpdSpec(b=0.3, f=[1.0, 2.0], m=[2, 1], a=0.7)
        assert spec.m_total == 3

    def test_ipd_spec_requires_a(self):
        with pytest.raises(TypeError):
            IpdSpec(b=0.3, f=[1.0], m=[1])

    def test_norlund_args_validates_lengths(self):
        with pytest.raises(LengthMismatchError):
            NorlundArgs(ParamVector([1]), ParamVector([1]))


FAMILY_SHAPES = [(1,), (2,), (3,), (4,), (5,), (6,), (3, 3), (2, 2, 2), (8,), (4, 4)]


def _bits(z):
    return (z.real._mpf_, z.imag._mpf_)


class TestCoeffFamilies:
    def test_vectors_match_the_other_routes(self):
        rng = _rng(613)
        tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
        for shape in FAMILY_SHAPES:
            for _ in range(3):
                f, m = _sample(rng, shape)
                b = _rc(rng)
                fam = CoeffFamilies(f, m)
                cs, ds, ys = fam.C(), fam.D(b), fam.Y(b)
                assert (len(cs), len(ds), len(ys)) == (m.total + 1, m.total + 1, m.total)
                for k in range(m.total + 1):
                    assert abs(cs[k] - coeff_C(k, f, m, "stirling")) <= tol * max(1, abs(cs[k]))
                    assert abs(ds[k] - coeff_D(k, f, m, b, "stirling")) <= tol * max(1, abs(ds[k]))
                for l in range(m.total):
                    for route in ("stirling", "norlund"):
                        other = coeff_Y(l, b, f, m, route)
                        assert abs(ys[l] - other) <= tol * max(1, abs(ys[l]))

    def test_single_coefficients_are_vector_entries_bit_for_bit(self):
        rng = _rng(617)
        for shape in FAMILY_SHAPES:
            f, m = _sample(rng, shape)
            b = _rc(rng)
            fam = CoeffFamilies(f, m)
            cs, ds, ys = fam.C(), fam.D(b), fam.Y(b)
            assert [_bits(coeff_C(k, f, m)) for k in range(m.total + 1)] == list(map(_bits, cs))
            assert [_bits(coeff_D(k, f, m, b)) for k in range(m.total + 1)] == list(map(_bits, ds))
            assert [_bits(coeff_Y(l, b, f, m)) for l in range(m.total)] == list(map(_bits, ys))

    def test_y_shares_the_term_sequence_of_c(self):
        rng = _rng(619)
        f, m = _sample(rng, (2, 1))
        fam = CoeffFamilies(f, m)
        fam._C(m.total)
        sigma = fam._sigma
        assert len(sigma) == m.total + 1
        fam._Y(_rc(rng), m.total - 1)
        fam._Y(_rc(rng), m.total - 1)
        assert fam._sigma is sigma

    def test_y_at_b_zero_vanishes(self):
        # W(n) = 0 at b = 0, so every Y_l vanishes; no term divides by b
        rng = _rng(631)
        tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
        for shape in FAMILY_SHAPES:
            f, m = _sample(rng, shape)
            ys = CoeffFamilies(f, m).Y(0)
            assert len(ys) == m.total
            assert all(abs(y) <= tol for y in ys)
            assert list(map(_bits, ys)) == [_bits(coeff_Y(l, 0, f, m)) for l in range(m.total)]
            norlund = [coeff_Y(l, 0, f, m, "norlund") for l in range(m.total)]
            assert all(abs(y) <= tol for y in norlund)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_y_raises_exactly_where_terminating_pfq_does(self, n):
        # b = -n: the bottom parameter b+1 of Y's series poles at term n
        f, m = ParamVector([cplx(1.3, 0.4), cplx(-0.7, 0.9)]), IntVector((3, 2))
        b = mp.mpc(-n)
        for l in range(m.total):
            num = [b] + list(f.shifted_by(m)) + [mp.mpc(-l)]
            try:
                terminating_pfq(num, [b + 1] + list(f), l)
            except DenominatorPoleError:
                with pytest.raises(DenominatorPoleError):
                    coeff_Y(l, b, f, m)
                with pytest.raises(DenominatorPoleError):
                    CoeffFamilies(f, m).Y(b, l)
            else:
                assert _bits(coeff_Y(l, b, f, m)) == _bits(CoeffFamilies(f, m).Y(b, l)[l])
        if n < m.total:
            with pytest.raises(DenominatorPoleError):
                CoeffFamilies(f, m).Y(b)
        else:
            assert len(CoeffFamilies(f, m).Y(b)) == m.total

    def test_c_raises_exactly_where_terminating_pfq_does(self):
        # f_1 = -2 with m_1 = 1 keeps (f)_m nonzero and poles term 3
        f, m = ParamVector([mp.mpc(-2), cplx(0.6, 0.2)]), IntVector((1, 4))
        for k in range(m.total + 1):
            try:
                terminating_pfq(list(f.shifted_by(m)) + [mp.mpc(-k)], list(f), k)
            except DenominatorPoleError:
                with pytest.raises(DenominatorPoleError):
                    coeff_C(k, f, m)
            else:
                assert k <= 2
                coeff_C(k, f, m)
        with pytest.raises(DenominatorPoleError):
            CoeffFamilies(f, m).C()

    def test_index_out_of_range(self):
        fam = CoeffFamilies([cplx(1.5)], [2])
        with pytest.raises(IndexOutOfRangeError):
            fam.C(3)
        with pytest.raises(IndexOutOfRangeError):
            fam.D(0.3, -1)
        with pytest.raises(IndexOutOfRangeError):
            fam.Y(0.3, 2)

    def test_empty_m_has_no_y(self):
        assert CoeffFamilies([], []).Y(cplx(0.3)) == []
