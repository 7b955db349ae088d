import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdhyp.errors import (
    DegenerateCaseError,
    DenominatorPoleError,
    IpdHypError,
    LengthMismatchError,
    PoleAtNonpositiveIntegerError,
)
from ipdhyp import charpoly, kernel
from ipdhyp.coeffs import (
    IpdSpec,
    c_coeffs,
    coeff_C,
    coeff_D,
    coeff_Y,
    d_coeffs,
    fm_coeffs,
    w_poly_coeffs,
    y_coeffs,
)
from ipdhyp.hypeval import HypFunction
from ipdhyp.kernel import (
    Fixed,
    IntVector,
    ParamVector,
    as_nonpositive_integer,
    cplx,
    fixed_width,
    from_fixed_pair,
    gamma,
    genfunc_coeffs,
    get_precision,
    nonzero,
    hyp_terms,
    pochhammer,
    pochhammer_vec,
    rising,
    run_fixed,
    set_precision,
    stirling2,
    terminating_family,
    terminating_pfq,
    to_fixed_pair,
)

COMPLEX_BOX = st.builds(
    complex,
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)


class TestPrecisionContext:
    def test_default_is_40(self):
        assert get_precision() == 40

    def test_set_and_get(self):
        set_precision(60)
        assert get_precision() == 60

    def test_floor_at_16(self):
        with pytest.raises(ValueError):
            set_precision(12)

    @pytest.mark.parametrize("digits", [40.7, mp.mpf("60.5"), True, "50.5"])
    def test_rejects_what_is_not_a_whole_number(self, digits):
        with pytest.raises(ValueError, match="whole number"):
            set_precision(digits)
        assert get_precision() == 40

    def test_accepts_a_whole_float(self):
        set_precision(60.0)
        assert get_precision() == 60

    def test_division_by_exact_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            cplx(1) / cplx(0)


class TestPochhammer:
    def test_empty_product_is_one(self):
        assert pochhammer(cplx(2.7, -1.3), 0) == 1
        assert pochhammer(0, 0) == 1

    def test_2_rising_3(self):
        assert pochhammer(2, 3) == 24

    def test_half_rising_2(self):
        assert abs(pochhammer(0.5, 2) - mp.mpf("0.75")) < mp.mpf("1e-38")

    def test_zero_base(self):
        assert pochhammer(0, 3) == 0
        assert pochhammer(-2, 5) == 0

    @settings(max_examples=30, deadline=None)
    @given(a=COMPLEX_BOX, n=st.integers(0, 10), k=st.integers(0, 10))
    def test_addition_law(self, a, n, k):
        a = cplx(a)
        whole = pochhammer(a, n + k)
        split = pochhammer(a, n) * pochhammer(a + n, k)
        assert abs(whole - split) <= mp.mpf("1e-30") * max(1, abs(whole))


class TestRising:
    @settings(max_examples=40, deadline=None)
    @given(a=COMPLEX_BOX, n=st.integers(0, 14))
    def test_entries_are_pochhammer_bit_for_bit(self, a, n):
        run = rising(a, n)
        assert len(run) == n + 1
        for k, value in enumerate(run):
            assert value.real._mpf_ == pochhammer(a, k).real._mpf_
            assert value.imag._mpf_ == pochhammer(a, k).imag._mpf_

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rising(1, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            pochhammer(1, -1)


def _terminating_reference(num, den, terms):
    """terminating_pfq as one product loop: the bit-level reference."""
    nums, dens = [cplx(u) for u in num], [cplx(v) for v in den]
    total = term = mp.mpc(1)
    for n in range(terms):
        for u in nums:
            term *= u + n
        for v in dens:
            d = v + n
            if d == 0:
                raise DenominatorPoleError(f"bottom parameter {v} hits a pole at term {n + 1}")
            term /= d
        term /= n + 1
        total += term
    return total


def _bits(z):
    return (z.real._mpf_, z.imag._mpf_)


class TestTerminatingFamily:
    @settings(max_examples=30, deadline=None)
    @given(
        num=st.lists(COMPLEX_BOX, min_size=0, max_size=3),
        den=st.lists(COMPLEX_BOX, min_size=0, max_size=3),
        kmax=st.integers(0, 12),
    )
    def test_each_entry_matches_terminating_pfq(self, num, den, kmax):
        try:
            family = terminating_family(num, den, kmax)
        except DenominatorPoleError:
            with pytest.raises(DenominatorPoleError):
                terminating_pfq(num + [-kmax], den, kmax)
            return
        tol = mp.mpf(10) ** (-(mp.mp.dps - 8))
        for k, value in enumerate(family):
            single = terminating_pfq(num + [-k], den, k)
            # both sum the same terms; scale by the largest one summed
            scale = max(abs(t) * math.perm(k, n) for n, t in enumerate(hyp_terms(num, den, k)))
            assert abs(value - single) <= tol * max(1, scale)

    def test_terminating_pfq_keeps_its_bits(self):
        rng = random.Random(331)
        for _ in range(40):
            num = [cplx(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(rng.randint(0, 3))]
            den = [cplx(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(rng.randint(0, 3))]
            k = rng.randint(0, 12)
            got = terminating_pfq(num + [-k], den, k)
            assert _bits(got) == _bits(_terminating_reference(num + [-k], den, k))

    @pytest.mark.parametrize("pole", [0, -1, -3, -5])
    @pytest.mark.parametrize("kmax", [0, 1, 3, 5, 6])
    def test_raises_exactly_where_terminating_pfq_does(self, pole, kmax):
        num, den = [cplx(0.3, 0.2)], [cplx(1.7, -0.4), mp.mpc(pole)]
        try:
            terminating_pfq(num + [-kmax], den, kmax)
        except DenominatorPoleError:
            with pytest.raises(DenominatorPoleError):
                terminating_family(num, den, kmax)
        else:
            assert len(terminating_family(num, den, kmax)) == kmax + 1

    def test_closed_form_chu_vandermonde(self):
        # 2F1(-k, a; c | 1) = (c-a)_k / (c)_k
        a, c = cplx(0.7, 0.3), cplx(2.4, -0.5)
        for k, value in enumerate(terminating_family([a], [c], 10)):
            expect = pochhammer(c - a, k) / pochhammer(c, k)
            assert abs(value - expect) <= mp.mpf("1e-34") * max(1, abs(expect))

    def test_entries_do_not_depend_on_the_length(self):
        num, den = [cplx(1.2, 0.4), cplx(-0.6, 1.1)], [cplx(0.8, -0.3)]
        long = terminating_family(num, den, 9)
        for kmax in range(10):
            short = terminating_family(num, den, kmax)
            assert [_bits(z) for z in short] == [_bits(z) for z in long[: kmax + 1]]


class TestPochhammerVec:
    def test_zero_multiplicity(self):
        # multiplicities are positive: a raw 0 is rejected as IntVector([0]) is
        with pytest.raises(ValueError):
            pochhammer_vec([cplx(2.3, 0.4)], [0])

    def test_simple_product(self):
        assert pochhammer_vec([1, 2], [1, 1]) == 2

    def test_vanishing_factor(self):
        assert pochhammer_vec([0, 3], [2, 1]) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pochhammer_vec([1, 2], [1])


class TestNonzero:
    def test_returns_the_value_it_checked(self):
        value = cplx(0, 1e-300)
        assert nonzero(value, "b") is value

    def test_exact_zero_raises_with_its_name(self):
        with pytest.raises(DegenerateCaseError, match=r"^\(f\)_m = 0$"):
            nonzero(pochhammer(-1, 2), "(f)_m")


class TestGamma:
    def test_poles(self):
        for z in (0, -1, -7):
            with pytest.raises(PoleAtNonpositiveIntegerError):
                gamma(z)


class TestPolePredicate:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_at_tol_zero(self, data):
        prec = mp.mp.prec
        n = data.draw(st.integers(0, 2 ** (prec + 2)))
        z = cplx(-n)  # -n itself up to 2^prec, an integer rounded from it beyond
        assert as_nonpositive_integer(z) == int(z.real)
        assert n > 2**prec or int(z.real) == -n
        assert as_nonpositive_integer(cplx(n + 1)) is None
        h = data.draw(st.integers(-(2 ** (prec - 2)), 2 ** (prec - 2)))
        assert as_nonpositive_integer(cplx(mp.mpf(2 * h + 1) / 2)) is None
        im = data.draw(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
        assert as_nonpositive_integer(cplx(-n, im)) is None

    @pytest.mark.parametrize(
        "z, expect",
        [(cplx("-2.0004", "0.0002"), -2), (cplx("0.0004"), 0), (cplx("0.6"), None),
         (cplx(-2, "0.0011"), None)],
    )
    def test_within_tol(self, z, expect):
        assert as_nonpositive_integer(z, mp.mpf("1e-3")) == expect

    def test_beyond_the_rounding_of_re_plus_half(self):
        # floor(re + 1/2) rounds -(2^135 + 1) + 1/2 to -2^135 at 40 digits
        n = 2**135 + 1
        for tol in (0, mp.mpf("1e-3")):
            assert as_nonpositive_integer(cplx(-n), tol) == -n


def _partitions_into_k_blocks(n, k):
    """Brute-force count of set partitions of {0..n-1} into k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    # assignments of elements to block labels 0..k-1, surjective, with
    # canonical labeling (first occurrence order) to kill label symmetry
    def recurse(i, used, assignment):
        nonlocal count
        if i == n:
            if used == k:
                count += 1
            return
        for label in range(min(used + 1, k)):
            recurse(i + 1, max(used, label + 1), assignment + [label])

    recurse(0, 0, [])
    return count


class TestStirling2:
    def test_base(self):
        assert stirling2(0, 0) == 1

    def test_single_block(self):
        for j in range(1, 9):
            assert stirling2(j, 1) == 1

    def test_4_2_against_enumeration(self):
        assert _partitions_into_k_blocks(4, 2) == 7
        assert stirling2(4, 2) == 7

    def test_matches_enumeration_small(self):
        for j in range(7):
            for k in range(j + 2):
                assert stirling2(j, k) == _partitions_into_k_blocks(j, k)

    def test_out_of_range(self):
        assert stirling2(3, 5) == 0
        assert stirling2(0, 1) == 0

    def test_falling_factorial_identity_exact(self):
        # sum_k S(j,k) n(n-1)...(n-k+1) = n^j, exactly in integers
        for j in range(9):
            for n in range(9):
                total = 0
                for k in range(j + 1):
                    falling = 1
                    for i in range(k):
                        falling *= n - i
                    total += stirling2(j, k) * falling
                assert total == n**j

    def test_matches_triangular_recurrence(self):
        # reference: S(j, k) = k S(j-1, k) + S(j-1, k-1), row by row
        row = [1]
        for j in range(61):
            assert [stirling2(j, k) for k in range(j + 2)] == row + [0]
            row = [1 if k == j + 1 else k * row[k] + (row[k - 1] if k else 0) for k in range(j + 2)]


class TestGenfuncCoeffs:
    def test_single_linear(self):
        f1 = cplx(1.7, 0.4)
        coeffs = genfunc_coeffs([f1], [1])
        assert len(coeffs) == 2
        assert coeffs[0] == f1 and coeffs[1] == 1

    def test_single_quadratic(self):
        f1 = cplx(1.7, 0.4)
        coeffs = genfunc_coeffs([f1], [2])
        expect = [f1 * (f1 + 1), 2 * f1 + 1, cplx(1)]
        assert all(abs(c - e) < mp.mpf("1e-36") for c, e in zip(coeffs, expect))

    def test_alpha_mode_with_zero_shift_alternates(self):
        f = [cplx(1.2, 0.3), cplx(-0.4, 0.8)]
        m = [2, 1]
        sigma = genfunc_coeffs(f, m)
        alpha = genfunc_coeffs(f, m, shift=0, sign=-1)
        for j, (s, al) in enumerate(zip(sigma, alpha)):
            assert abs(al - (-1) ** j * s) < mp.mpf("1e-36")

    @settings(max_examples=20, deadline=None)
    @given(
        fs=st.lists(COMPLEX_BOX, min_size=1, max_size=3),
        ms=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    )
    def test_constant_term_is_vector_pochhammer(self, fs, ms):
        n = min(len(fs), len(ms))
        f, m = fs[:n], ms[:n]
        coeffs = genfunc_coeffs(f, m)
        assert len(coeffs) == sum(m) + 1
        expect = pochhammer_vec(f, m)
        assert abs(coeffs[0] - expect) <= mp.mpf("1e-30") * max(1, abs(expect))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            genfunc_coeffs([1, 2], [1])


class TestVectors:
    def test_int_vector_rejects_nonpositive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="multiplicities must be >= 1"):
                IntVector([1, bad])

    @pytest.mark.parametrize("bad", [2.7, 1.5, True, "2", Fraction(3, 2)])
    def test_int_vector_refuses_what_would_truncate(self, bad):
        # int() would have made 2.7 a multiplicity of 2 and True one of 1
        with pytest.raises(ValueError, match="must be an integer"):
            IntVector([1, bad])
        with pytest.raises(ValueError, match="must be an integer"):
            IpdSpec(b=cplx(0.4), f=[cplx(1.5)], m=[bad], a=cplx(0.3))

    def test_int_vector_accepts_integral_floats(self):
        assert IntVector([2.0, 1]) == (2, 1)
        assert all(type(e) is int for e in IntVector([2.0, 1]))

    def test_int_vector_total(self):
        assert IntVector([2, 1, 3]).total == 6
        assert IntVector([]).total == 0

    def test_constructors_return_their_own_type_unchanged(self):
        pv, iv = ParamVector([1, cplx(2, 1)]), IntVector([2, 1])
        assert ParamVector(pv) is pv
        assert IntVector(iv) is iv

    def test_vectors_are_value_tuples(self):
        pv = ParamVector([1, cplx(2, 1)])
        same = ParamVector([cplx(1), complex(2, 1)])
        assert pv == same and hash(pv) == hash(same)
        assert pv != ParamVector([1, cplx(2, -1)])
        assert IntVector((2, 1)) == (2, 1) and hash(IntVector((2, 1))) == hash((2, 1))
        assert isinstance(pv, tuple) and pv[1] == cplx(2, 1)

    def test_hyp_function_compares_by_value(self):
        first = HypFunction([1, cplx(0.5, 0.25)], [2])
        second = HypFunction([cplx(1), cplx(0.5, 0.25)], [2])
        assert first == second and hash(first) == hash(second)
        assert first != HypFunction([1, cplx(0.5, 0.25)], [3])

    def test_param_vector_shift_preserves_length(self):
        pv = ParamVector([1, cplx(2, 1)])
        shifted = pv + cplx(0.5)
        assert len(shifted) == 2
        assert shifted[0] == cplx(1.5)

    def test_param_vector_negation(self):
        pv = -ParamVector([cplx(1, -2)])
        assert pv[0] == cplx(-1, 2)

    def test_shifted_by_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ParamVector([1, 2]).shifted_by(IntVector([1]))

def _prec_bit(rng, scale=0):
    """A random mpc of modulus up to about 2^(scale+2) whose parts carry
    prec-bit mantissas."""
    prec = mp.mp.prec

    def part():
        return mp.ldexp(mp.mpf(rng.getrandbits(prec + 2) - 2 ** (prec + 1)), scale - prec)

    return mp.mpc(part(), part())


def _fixed(zs):
    """zs converted in at one width, as run_fixed converts them."""
    w = fixed_width(zs, mp.mp.prec)
    return [Fixed(*to_fixed_pair(z, w), w) for z in zs], w


def _exact(x: Fixed):
    """The value of x as a pair of Fractions."""
    return Fraction(x.re, 2**x.w), Fraction(x.im, 2**x.w)


def _exact_mpc(z):
    parts = []
    for sign, man, exp, _ in (z.real._mpf_, z.imag._mpf_):
        parts.append(Fraction((-1) ** sign * man) * Fraction(2) ** exp)
    return tuple(parts)


def _exact_mul(x, y):
    (ar, ai), (br, bi) = x, y
    return ar * br - ai * bi, ar * bi + ai * br


def _exact_div(x, y):
    (ar, ai), (br, bi) = x, y
    norm = br * br + bi * bi
    return (ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm


class TestFixed:
    SCALES = (0, 5, -40, -150, 60)

    def test_width_is_twice_prec_plus_what_the_inputs_need(self):
        prec = mp.mp.prec
        assert fixed_width([cplx(0.3, 0.1), cplx(2)], prec) == prec + max(prec, 54)
        assert fixed_width([cplx(1), cplx(0)], prec) == 2 * prec
        tiny = mp.mpc(mp.ldexp(1, -400))
        assert fixed_width([cplx(0.5), tiny], prec) == prec + 400

    def test_conversion_in_is_exact(self):
        rng = random.Random(701)
        for scale in self.SCALES:
            for _ in range(20):
                z = _prec_bit(rng, scale)
                (x,), _ = _fixed([z])
                assert _exact(x) == _exact_mpc(z)

    def test_conversion_out_is_correctly_rounded(self):
        rng = random.Random(709)
        prec = mp.mp.prec
        for _ in range(200):
            w = rng.randint(2 * prec, 3 * prec)
            re, im = rng.getrandbits(w + 20) - 2 ** (w + 19), rng.getrandbits(w // 2)
            z = from_fixed_pair(re, im, w, prec)
            for part, exact in zip(_exact_mpc(z), (Fraction(re, 2**w), Fraction(im, 2**w))):
                # round to nearest: within half a unit of the last of prec bits
                assert abs(part - exact) <= Fraction(2) ** (mp.mag(exact) - prec - 1)

    def test_add_and_subtract_are_exact(self):
        rng = random.Random(719)
        for scale in self.SCALES:
            zs = [_prec_bit(rng, scale) for _ in range(4)]
            (x, y, u, v), _ = _fixed(zs)
            exact = [_exact(t) for t in (x, y, u, v)]
            assert _exact(x + y) == tuple(p + q for p, q in zip(exact[0], exact[1]))
            assert _exact(u - v) == tuple(p - q for p, q in zip(exact[2], exact[3]))
            assert _exact(x + 3) == (exact[0][0] + 3, exact[0][1])
            assert _exact(3 - x) == (3 - exact[0][0], -exact[0][1])
            assert _exact(x - 7) == (exact[0][0] - 7, exact[0][1])
            assert _exact(-x) == (-exact[0][0], -exact[0][1])
            assert _exact(x * -5) == (-5 * exact[0][0], -5 * exact[0][1])

    def test_multiply_and_divide_land_within_one_unit(self):
        rng = random.Random(727)
        for scale in self.SCALES:
            for _ in range(20):
                (x, y), w = _fixed([_prec_bit(rng, scale), _prec_bit(rng, scale)])
                unit = Fraction(1, 2**w)
                ex, ey = _exact(x), _exact(y)
                for got, want in (
                    (x * y, _exact_mul(ex, ey)),
                    (x / y, _exact_div(ex, ey)),
                    (x / 7, (ex[0] / 7, ex[1] / 7)),
                ):
                    # each part floored once
                    assert all(0 <= p - q < unit for p, q in zip(want, _exact(got)))
                # against mpc at more than 2W bits
                with mp.workprec(3 * w):
                    ref = mp.mpc(x.re, x.im) / mp.mpc(y.re, y.im)
                    out = from_fixed_pair((x / y).re, (x / y).im, w, 3 * w)
                    assert abs(out.real - ref.real) <= mp.ldexp(1, -w)
                    assert abs(out.imag - ref.imag) <= mp.ldexp(1, -w)

    def test_zero_tests_are_exact(self):
        (x, y), w = _fixed([cplx(0.25, -0.5), mp.mpc(mp.ldexp(1, -300))])
        assert x - x == 0 and not (x - x)
        assert y != 0 and bool(y)
        assert Fixed(2 << w, 0, w) == 2 and Fixed(2 << w, 1, w) != 2
        assert x**0 == 1
        with pytest.raises(ZeroDivisionError):
            x / (x - x)

    def test_other_types_do_not_mix(self):
        (x,), _ = _fixed([cplx(0.25, -0.5)])
        for other in (mp.mpc(1), mp.mpf(1), 1.0, 1j):
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                other * x

    def test_run_fixed_converts_in_once_and_out_once(self):
        b, f = cplx(0.3, 0.2), [cplx(1.7, -0.4), cplx(-0.6, 1.1)]
        seen = []

        def body(b, f, k):
            seen.append((b, f, k))
            return [b * f[0] + k, f[1] / b]

        out = run_fixed(body, (b, f), 4)
        (fb, ff, k), = seen
        assert isinstance(fb, Fixed) and all(isinstance(z, Fixed) for z in ff) and k == 4
        assert all(isinstance(z, mp.mpc) for z in out)
        assert abs(out[0] - (b * f[0] + 4)) < mp.mpf("1e-39")
        assert abs(out[1] - f[1] / b) < mp.mpf("1e-39")
        with pytest.raises(AttributeError):
            run_fixed(lambda b: [b, 1], (b,))

    def test_hyp_terms_with_no_typed_parameter(self):
        # all-int or no parameters: mpc terms outside a run and the run's
        # Fixed inside one, so an r = 0 body converts out
        for num, den in (([1, 2], [3]), ([], [])):
            assert all(type(t) is mp.mpc for t in hyp_terms(num, den, 3))
            *terms, half = run_fixed(lambda b: hyp_terms(num, den, 3) + [b * kernel.unit()],
                                     (cplx(0.5),))
            assert half == mp.mpf(0.5)
            for u, v in zip(terms, hyp_terms(num, den, 3), strict=True):
                assert abs(u - v) <= mp.ldexp(abs(v), 1 - mp.mp.prec)
        assert type(kernel.unit()) is mp.mpc


def _relative_errors(body, params, *args):
    """Worst coefficientwise relative error of the Fixed run and of the mpc
    run of ``body`` against the mpc run at 150 digits."""

    def on_mpc():
        values = [[cplx(z) for z in p] if isinstance(p, list) else cplx(p) for p in params]
        return body(*values, *args)

    with mp.workdps(150):
        ref = on_mpc()

    def worst(out):
        return max(abs(u - v) / abs(v) for u, v in zip(out, ref))

    return worst(run_fixed(body, params, *args)), worst(on_mpc())


class TestWidening:
    """Products and quotients keep their relative precision however far the
    parameters reach from order one."""

    def _assert_no_worse_than_mpc(self, body, params, *args):
        fixed, on_mpc = _relative_errors(body, params, *args)
        assert fixed <= max(on_mpc, mp.ldexp(1, -mp.mp.prec))

    def test_large_pochhammer_divided_into_b(self):
        # (f)_m near 2^400 and 2^300, far beyond 2^W at the starting width
        for f, m in (([10**10], (12,)), ([10**30], (3,))):
            f, m = [cplx(z) for z in f], IntVector(m)
            self._assert_no_worse_than_mpc(w_poly_coeffs, (cplx(0.5), f), m)
            lead = run_fixed(w_poly_coeffs, (cplx(0.5), f), m)[-1]
            assert abs(lead * pochhammer_vec(f, m) / mp.mpf(0.5) - 1) < mp.mpf("1e-39")

    def test_large_c_minus_b(self):
        b, f = cplx(0.3, 0.2), [cplx(1.1, 0.4)]
        for gap, m in ((10**5, (12,)), (10**10, (12,)), (10**30, (3,))):
            c, m = b + gap, IntVector(m)
            for body in (charpoly._q_eq5, charpoly._p):
                self._assert_no_worse_than_mpc(body, (b, c, f), m)
            assert abs(charpoly.build_Q(b, c, f, m).coeffs[0] - 1) < mp.mpf("1e-39")

    def test_products_of_tiny_parameters(self):
        # (f)_m = 2^-300 at f = (2^-100,)*3, m = (1, 1, 1)
        tiny, m = [mp.mpc(mp.ldexp(1, -100))] * 3, IntVector((1, 1, 1))
        a, b, d, e = cplx(0.4), cplx(0.3, 0.2), cplx(0.7, 0.1), cplx(2.3, -0.2)
        assert run_fixed(fm_coeffs, (tiny,), m) == [mp.ldexp(1, -300)]
        self._assert_no_worse_than_mpc(charpoly._l, (a, d, e, b, tiny), m, "L")
        self._assert_no_worse_than_mpc(w_poly_coeffs, (b, tiny), m)
        for build in (lambda: charpoly.build_L(a, d, e, b, tiny, m), lambda: charpoly.w_poly(b, tiny, m)):
            assert build().degree == 2

    def test_a_residue_stops_widening(self):
        # (a/3)*3 - a is a rounding residue of zero, and stays one at every width
        out, = run_fixed(lambda a: [((a / 3) * 3 - a) * a], (cplx(1),))
        assert abs(out) <= mp.ldexp(1, -2 * mp.mp.prec)

    def test_no_bookkeeping_outside_a_run(self):
        (x,), w = _fixed([mp.mpc(mp.ldexp(1, -200))])
        assert (x * x) == 0 and kernel._short == 0


def _bodies(a, b, c, d, e, f, m, p):
    """(name, body, params, args) of every builder and coefficient body, as
    the public builder or ``coeff_*`` hands them to ``run_fixed``."""
    return [
        ("Q eq5", charpoly._q_eq5, (b, c, f), (m,)),
        ("Q eq7", charpoly._q_eq7, (b, c, f, charpoly._node_shift(b, c, m.total)), (m,)),
        ("P", charpoly._p, (b, c, f), (m,)),
        ("Q-hat", charpoly._qhat, (a, b, c, f), (m,)),
        ("P-hat", charpoly._phat, (a, b, c, f), (m,)),
        ("L", charpoly._l, (a, d, e, b, f), (m, "L")),
        ("L-hat", charpoly._l, (a, d, e, b, f), (m, "Lhat")),
        ("T", charpoly._t, (b, f), (m, p)),
        ("T*", charpoly._tstar, (b, f, a), (m, p)),
        ("W", w_poly_coeffs, (b, f), (m,)),
        ("C", c_coeffs, (f,), (m, m.total)),
        ("D", d_coeffs, (f, b), (m, m.total)),
        ("Y", y_coeffs, (f, b), (m, m.total - 1)),
        ("(f)_m", fm_coeffs, (f,), (m,)),
    ]


def _public(a, b, c, d, e, f, m, p):
    """The public reading of each of ``_bodies`` but (f)_m, which has none
    of its own, as a list of coefficients."""
    mt = m.total
    polys = [
        charpoly.build_Q(b, c, f, m),
        charpoly.build_Q(b, c, f, m, route="eq7"),
        charpoly.build_P(b, c, f, m),
        charpoly.build_Qhat(a, b, c, f, m),
        charpoly.build_Phat(a, b, c, f, m),
        charpoly.build_L(a, d, e, b, f, m, variant="L"),
        charpoly.build_L(a, d, e, b, f, m, variant="Lhat"),
        charpoly.build_T(b, p, f, m),
        charpoly.build_T(b, p, f, m, variant="Tstar", a=a),
        charpoly.w_poly(b, f, m),
    ]
    return [poly.coeffs for poly in polys] + [
        [coeff_C(k, f, m) for k in range(mt + 1)],
        [coeff_D(k, f, m, b) for k in range(mt + 1)],
        [coeff_Y(l, b, f, m) for l in range(mt)],
    ]


def _spec(rng, shape):
    a, b, c, d, e = (cplx(rng.uniform(-2, 3), rng.uniform(-1, 1)) for _ in range(5))
    return a, b, c, d, e, [cplx(rng.uniform(-2, 3), rng.uniform(-1, 1)) for _ in shape]


class TestFixedBuilds:
    SHAPES = [((1,), 1), ((2,), 2), ((1, 1), 1), ((3, 1), 3)]

    def test_every_coefficient_is_of_the_run_type(self):
        # the (b)_0 = 1 pitfall: no float and no bare int in any list
        rng = random.Random(733)
        for shape, p in self.SHAPES:
            a, b, c, d, e, f = _spec(rng, shape)
            m = IntVector(shape)
            for name, body, params, args in _bodies(a, b, c, d, e, f, m, p):
                on_mpc = body(*params, *args)
                assert all(type(z) is mp.mpc for z in on_mpc), name

                def checked(*values, body=body, args=args, name=name):
                    out = body(*values, *args)
                    assert all(type(z) is Fixed for z in out), name
                    return out

                run_fixed(checked, params)

    def test_public_builders_run_these_bodies(self):
        rng = random.Random(739)
        for shape, p in self.SHAPES:
            spec = _spec(rng, shape)
            m = IntVector(shape)
            bodies = _bodies(*spec, m, p)[:-1]  # all but (f)_m
            publics = _public(*spec, m, p)
            for (name, body, params, args), public in zip(bodies, publics, strict=True):
                out = run_fixed(body, params, *args)
                assert charpoly.CPoly(out).coeffs == charpoly.CPoly(public).coeffs, name

    def test_fixed_builds_beat_the_mpc_run_of_the_same_body(self):
        rng = random.Random(743)
        for shape, p in [((6,), 3), ((3, 3), 2)]:
            spec = _spec(rng, shape)
            m = IntVector(shape)
            bodies = _bodies(*spec, m, p)
            with mp.workdps(80):
                exact = [run_fixed(body, params, *args) for _, body, params, args in bodies]
            for (name, body, params, args), ref in zip(bodies, exact):
                scale = max(abs(z) for z in ref)
                fixed = max(abs(u - v) for u, v in zip(run_fixed(body, params, *args), ref)) / scale
                on_mpc = max(abs(u - v) for u, v in zip(body(*params, *args), ref)) / scale
                assert fixed <= max(on_mpc, mp.mpf(2) ** -mp.mp.prec), name
                assert fixed <= mp.mpf(2) ** (2 - mp.mp.prec), name


def _raises(thunk):
    try:
        thunk()
    except IpdHypError as exc:
        return type(exc)
    return None


class TestExactZeroGuards:
    """Each guard raises on the same inputs in the mpc run and the Fixed
    run: exactly where the exact value is zero, also next to it."""

    NEAR = (0, mp.ldexp(1, -60), mp.ldexp(1, -100), mp.ldexp(1, -130))

    def test_nonzero(self):
        for tiny in self.NEAR:
            z = mp.mpc(tiny, 0)
            on_mpc = _raises(lambda: nonzero(z, "z"))
            on_fixed = _raises(lambda: run_fixed(lambda z: [nonzero(z, "z")], (z,)))
            assert on_mpc is on_fixed is (DegenerateCaseError if tiny == 0 else None)

    def test_hyp_terms_pole(self):
        u = cplx(0.3, 0.2)
        for tiny in self.NEAR:
            for pole in (0, -2):
                v = mp.mpc(pole + tiny, 0) if pole == 0 else mp.mpc(pole) + tiny
                on_mpc = _raises(lambda: hyp_terms([u], [v], 4))
                on_fixed = _raises(lambda: run_fixed(lambda u, v: hyp_terms([u], [v], 4), (u, v)))
                assert on_mpc is on_fixed
                assert on_mpc is (DenominatorPoleError if tiny == 0 else None)

    def test_build_q_norm(self):
        # c - b - 3 = -1 exactly makes (c-b-m)_m = 0 at m = (3)
        b, f, m = cplx(0.25, 0.5), [cplx(1.5, -0.25)], IntVector((3,))
        for tiny in self.NEAR:
            c = b + 2 + tiny
            on_mpc = _raises(lambda: charpoly._q_eq5(b, c, f, m))
            on_fixed = _raises(lambda: charpoly.build_Q(b, c, f, m))
            assert on_mpc is on_fixed is (DegenerateCaseError if tiny == 0 else None)

    def test_build_t_zero_polynomial(self):
        # f = b zeroes (f-b-q+1)_m for every q <= p <= m
        b, m, p = cplx(0.25, 0.5), IntVector((3,)), 2
        for tiny in self.NEAR:
            f = [b + tiny]
            on_mpc = charpoly.CPoly(charpoly._t(b, f, m, p)).is_zero
            assert on_mpc is charpoly.build_T(b, p, f, m).is_zero is (tiny == 0)


def test_every_exported_name_resolves():
    import ipdhyp

    assert [name for name in ipdhyp.__all__ if not hasattr(ipdhyp, name)] == []
