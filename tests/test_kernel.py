import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdhyp.errors import (
    DegenerateCaseError,
    DenominatorPoleError,
    LengthMismatchError,
    PoleAtNonpositiveIntegerError,
)
from ipdhyp.hypeval import HypFunction
from ipdhyp.kernel import (
    IntVector,
    ParamVector,
    as_nonpositive_integer,
    cplx,
    gamma,
    genfunc_coeffs,
    get_precision,
    nonzero,
    hyp_terms,
    pochhammer,
    pochhammer_vec,
    rising,
    set_precision,
    stirling2,
    terminating_family,
    terminating_pfq,
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


def test_every_exported_name_resolves():
    import ipdhyp

    assert [name for name in ipdhyp.__all__ if not hasattr(ipdhyp, name)] == []
