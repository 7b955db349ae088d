import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdhyp.errors import DegenerateCaseError, LengthMismatchError, PoleAtNonpositiveIntegerError
from ipdhyp.kernel import (
    IntVector,
    ParamVector,
    as_nonpositive_integer,
    cplx,
    gamma,
    genfunc_coeffs,
    get_precision,
    nonzero,
    pochhammer,
    pochhammer_vec,
    set_precision,
    stirling2,
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


class TestStirlingCacheThreadSafety:
    def test_concurrent_growth(self):
        import threading

        import ipdhyp.kernel as kernel

        # reset the shared table so the threads actually race on growth
        kernel._stirling_rows[:] = [[1]]
        results = {}

        def worker(tag, j):
            results[tag] = [stirling2(j, k) for k in range(j + 1)]

        threads = [
            threading.Thread(target=worker, args=(t, 40 + (t % 3))) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tag, values in results.items():
            j = 40 + (tag % 3)
            assert values[1] == 1 and values[j] == 1
            assert values == [stirling2(j, k) for k in range(j + 1)]


class TestVectors:
    def test_int_vector_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IntVector([1, 0])

    def test_int_vector_total(self):
        assert IntVector([2, 1, 3]).total == 6

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
