"""Arithmetic in Z_p and GF(p^r): golden values and algebraic properties."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercrypt import fields
from clustercrypt.errors import (
    InvalidPolynomialError,
    NonInvertibleError,
    OutOfRangeError,
)
from clustercrypt.fields import (
    FieldParams,
    element_to_int,
    ext_add,
    ext_inv,
    ext_mul,
    ext_pow,
    fp_inv,
    int_to_element,
    is_irreducible,
)

GF32 = FieldParams(p=2, r=5, f=(1, 0, 1, 0, 0, 1))
GF101_7 = FieldParams(p=101, r=7, f=(46, 0, 1, 1, 0, 74, 0, 1))


class TestFpInv:
    def test_identity(self):
        assert fp_inv(1, 2) == 1

    def test_mod_101(self):
        # oracle: brute-force search over Z_101
        expected = next(b for b in range(1, 101) if 2 * b % 101 == 1)
        assert expected == 51
        assert fp_inv(2, 101) == 51

    def test_zero_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            fp_inv(0, 7)

    def test_random_inverses(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 101, 997])
            a = rng.randrange(1, p)
            assert a * fp_inv(a, p) % p == 1


class TestIrreducibility:
    def test_known_irreducible_gf2(self):
        assert is_irreducible([1, 0, 1, 0, 0, 1], 2)

    def test_known_irreducible_gf101(self):
        assert is_irreducible([46, 0, 1, 1, 0, 74, 0, 1], 101)

    def test_square_is_reducible(self):
        # x^2 + 1 = (x + 1)^2 over Z_2
        assert not is_irreducible([1, 0, 1], 2)

    def test_constant_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            is_irreducible([3], 5)

    def test_degree_one_always_irreducible(self):
        assert is_irreducible([4, 1], 5)

    def test_agrees_with_trial_division(self):
        # every monic polynomial of these small spaces, degree 1 included,
        # against exhaustive trial division
        checked = 0
        for p, max_deg in ((2, 9), (3, 6), (5, 4), (7, 3)):
            for deg in range(1, max_deg + 1):
                for f in _monic_polys(deg, p):
                    assert is_irreducible(f, p) == _trial_division_verdict(f, p), (f, p)
                    checked += 1
        assert checked == 3293

    def test_power_test_on_large_space(self):
        # product of two irreducibles
        f7 = [46, 0, 1, 1, 0, 74, 0, 1]
        g = fields._pmul(f7, [1, 1], 101)
        assert not is_irreducible(g, 101)

    def test_mid_size_space_takes_the_power_test(self):
        # GF(101^4): 10,302 candidate divisors of degree <= 2
        assert is_irreducible([1, 1, 0, 0, 1], 101)
        assert not is_irreducible(fields._pmul([1, 0, 1], [1, 0, 1], 101), 101)

    @pytest.mark.parametrize(
        "a,b",
        [([99, 0, 1], [98, 0, 1]), ([1, 1, 0, 1], [2, 0, 0, 0, 1])],
        ids=["quadratic-quadratic", "cubic-quartic"],
    )
    def test_smallest_factor_at_half_the_degree(self, a, b):
        # (x^2 - 2)(x^2 - 3) and (x^3 + x + 1)(x^4 + 2) over GF(101): no
        # factor below degree floor(n/2), so only the last round sees one
        assert all(_trial_division_verdict(g, 101) for g in (a, b))
        assert is_irreducible(a, 101) and is_irreducible(b, 101)
        assert not is_irreducible(fields._pmul(a, b, 101), 101)

    def test_non_monic(self):
        f7 = [46, 0, 1, 1, 0, 74, 0, 1]
        assert is_irreducible([5 * c for c in f7], 101)
        assert not is_irreducible([5 * c for c in fields._pmul([99, 0, 1], [98, 0, 1], 101)], 101)

    def test_zero_constant_term_is_reducible(self):
        # f(0) = 0: x divides f
        assert not is_irreducible([0, 46, 0, 1, 1, 0, 74, 0, 1], 101)

    def test_nonprime_characteristic_rejected(self):
        with pytest.raises(InvalidPolynomialError, match="^4 is not prime$"):
            is_irreducible([1, 1, 1], 4)


def _monic_polys(degree, p):
    """All monic polynomials of exactly the given degree over Z_p."""
    for lower in itertools.product(range(p), repeat=degree):
        yield list(lower) + [1]


def _trial_division_verdict(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, p):
            if not fields._pmod(f, g, p):
                return False
    return True


class TestFieldParams:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            FieldParams(p=2, r=2, f=(1, 0, 1))

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            FieldParams(p=6, r=2, f=(1, 1, 1))

    def test_nonmonic_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            FieldParams(p=5, r=2, f=(1, 1, 2))

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidPolynomialError, match="^r=0 must be >= 1$"):
            FieldParams(p=2, r=0, f=(1,))

    @pytest.mark.parametrize("f", [(1, 1), (1, 1, 1, 1)], ids=["short", "long"])
    def test_coefficient_count_checked(self, f):
        with pytest.raises(
            InvalidPolynomialError, match=rf"^modulus needs 3 coefficients, got {len(f)}$"
        ):
            FieldParams(p=2, r=2, f=f)

    @pytest.mark.parametrize("i", [-1, 5])
    def test_alpha_power_outside_the_basis(self, i):
        with pytest.raises(OutOfRangeError, match=rf"^alpha power {i} outside \[0, 5\)$"):
            GF32.alpha_power(i)

    def test_dict_round_trip(self):
        assert FieldParams.from_dict(GF32.to_dict()) == GF32

    # integers are checked where a value is built: bool, float and str are
    # rejected, never truncated or coerced

    @pytest.mark.parametrize(
        "p,r,f",
        [
            (2.0, 5, (1, 0, 1, 0, 0, 1)),
            (2, 5.0, (1, 0, 1, 0, 0, 1)),
            (2, True, (1, 1)),
            (2, 5, (1, 0, 1.0, 0, 0, 1)),
            (2, 5, (True, 0, 1, 0, 0, 1)),
        ],
        ids=["p-float", "r-float", "r-bool", "f-float", "f-bool"],
    )
    def test_integers_are_strict(self, p, r, f):
        with pytest.raises(TypeError, match="must be an integer"):
            FieldParams(p, r, f)

    @pytest.mark.parametrize(
        "p,r", [(fields.MAX_P + 2, 2), (2, fields.MAX_R + 1)], ids=["p", "r"]
    )
    def test_limits_are_checked_before_the_modulus(self, monkeypatch, p, r):
        calls = []
        monkeypatch.setattr(fields, "is_irreducible", lambda *args: calls.append(args))
        with pytest.raises(InvalidPolynomialError, match="outside the supported"):
            FieldParams(p, r, (1,) * (r + 1))
        assert calls == []


class TestExtensionArithmetic:
    def test_alpha5_reduction(self):
        # f = x^5 + x^2 + 1 forces alpha^5 = alpha^2 + 1
        a4 = ext_pow(GF32.alpha_power(1), 4, GF32)
        assert ext_mul(a4, GF32.alpha_power(1), GF32) == (1, 0, 1, 0, 0)

    def test_square_below_degree(self):
        a = GF32.alpha_power(1)
        assert ext_mul(a, a, GF32) == (0, 0, 1, 0, 0)

    def test_alpha7_gf101(self):
        # alpha^7 = -46 - alpha^2 - alpha^3 - 74 alpha^5 mod 101
        a6 = ext_pow(GF101_7.alpha_power(1), 6, GF101_7)
        got = ext_mul(a6, GF101_7.alpha_power(1), GF101_7)
        assert got == (55, 0, 100, 100, 0, 27, 0)

    def test_inv_identity(self):
        assert ext_inv(GF32.one(), GF32) == GF32.one()

    def test_inv_alpha(self):
        # alpha * (alpha + alpha^4) = alpha^2 + alpha^5 = 1
        assert ext_inv(GF32.alpha_power(1), GF32) == (0, 1, 0, 0, 1)

    def test_worked_division(self):
        a = GF32.alpha_power(1)
        a2 = GF32.alpha_power(2)
        num = ext_add(GF32.one(), a, GF32)
        den = ext_add(a, a2, GF32)
        assert ext_mul(ext_inv(den, GF32), num, GF32) == (0, 1, 0, 0, 1)

    def test_zero_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            ext_inv(GF32.zero(), GF32)

    @pytest.mark.parametrize("params", [GF32, GF101_7], ids=["gf32", "gf101^7"])
    def test_field_axioms_random(self, params):
        rng = random.Random(23)
        for _ in range(100):
            a = fields.random_element(rng, params)
            b = fields.random_element(rng, params)
            c = fields.random_element(rng, params)
            assert ext_mul(a, b, params) == ext_mul(b, a, params)
            assert ext_mul(ext_mul(a, b, params), c, params) == ext_mul(
                a, ext_mul(b, c, params), params
            )
            left = ext_mul(a, ext_add(b, c, params), params)
            right = ext_add(ext_mul(a, b, params), ext_mul(a, c, params), params)
            assert left == right

    @pytest.mark.parametrize("params", [GF32, GF101_7], ids=["gf32", "gf101^7"])
    def test_inverse_property_random(self, params):
        rng = random.Random(29)
        for _ in range(100):
            a = fields.random_element(rng, params, nonzero=True)
            assert ext_mul(a, ext_inv(a, params), params) == params.one()

    @pytest.mark.parametrize("params", [GF32, GF101_7], ids=["gf32", "gf101^7"])
    def test_frobenius_fixed_points(self, params):
        # a^(p^r) = a validates the modulus plumbing end to end
        rng = random.Random(31)
        for _ in range(20):
            a = fields.random_element(rng, params)
            assert ext_pow(a, params.q, params) == a


# The extremes of ext_inv's slot width (p - 1)(2p - 1)^r: the widest
# tested slots, the most slots (r = MAX_R) and one step past GF(101^7).
# Each modulus is the first is_irreducible found with as many digits p - 1
# (at p = 2, digits 1) as it could keep, so that the Euclid runs dense.
GF65521_8 = FieldParams(p=fields.MAX_P, r=8, f=(65520, 65515) + (65520,) * 6 + (1,))
GF2_32 = FieldParams(p=2, r=fields.MAX_R, f=(1, 0, 1, 0) + (1,) * 29)
GF101_8 = FieldParams(p=101, r=8, f=(100,) * 8 + (1,))
WIDE_FIELDS = [GF65521_8, GF2_32, GF101_8]
WIDE_IDS = ["gf65521^8", "gf2^32", "gf101^8"]

REFERENCE_FIELDS = [
    GF32,
    GF101_7,
    FieldParams(p=7, r=2, f=(1, 0, 1)),
    FieldParams(p=3, r=4, f=(2, 1, 0, 0, 1)),
    FieldParams(p=13, r=1, f=(5, 1)),
    FieldParams(p=fields.MAX_P, r=3, f=(3, 1, 0, 1)),  # the widest product slots
    *WIDE_FIELDS,
]
REFERENCE_IDS = ["gf2^5", "gf101^7", "gf7^2", "gf3^4", "gf13", "gf65521^3", *WIDE_IDS]


def _reference_mul(a, b, params):
    """Product by the dense polynomial helpers: multiply, then divide by f."""
    p = params.p
    prod = fields._pmod(fields._pmul(list(a), list(b), p), list(params.f), p)
    return tuple(prod + [0] * (params.r - len(prod)))


class TestAgainstPolynomialReference:
    """ext_mul, ext_inv and ext_pow against the helpers behind is_irreducible.

    The symbolic oracle evaluates through ext_mul, so only an independent
    multiply can catch a wrong one.
    """

    @pytest.mark.parametrize("params", REFERENCE_FIELDS, ids=REFERENCE_IDS)
    def test_mul_matches_reference(self, params):
        rng = random.Random(37)
        for _ in range(200):
            a = fields.random_element(rng, params)
            b = fields.random_element(rng, params)
            assert ext_mul(a, b, params) == _reference_mul(a, b, params)

    @pytest.mark.parametrize("params", REFERENCE_FIELDS, ids=REFERENCE_IDS)
    def test_mul_at_the_largest_slot_sums(self, params):
        # every digit p - 1 fills each product slot to its bound, and
        # alpha^(r-1) squared lands in the top slot: a carry between
        # packed slots shows here first
        full = (params.p - 1,) * params.r
        top = params.alpha_power(params.r - 1)
        for a, b in ((full, full), (top, top), (full, top)):
            assert ext_mul(a, b, params) == _reference_mul(a, b, params)

    @pytest.mark.parametrize("params", REFERENCE_FIELDS, ids=REFERENCE_IDS)
    def test_inverse_by_reference_product(self, params):
        rng = random.Random(41)
        for _ in range(100):
            a = fields.random_element(rng, params, nonzero=True)
            assert _reference_mul(a, ext_inv(a, params), params) == params.one()

    @pytest.mark.parametrize("params", [GF101_7, *WIDE_FIELDS], ids=["gf101^7", *WIDE_IDS])
    def test_inverse_of_sparse_and_full_elements(self, params):
        # d alpha^j for d = 1 and p - 1 (the constants and every alpha^j
        # among them) and all digits p - 1: the Euclid's shortest runs and
        # its largest slots
        p, r = params.p, params.r
        elements = [(p - 1,) * r]
        for digit in sorted({1, p - 1}):
            for j in range(r):
                elements.append(tuple(digit if i == j else 0 for i in range(r)))
        for a in elements:
            assert _reference_mul(a, ext_inv(a, params), params) == params.one(), a

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from([GF101_7, *WIDE_FIELDS]), st.data())
    def test_inverse_property(self, params, data):
        digits = st.integers(0, params.p - 1)
        a = data.draw(st.tuples(*[digits] * params.r).filter(any))
        assert _reference_mul(a, ext_inv(a, params), params) == params.one()

    def test_inverse_under_a_reducible_modulus_raises(self, monkeypatch):
        # FieldParams admits no such modulus; with its test bypassed, x
        # divides x^2, and the Euclid raises before its strip runs past slot 0
        monkeypatch.setattr(fields, "is_irreducible", lambda *args: True)
        reducible = FieldParams(p=101, r=2, f=(0, 0, 1))
        message = r"^\(0, 1\) shares a factor with the modulus$"
        with pytest.raises(NonInvertibleError, match=message):
            ext_inv((0, 1), reducible)

    @pytest.mark.parametrize("params", REFERENCE_FIELDS, ids=REFERENCE_IDS)
    def test_pow_matches_repeated_multiplication(self, params):
        rng = random.Random(43)
        p, f = params.p, list(params.f)
        for _ in range(30):
            a = fields.random_element(rng, params, nonzero=True)
            power = params.one()
            for e in range(4):
                assert ext_pow(a, e, params) == power
                power = _reference_mul(power, a, params)
            # a^(q-2) = a^-1: square and multiply by the dense helpers
            inverse = fields._ppowmod(list(a), params.q - 2, f, p)
            inverse = tuple(inverse + [0] * (params.r - len(inverse)))
            assert ext_pow(a, params.q - 2, params) == inverse
            assert ext_pow(a, -1, params) == inverse


# Every tabled field that the tests, the known answers or the benchmark
# run on, each small enough to check on all q^2 pairs: test_acceptance's
# first_irreducible moduli up to q = 256, the benchmark's GF(7^2) and
# GF(5^3), and the prime fields of the cluster and crypto tests.
EXHAUSTIVE_FIELDS = [
    FieldParams(2, 1, (1, 1)),
    FieldParams(2, 2, (1, 1, 1)),
    FieldParams(5, 1, (3, 1)),
    FieldParams(13, 1, (5, 1)),
    FieldParams(3, 2, (1, 0, 1)),
    FieldParams(5, 2, (2, 0, 1)),
    FieldParams(7, 2, (1, 0, 1)),
    FieldParams(7, 2, (3, 1, 1)),
    FieldParams(2, 3, (1, 1, 0, 1)),
    FieldParams(3, 3, (1, 2, 0, 1)),
    FieldParams(5, 3, (1, 1, 0, 1)),
    FieldParams(5, 3, (3, 4, 0, 1)),
    FieldParams(2, 4, (1, 1, 0, 0, 1)),
    FieldParams(3, 4, (2, 1, 0, 0, 1)),
    GF32,
    FieldParams(3, 5, (1, 2, 0, 0, 0, 1)),
    FieldParams(2, 6, (1, 1, 0, 0, 0, 0, 1)),
    FieldParams(2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
    FieldParams(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
]
# The largest tabled fields: test_acceptance's GF(5^4) and GF(3^6), and
# the largest q of either shape below TABLE_MAX_Q.
LARGEST_FIELDS = [
    FieldParams(5, 4, (2, 0, 0, 0, 1)),
    FieldParams(3, 6, (2, 1, 0, 0, 0, 0, 1)),
    FieldParams(31, 2, (1, 0, 1)),
    FieldParams(997, 1, (0, 1)),
]


def _field_id(params):
    return f"gf{params.p}^{params.r}-f{''.join(map(str, params.f))}"


def _elements(params):
    return [int_to_element(n, params) for n in range(params.q)]


class TestLogTables:
    """The tables against the packed multiply and extended Euclid.

    The symbolic oracle evaluates through the same tables, so it no longer
    checks them; these tests do, on every pair of every small field.
    """

    @pytest.mark.parametrize("params", EXHAUSTIVE_FIELDS, ids=_field_id)
    def test_mul_matches_packed_on_all_pairs(self, params):
        packed = fields._without_tables(params)
        elements = _elements(params)
        for a in elements:
            for b in elements:
                assert ext_mul(a, b, params) == ext_mul(a, b, packed), (a, b)

    @pytest.mark.parametrize("params", EXHAUSTIVE_FIELDS + LARGEST_FIELDS, ids=_field_id)
    def test_inv_matches_euclid_on_every_element(self, params):
        packed = fields._without_tables(params)
        for a in _elements(params)[1:]:
            assert ext_inv(a, params) == ext_inv(a, packed), a
        with pytest.raises(NonInvertibleError, match="^zero element has no inverse$"):
            ext_inv(params.zero(), params)

    @pytest.mark.parametrize("params", EXHAUSTIVE_FIELDS, ids=_field_id)
    def test_pow_matches_repeated_multiplication(self, params):
        packed = fields._without_tables(params)
        for a in _elements(params)[1:]:
            power = inverse_power = params.one()
            inverse = ext_inv(a, packed)
            for e in range(params.q + 1):
                assert ext_pow(a, e, params) == power, (a, e)
                power = ext_mul(power, a, packed)
            for e in range(-1, -4, -1):
                inverse_power = ext_mul(inverse_power, inverse, packed)
                assert ext_pow(a, e, params) == inverse_power, (a, e)

    @pytest.mark.parametrize("params", EXHAUSTIVE_FIELDS + LARGEST_FIELDS, ids=_field_id)
    def test_zero_operands(self, params):
        zero, one = params.zero(), params.one()
        for a in (zero, one, (params.p - 1,) * params.r):
            assert ext_mul(zero, a, params) == ext_mul(a, zero, params) == zero
        assert ext_pow(zero, 0, params) == one
        for e in range(1, params.q + 1):
            assert ext_pow(zero, e, params) == zero
        for e in (-1, -2, -3):
            with pytest.raises(NonInvertibleError, match="^zero element has no inverse$"):
                ext_pow(zero, e, params)

    @pytest.mark.parametrize("params", EXHAUSTIVE_FIELDS + LARGEST_FIELDS, ids=_field_id)
    def test_exp_runs_once_through_the_nonzero_elements(self, params):
        log, exp = fields._log_tables(params)
        n = params.q - 1
        assert len(exp) == 2 * n and exp[n:] == exp[:n]
        assert len(set(exp[:n])) == n and params.zero() not in exp
        assert exp[0] == params.one()
        assert all(log[a] == i for i, a in enumerate(exp[:n]))

    def test_tuple_outside_the_field_is_not_read_as_zero(self):
        # digits must be reduced mod p: (2, 0, 0, 0, 0) is no element of GF(2^5)
        with pytest.raises(KeyError):
            ext_mul((2, 0, 0, 0, 0), GF32.one(), GF32)
        with pytest.raises(KeyError):
            ext_inv((0, 3, 0, 0, 0), GF32)
        with pytest.raises(KeyError):
            ext_pow((0, 3, 0, 0, 0), 2, GF32)

    def test_fields_above_the_limit_keep_the_packed_path(self):
        above = FieldParams(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1))
        assert above.q > fields.TABLE_MAX_Q >= max(f.q for f in LARGEST_FIELDS)
        assert above._tables is None and GF101_7._tables is None

    def test_tables_are_built_on_first_use_and_shared(self):
        params = FieldParams(3, 5, (1, 2, 0, 0, 0, 1))
        again = FieldParams(3, 5, (1, 2, 0, 0, 0, 1))
        assert params._tables == ()  # reading params builds nothing
        ext_mul(params.one(), params.one(), params)
        ext_inv(again.one(), again)
        assert again._tables is params._tables
        assert fields._without_tables(params)._tables is None
        assert params._tables
        assert fields._log_tables.cache_info().maxsize <= 8

    def test_largest_build_stays_inside_its_bound(self):
        # the slowest build at q <= TABLE_MAX_Q among the first three moduli
        # of every field with q > 250: 2.6-3.8 ms on a shared 2-vCPU Xeon,
        # inside the 5 ms that sets TABLE_MAX_Q (GF(2^10) took 4.2-6.2 ms);
        # the bound here leaves 3x for a loaded host
        params = FieldParams(3, 6, (1, 0, 0, 0, 2, 0, 1))
        build = fields._log_tables.__wrapped__
        best = min(_seconds(build, params) for _ in range(5))
        assert best < 0.015

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(LARGEST_FIELDS), st.data())
    def test_largest_fields_on_random_operands(self, params, data):
        a, b = (int_to_element(data.draw(st.integers(0, params.q - 1)), params) for _ in "ab")
        e = data.draw(st.integers(-3, params.q))
        packed = fields._without_tables(params)
        assert ext_mul(a, b, params) == ext_mul(a, b, packed)
        if any(a):
            assert ext_pow(a, e, params) == ext_pow(a, e, packed)


def _seconds(build, params):
    start = time.perf_counter()
    build(params)
    return time.perf_counter() - start


class TestIntegerCodec:
    def test_example_message(self):
        assert element_to_int((42, 82, 3, 0, 0, 0, 0), GF101_7) == 38927

    def test_large_power(self):
        assert element_to_int((0, 0, 0, 0, 0, 1, 0), GF101_7) == 10510100501

    def test_binary_vector(self):
        assert element_to_int((1, 1, 0, 1, 0), GF32) == 11

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            int_to_element(32, GF32)
        with pytest.raises(OutOfRangeError):
            int_to_element(-1, GF32)

    @pytest.mark.parametrize("n", [5.0, True, "5"], ids=["float", "bool", "str"])
    def test_integer_is_strict(self, n):
        with pytest.raises(TypeError, match="must be an integer"):
            int_to_element(n, GF32)

    def test_round_trip_exhaustive_small(self):
        for n in range(GF32.q):
            assert element_to_int(int_to_element(n, GF32), GF32) == n

    def test_round_trip_random_large(self):
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randrange(GF101_7.q)
            assert element_to_int(int_to_element(n, GF101_7), GF101_7) == n
