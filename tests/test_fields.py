"""Arithmetic in Z_p and GF(p^r): golden values and algebraic properties."""

import random

import pytest

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

    def test_trial_division_agrees_with_power_test(self, monkeypatch):
        # Dual-route check: with the trial-division limit at 0 every input
        # takes the Rabin power test, which must match exhaustive trial
        # division on every monic polynomial of these small spaces.
        monkeypatch.setattr(fields, "_TRIAL_DIVISION_LIMIT", 0)
        checked = 0
        for p, max_deg in ((2, 9), (3, 6), (5, 4), (7, 3)):
            for deg in range(2, max_deg + 1):
                for f in fields._monic_polys(deg, p):
                    assert is_irreducible(f, p) == _trial_division_verdict(f, p), (f, p)
                    checked += 1
        assert checked == 3276

    def test_power_test_on_large_space(self):
        # candidate space > trial threshold: product of two irreducibles
        f7 = [46, 0, 1, 1, 0, 74, 0, 1]
        g = fields._pmul(f7, [1, 1], 101)
        assert not is_irreducible(g, 101)


    def test_mid_size_space_takes_the_power_test(self, monkeypatch):
        # GF(101^4) has 10,302 candidate divisors, far past the measured
        # crossover: trial division must not run
        def no_trial_division(degree, p):
            raise AssertionError("trial division ran")

        monkeypatch.setattr(fields, "_monic_polys", no_trial_division)
        assert is_irreducible([1, 1, 0, 0, 1], 101)
        assert not is_irreducible(fields._pmul([1, 0, 1], [1, 0, 1], 101), 101)


def _trial_division_verdict(f, p):
    f = list(f)
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in fields._monic_polys(d, p):
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
