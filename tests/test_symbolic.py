"""Symbolic polynomials/rational functions and the mutation oracle."""

import random

import pytest

from clustercrypt import fields
from clustercrypt.cluster import (
    DynkinSpec,
    NumericSeed,
    apply_sequence,
    dynkin_exchange_matrix,
)
from clustercrypt.errors import (
    DegenerateSubstitutionError,
    DenominatorVanishesError,
    MutationDivisionError,
    NotClusterShapedError,
    NotDivisibleError,
    ParseError,
)
from clustercrypt.fields import FieldParams, element_to_int
from clustercrypt.symbolic import (
    Polynomial,
    RationalFunction,
    apply_symbolic_sequence,
    initial_symbolic_seed,
    poly_gcd,
    rf_mutate,
)

BIGP = (1 << 61) - 1
GF32 = FieldParams(2, 5, (1, 0, 1, 0, 0, 1))


def rf(text, nvars, p=BIGP):
    return RationalFunction.parse(text, nvars, p)


class TestPolynomialArithmetic:
    def test_frobenius_square_mod2(self):
        f = Polynomial.parse("x0+1", 1, 2)
        assert (f * f) == Polynomial.parse("x0^2+1", 1, 2)

    def test_additive_identity(self):
        a = Polynomial.parse("3*x0*x1+x2", 3, 7)
        assert a + Polynomial.zero(3, 7) == a

    def test_exact_division(self):
        num = Polynomial.parse("x0^2+4*x1^2", 2, 5)  # x0^2 - x1^2 mod 5
        den = Polynomial.parse("x0+x1", 2, 5)
        assert num.exact_div(den) == Polynomial.parse("x0+4*x1", 2, 5)

    def test_inexact_division_raises(self):
        num = Polynomial.parse("x0^2+1", 2, 5)
        den = Polynomial.parse("x1", 2, 5)
        assert num.exact_div(den) is None
        with pytest.raises(NotDivisibleError):
            num.divide_exact(den)

    def test_power(self):
        a = Polynomial.parse("x0+x1", 2, 101)
        assert a**3 == a * a * a

    def test_render_ascending_and_parse_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            terms = {
                tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, 101)
                for _ in range(rng.randrange(1, 6))
            }
            poly = Polynomial(3, 101, terms)
            assert Polynomial.parse(poly.render(), 3, 101) == poly

    def test_parse_rejects_unbalanced(self):
        with pytest.raises(ParseError):
            Polynomial.parse("(x0+1", 2, 5)

    def test_gcd(self):
        a = Polynomial.parse("x0+1", 2, 5) * Polynomial.parse("x1+2", 2, 5)
        b = Polynomial.parse("x0+1", 2, 5) * Polynomial.parse("x1+3", 2, 5)
        assert poly_gcd(a, b) == Polynomial.parse("x0+1", 2, 5)

    def test_gcd_multivariate_nontrivial(self):
        common = Polynomial.parse("x0*x1+x2+1", 3, 101)
        a = common * Polynomial.parse("x0+5", 3, 101)
        b = common * Polynomial.parse("x2^2+7*x1", 3, 101)
        g = poly_gcd(a, b)
        assert a.exact_div(g) is not None
        assert b.exact_div(g) is not None
        assert g.total_degree() == common.total_degree()


class TestMutation:
    def test_a5_first_mutation(self):
        seed = initial_symbolic_seed(dynkin_exchange_matrix(DynkinSpec("A", 5)), BIGP)
        out = rf_mutate(seed, 1)
        assert out.entries[1] == rf("(x0*x2+1)/x1", 5)

    def test_d7_first_mutation(self):
        seed = initial_symbolic_seed(dynkin_exchange_matrix(DynkinSpec("D", 7)), BIGP)
        out = rf_mutate(seed, 2)
        assert out.entries[2] == rf("(x1*x3+1)/x2", 7)

    def test_involution(self):
        seed = initial_symbolic_seed(dynkin_exchange_matrix(DynkinSpec("A", 3)), BIGP)
        walked = apply_symbolic_sequence(seed, [0, 1, 2, 1])
        back = rf_mutate(rf_mutate(walked, 0), 0)
        for a, b in zip(back.entries, walked.entries):
            assert a.canonical_key() == b.canonical_key()
        assert back.matrix.rows == walked.matrix.rows

    def test_mutating_zero_entry_raises(self):
        seed = initial_symbolic_seed(dynkin_exchange_matrix(DynkinSpec("A", 2)), BIGP)
        zeroed = type(seed)(
            (RationalFunction.zero(2, BIGP), seed.entries[1]), seed.matrix
        )
        with pytest.raises(MutationDivisionError):
            rf_mutate(zeroed, 0)

    def test_chain_produces_known_variables(self):
        seed = initial_symbolic_seed(dynkin_exchange_matrix(DynkinSpec("A", 5)), BIGP)
        expected = [
            "(x0*x2+1)/x1",
            "(x3+1)/x4",
            "(x0*x2+x1+1)/(x0*x1)",
            "(x2*x4+x3+1)/(x3*x4)",
            "(x1+1)/x0",
        ]
        s = seed
        for k, text in zip([1, 4, 0, 3, 1], expected):
            s = rf_mutate(s, k)
            assert s.entries[k] == rf(text, 5)

    def test_denominators_stay_monomial(self):
        # Laurent phenomenon as a test: rank <= 4, walks of length 10
        rng = random.Random(17)
        specs = [
            DynkinSpec("A", 2),
            DynkinSpec("A", 3),
            DynkinSpec("A", 4),
            DynkinSpec("B", 2),
            DynkinSpec("B", 3),
            DynkinSpec("C", 3),
            DynkinSpec("D", 4),
        ]
        for spec in specs:
            seed = initial_symbolic_seed(dynkin_exchange_matrix(spec), BIGP)
            prev = None
            for _ in range(10):
                k = rng.randrange(seed.matrix.n)
                if k == prev:
                    k = (k + 1) % seed.matrix.n
                seed = rf_mutate(seed, k)
                prev = k
                for entry in seed.entries:
                    assert entry.reduce().den.is_monomial()


class TestSubstitution:
    def test_known_substitution(self):
        target = rf("(x0*x2+1)/x1", 5, 2)
        out = target.substitute(0, rf("x1+x2", 5, 2))
        assert out == rf("(x1*x2+x2^2+1)/x1", 5, 2)

    def test_identity_substitution(self):
        target = rf("(x0*x2+1)/x1", 5)
        assert target.substitute(0, rf("x0", 5)) == target

    def test_known_denominator_substitution(self):
        target = rf("(x1+1)/x0", 5, 2)
        out = target.substitute(0, rf("x1+x2", 5, 2))
        assert out == rf("(x1+1)/(x1+x2)", 5, 2)

    def test_degenerate_substitution(self):
        target = rf("1/(x0+x1)", 2, 2)
        with pytest.raises(DegenerateSubstitutionError):
            target.substitute(0, rf("x1", 2, 2))

    def test_substitute_then_evaluate_is_evaluate_at_moved_point(self):
        # the identity behind the cipher's numeric fast path
        rng = random.Random(19)
        specs = [DynkinSpec("A", 3), DynkinSpec("A", 4), DynkinSpec("D", 4)]
        trials = 0
        while trials < 500:
            spec = rng.choice(specs)
            matrix = dynkin_exchange_matrix(spec)
            n = matrix.n
            seed = initial_symbolic_seed(matrix, GF32.p)
            prev = None
            for _ in range(rng.randrange(1, 6)):
                k = rng.randrange(n)
                if k == prev:
                    k = (k + 1) % n
                seed = rf_mutate(seed, k)
                prev = k
            target = seed.entries[rng.randrange(n)]
            k0 = rng.randrange(n)
            coeffs = [rng.randrange(GF32.p) for _ in range(n)]
            if not any(coeffs):
                continue
            linear = RationalFunction.from_polynomial(
                Polynomial(
                    n,
                    GF32.p,
                    {
                        tuple(1 if j == i else 0 for j in range(n)): c
                        for i, c in enumerate(coeffs)
                        if c
                    },
                )
            )
            base_point = [
                fields.random_element(rng, GF32, nonzero=True) for _ in range(n)
            ]
            moved = list(base_point)
            value = GF32.zero()
            for i, c in enumerate(coeffs):
                value = fields.ext_add(
                    value, fields.scalar_mul(c, base_point[i], GF32), GF32
                )
            moved[k0] = value
            try:
                direct = target.evaluate(moved, GF32)
                via_subst = target.substitute(k0, linear).evaluate(base_point, GF32)
            except DenominatorVanishesError:
                continue
            assert direct == via_subst
            trials += 1


class TestEvaluation:
    def test_known_value_18(self):
        point = [GF32.alpha_power(i) for i in range(5)]
        got = rf("(x1+1)/(x1+x2)", 5, 2).evaluate(point, GF32)
        assert element_to_int(got, GF32) == 18

    def test_known_value_7(self):
        point = [GF32.alpha_power(i) for i in range(5)]
        got = rf("(x2*x4+x3+1)/(x3*x4)", 5, 2).evaluate(point, GF32)
        assert element_to_int(got, GF32) == 7

    def test_vanishing_denominator(self):
        point = [GF32.alpha_power(1), GF32.alpha_power(1)]
        with pytest.raises(DenominatorVanishesError):
            rf("1/(x0+x1)", 2, 2).evaluate(point, GF32)


class TestReduceFraction:
    def test_monomial_content(self):
        assert rf("(x0*x1+x1)/x1", 2, 5).reduce() == rf("x0+1", 2, 5)

    def test_gcd_cancellation(self):
        num = Polynomial.parse("x0+1", 2, 5) * Polynomial.parse("x1+1", 2, 5)
        frac = RationalFunction(num, Polynomial.parse("x1+1", 2, 5))
        assert frac.reduce() == rf("x0+1", 2, 5)

    def test_already_reduced_unchanged(self):
        frac = rf("(x0*x2+1)/x1", 3, 5)
        red = frac.reduce()
        assert red.num == frac.num and red.den == frac.den


class TestDenominatorVector:
    def test_two_variable_denominator(self):
        assert rf("(x0*x2+x1+1)/(x0*x1)", 3).denominator_vector() == (1, 1, 0)

    def test_initial_variable_is_negative_unit(self):
        assert RationalFunction.variable(2, 3, BIGP).denominator_vector() == (0, 0, -1)

    def test_reduces_before_reading(self):
        assert rf("(x1+1)/x2", 3).denominator_vector() == (0, 0, 1)

    def test_non_monomial_denominator_rejected(self):
        with pytest.raises(NotClusterShapedError):
            rf("x0/(x1+1)", 2).denominator_vector()


class TestOracleEquivalence:
    def test_numeric_equals_evaluated_symbolic(self):
        # numeric sequence application == symbolic mutation then evaluation
        rng = random.Random(23)
        gf = FieldParams(7, 2, (3, 1, 1))
        specs = [
            DynkinSpec("A", 2),
            DynkinSpec("A", 3),
            DynkinSpec("A", 4),
            DynkinSpec("A", 5),
            DynkinSpec("B", 3),
            DynkinSpec("D", 4),
            DynkinSpec("D", 5),
        ]
        done = 0
        while done < 60:
            spec = rng.choice(specs)
            matrix = dynkin_exchange_matrix(spec)
            n = matrix.n
            ks = []
            prev = None
            for _ in range(rng.randrange(1, 9)):
                k = rng.randrange(n)
                if k == prev:
                    k = (k + 1) % n
                ks.append(k)
                prev = k
            point = tuple(
                fields.random_element(rng, gf, nonzero=True) for _ in range(n)
            )
            try:
                numeric = apply_sequence(NumericSeed(point, matrix, gf), ks)
            except MutationDivisionError:
                continue
            symbolic = apply_symbolic_sequence(initial_symbolic_seed(matrix, gf.p), ks)
            for entry, value in zip(symbolic.entries, numeric.values):
                assert entry.evaluate(point, gf) == value
            assert symbolic.matrix.rows == numeric.matrix.rows
            done += 1
