"""Symbolic polynomials/rational functions and the mutation oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercrypt import fields
from clustercrypt.analysis import cluster_variables
from clustercrypt.cluster import (
    DynkinSpec,
    apply_sequence,
    dynkin_exchange_matrix,
)
from clustercrypt.errors import (
    DegenerateSubstitutionError,
    DenominatorVanishesError,
    InvalidPolynomialError,
    InvalidVertexError,
    MutationDivisionError,
    NotClusterShapedError,
    NotDivisibleError,
    ParseError,
)
from clustercrypt.fields import FieldParams, element_to_int
from clustercrypt.symbolic import (
    Polynomial,
    RationalFunction,
    SymbolicSeed,
    apply_symbolic_sequence,
    initial_symbolic_seed,
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
        assert num.divide_exact(den) == Polynomial.parse("x0+4*x1", 2, 5)

    def test_inexact_division_raises(self):
        num = Polynomial.parse("x0^2+1", 2, 5)
        den = Polynomial.parse("x1", 2, 5)
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


EXPONENTS = st.tuples(*[st.integers(0, 4)] * 3)
POLYNOMIALS = st.dictionaries(EXPONENTS, st.integers(0, 100), max_size=6).map(
    lambda terms: Polynomial(3, 101, terms)
)
MONOMIALS = st.tuples(EXPONENTS, st.integers(1, 100)).map(
    lambda term: Polynomial(3, 101, {term[0]: term[1]})
)


class TestTextForm:
    # the grammar of the module docstring, which render writes

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(POLYNOMIALS, MONOMIALS)
    def test_parse_inverts_render(self, num, den):
        assert Polynomial.parse(num.render(), 3, 101) == num
        laurent = RationalFunction(num, den)
        back = RationalFunction.parse(laurent.render(), 3, 101)
        assert back.canonical_key() == laurent.canonical_key()

    @pytest.mark.parametrize(
        "family, rank",
        [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("G", 2)],
    )
    def test_cluster_variables_read_back(self, family, rank):
        matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
        for variable in cluster_variables(matrix):
            back = RationalFunction.parse(variable.render(), rank, variable.p)
            assert back.canonical_key() == variable.canonical_key()

    def test_spaces_and_nested_parentheses_are_read(self):
        spaced = rf(" ( ( x1 + 2*x0^2 ) ) / ( x0 * x1 ) ", 2)
        assert spaced.canonical_key() == rf("(2*x0^2+x1)/(x0*x1)", 2).canonical_key()

    @pytest.mark.parametrize(
        "text, position",
        [
            # an exponent without digits
            ("x0^", 2),
            ("x0^-1", 2),
            ("x0^+2", 2),
            ("x0 ^ - 1", 3),
            # a sign before the first term or a denominator
            ("+20", 0),
            ("-2", 0),
            ("-x0", 0),
            ("1/-0", 2),
            ("(-1+x0)/x1", 1),
            # underscores inside digits
            ("1_000*x0", 1),
            # whitespace other than the space character
            ("x0+\t1", 3),
            ("1\n", 1),
            # anything else the grammar does not produce
            ("", 0),
            ("x0+", 3),
            ("x0*+x1", 3),
            ("x0--x1", 3),
            ("(x0+1", 5),
            ("x0+1)", 4),
            ("(x0)+1", 4),
            ("(x0)*(x1)", 4),
            ("1/x0/x1", 4),
            ("x", 0),
            ("x0*y", 3),
            ("()", 1),
        ],
    )
    def test_refuses_text_outside_the_grammar(self, text, position):
        with pytest.raises(ParseError) as caught:
            RationalFunction.parse(text, 2, 101)
        assert caught.value.position == position

    @pytest.mark.parametrize(
        "template", ["{}", "x{}", "x0^{}"], ids=["digits", "variable", "exponent"]
    )
    def test_number_past_the_digit_limit_of_int(self, template):
        with pytest.raises(ParseError, match=r"^too many digits \(at 0\)$"):
            RationalFunction.parse(template.format("1" * 5000), 2, 5)

    def test_polynomial_refuses_a_fraction(self):
        with pytest.raises(ParseError, match=r"^cannot read '/' \(at 1\)$"):
            Polynomial.parse("1/x0", 2, 5)

    def test_variable_outside_the_ring(self):
        with pytest.raises(ParseError, match=r"^variable x2 outside 0\.\.1 \(at 5\)$"):
            RationalFunction.parse("x0 + x2", 2, 5)

    def test_zero_denominator(self):
        with pytest.raises(InvalidPolynomialError, match="^zero denominator$"):
            RationalFunction.parse("1/0", 2, 5)


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
        zero = RationalFunction.from_polynomial(Polynomial.zero(2, BIGP))
        zeroed = type(seed)((zero, seed.entries[1]), seed.matrix)
        with pytest.raises(MutationDivisionError):
            rf_mutate(zeroed, 0)

    def test_entry_not_dividing_the_binomial_raises(self):
        # (x0+2)/x1 is no cluster variable of A2: the binomial x1+1 is not
        # divisible by its numerator, which the Laurent phenomenon forbids
        seed = initial_symbolic_seed(dynkin_exchange_matrix(DynkinSpec("A", 2)), BIGP)
        corrupted = type(seed)((rf("(x0+2)/x1", 2), seed.entries[1]), seed.matrix)
        with pytest.raises(NotDivisibleError):
            rf_mutate(corrupted, 0)

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
                    assert entry.den.is_monomial()


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


class TestGuards:
    def test_substituting_a_variable_outside_the_ring(self):
        with pytest.raises(InvalidVertexError, match=r"^variable 5 outside \[0, 2\)$"):
            rf("x0", 2).substitute(5, rf("x1", 2))

    def test_integer_evaluation_at_a_pole(self):
        with pytest.raises(DenominatorVanishesError, match="^x0$"):
            rf("1/x0", 2).evaluate_int((0, 1))

    def test_seed_needs_one_entry_per_row(self):
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 2))
        with pytest.raises(InvalidVertexError, match="^1 entries for a rank-2 matrix$"):
            SymbolicSeed((rf("x0", 2),), matrix)

    @pytest.mark.parametrize("exps", [(1,), (1, -1)], ids=["short", "negative"])
    def test_bad_exponent_vector(self, exps):
        with pytest.raises(InvalidPolynomialError, match="^bad exponent vector"):
            Polynomial(2, 5, {exps: 1})

    @pytest.mark.parametrize("nvars, p", [(1, 5), (2, 7)], ids=["variables", "modulus"])
    def test_mixed_rings(self, nvars, p):
        with pytest.raises(InvalidPolynomialError, match="^mixed variable counts or moduli$"):
            Polynomial.parse("x0", 2, 5) + Polynomial.parse("x0", nvars, p)

    def test_negative_power(self):
        with pytest.raises(InvalidPolynomialError, match="^negative polynomial power$"):
            Polynomial.parse("x0", 1, 5) ** -1

    def test_division_by_zero_polynomial(self):
        with pytest.raises(NotDivisibleError, match="^division by the zero polynomial$"):
            Polynomial.parse("x0", 1, 5).divide_exact(Polynomial.zero(1, 5))

    def test_monomial_content_of_zero(self):
        assert Polynomial.zero(3, 5).monomial_content() == (0, 0, 0)

    def test_evaluation_outside_the_ring(self):
        point = [GF32.one(), GF32.one()]
        with pytest.raises(InvalidPolynomialError, match="^coefficient modulus differs"):
            Polynomial.parse("x0", 2, 5).evaluate(point, GF32)
        with pytest.raises(InvalidPolynomialError, match="^point length differs"):
            Polynomial.parse("x0", 3, 2).evaluate(point, GF32)
        with pytest.raises(InvalidPolynomialError, match="^point length differs"):
            Polynomial.parse("x0", 3, 5).evaluate_int((1, 1))

    def test_reprs_show_the_text_form(self):
        assert repr(Polynomial.parse("x0^2+3*x1+1", 2, 5)) == "Polynomial('1 + 3*x1 + x0^2')"
        assert repr(rf("(x0+1)/x1", 2, 5)) == "RationalFunction('(1+x0)/x1')"

    def test_rational_function_is_not_equal_to_an_int(self):
        assert rf("1", 1, 5) != 1
        assert not rf("x0", 1, 5) == 1


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
    # the constructor's form is lowest terms whenever den is a monomial

    def test_monomial_content(self):
        frac = rf("(3*x0*x1+3*x1)/(2*x1)", 2, 5)
        assert frac.num == Polynomial.parse("4*x0+4", 2, 5)
        assert frac.den == Polynomial.one(2, 5)
        assert frac.canonical_key() == rf("4*x0+4", 2, 5).canonical_key()

    def test_already_reduced_unchanged(self):
        frac = rf("(x0*x2+1)/x1", 3, 5)
        assert frac.num == Polynomial.parse("x0*x2+1", 3, 5)
        assert frac.den == Polynomial.parse("x1", 3, 5)
        assert frac.canonical_key() == rf("(2*x0*x2+2)/(2*x1)", 3, 5).canonical_key()

    def test_canonical_key_rejects_non_monomial_denominator(self):
        with pytest.raises(NotClusterShapedError):
            rf("x0/(x1+1)", 2).canonical_key()


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
                values, numeric_matrix = apply_sequence(point, matrix, ks, gf)
            except MutationDivisionError:
                continue
            symbolic = apply_symbolic_sequence(initial_symbolic_seed(matrix, gf.p), ks)
            for entry, value in zip(symbolic.entries, values):
                assert entry.evaluate(point, gf) == value
            assert symbolic.matrix.rows == numeric_matrix.rows
            done += 1
