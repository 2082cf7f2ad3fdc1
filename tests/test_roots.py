"""Root systems: generation, counts, symmetrizers, axiom checks."""

from fractions import Fraction

import pytest

from clustercrypt.cluster import standard_cartan
from clustercrypt.errors import InvalidMatrixError, NotFiniteTypeError
from clustercrypt.roots import (
    check_root_axioms,
    generate_root_system,
    symmetrizer,
)

# classical root counts: (total, positive)
CLASSICAL_COUNTS = {
    ("A", 1): (2, 1),
    ("A", 2): (6, 3),
    ("A", 3): (12, 6),
    ("A", 8): (72, 36),
    ("B", 2): (8, 4),
    ("B", 3): (18, 9),
    ("B", 8): (128, 64),
    ("C", 3): (18, 9),
    ("C", 8): (128, 64),
    ("D", 4): (24, 12),
    ("D", 8): (112, 56),
    ("E", 6): (72, 36),
    ("E", 7): (126, 63),
    ("E", 8): (240, 120),
    ("F", 4): (48, 24),
    ("G", 2): (12, 6),
}


class TestGeneration:
    @pytest.mark.parametrize("family,rank", sorted(CLASSICAL_COUNTS))
    def test_counts_match_classical_values(self, family, rank):
        total, positive = CLASSICAL_COUNTS[(family, rank)]
        rs = generate_root_system(standard_cartan(family, rank))
        assert len(rs.roots) == total
        assert len(rs.positive) == positive
        assert len(rs.negative) == positive
        assert len(rs.almost_positive) == positive + rank

    def test_a2_explicit(self):
        rs = generate_root_system(standard_cartan("A", 2))
        assert set(rs.positive) == {(1, 0), (0, 1), (1, 1)}

    def test_b2_explicit(self):
        rs = generate_root_system(standard_cartan("B", 2))
        assert set(rs.positive) == {(1, 0), (0, 1), (1, 1), (1, 2)}

    def test_rank_one(self):
        rs = generate_root_system(((2,),))
        assert set(rs.roots) == {(1,), (-1,)}
        assert len(rs.almost_positive) == 2

    @pytest.mark.parametrize(
        "cartan",
        [((2, -1.5), (-1, 2)), ((2.0, -1), (-1, 2))],
        ids=["off-diagonal-float", "diagonal-float"],
    )
    def test_entries_are_strict_integers(self, cartan):
        with pytest.raises(TypeError, match="must be an integer"):
            generate_root_system(cartan)

    def test_infinite_type_rejected(self):
        with pytest.raises(NotFiniteTypeError):
            generate_root_system(((2, -2), (-2, 2)), bound=100)

    def test_bound_is_the_largest_allowed_root_count(self):
        assert len(generate_root_system(standard_cartan("G", 2), bound=12).roots) == 12
        with pytest.raises(NotFiniteTypeError, match="exceeded 11 roots"):
            generate_root_system(standard_cartan("G", 2), bound=11)

    def test_negation_symmetry(self):
        rs = generate_root_system(standard_cartan("D", 5))
        roots = set(rs.roots)
        assert all(tuple(-x for x in r) in roots for r in roots)


class TestSymmetrizer:
    def test_simply_laced_is_trivial(self):
        assert symmetrizer(standard_cartan("A", 4)) == (1, 1, 1, 1)

    def test_b2_short_root(self):
        # last simple root is short: half the squared length
        assert symmetrizer(standard_cartan("B", 2)) == (1, Fraction(1, 2))

    def test_c3(self):
        assert symmetrizer(standard_cartan("C", 3)) == (1, 1, 2)

    def test_g2(self):
        d = symmetrizer(standard_cartan("G", 2))
        assert d[0] / d[1] in (Fraction(3), Fraction(1, 3))

    def test_validates_input(self):
        with pytest.raises(InvalidMatrixError):
            symmetrizer(((2, 1), (1, 2)))  # positive off-diagonal
        with pytest.raises(InvalidMatrixError):
            symmetrizer(((2, -1), (0, 2)))  # asymmetric zero pattern


class TestAxioms:
    @pytest.mark.parametrize(
        "family,rank",
        [("A", 3), ("B", 4), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)],
    )
    def test_axioms_hold(self, family, rank):
        rs = generate_root_system(standard_cartan(family, rank))
        report = check_root_axioms(rs)
        assert report.ok, report.failures[:5]

    def test_pairings_are_integral(self):
        rs = generate_root_system(standard_cartan("G", 2))
        for alpha in rs.roots:
            for beta in rs.roots:
                assert rs.pairing(beta, alpha).denominator == 1

    def test_reflection_fixes_orthogonal(self):
        rs = generate_root_system(standard_cartan("A", 3))
        # alpha_0 and alpha_2 are orthogonal in A_3
        assert rs.reflect((0, 0, 1), (1, 0, 0)) == (0, 0, 1)

    def test_reflection_negates_self(self):
        rs = generate_root_system(standard_cartan("B", 3))
        for alpha in rs.simple:
            assert rs.reflect(alpha, alpha) == tuple(-x for x in alpha)
