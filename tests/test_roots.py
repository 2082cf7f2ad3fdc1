"""Root systems: generation, counts, symmetrizers, axiom checks."""

import hashlib
from dataclasses import replace
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

    @pytest.mark.parametrize(
        "cartan, message",
        [
            (((2, -1),), "^Cartan matrix must be square$"),
            (((1, -1), (-1, 2)), r"^diagonal entry \(0,0\) must be 2$"),
        ],
        ids=["not-square", "diagonal"],
    )
    def test_generation_validates_the_shape(self, cartan, message):
        with pytest.raises(InvalidMatrixError, match=message):
            generate_root_system(cartan)

    @pytest.mark.parametrize("build", [symmetrizer, generate_root_system])
    def test_symmetric_zero_pattern_without_symmetrizer(self, build):
        # edges 0-1 and 0-2 force d_1 = d_0 and d_2 = 2 d_0, edge 1-2 d_1 = d_2
        cartan = ((2, -1, -1), (-1, 2, -1), (-2, -1, 2))
        with pytest.raises(InvalidMatrixError, match="^matrix is not symmetrizable$"):
            build(cartan)


class TestAxioms:
    @pytest.mark.parametrize(
        "family,rank",
        [("A", 3), ("B", 3), ("B", 4), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)],
    )
    def test_axioms_hold(self, family, rank):
        rs = generate_root_system(standard_cartan(family, rank))
        report = check_root_axioms(rs)
        assert report.ok, report.failures[:5]

    def test_reports_broken_reflections_and_pairings(self):
        # check_root_axioms is the one home of root pairings and
        # reflections: a missing root must break R3, a skewed Gram R4
        rs = generate_root_system(standard_cartan("G", 2))
        short = replace(
            rs,
            roots=tuple(r for r in rs.roots if r != (2, 3)),
            positive=tuple(r for r in rs.positive if r != (2, 3)),
        )
        assert "R3: s_(1, 0) does not permute R" in check_root_axioms(short).failures
        gram = ((2 * rs.gram[0][0], rs.gram[0][1]), rs.gram[1])
        assert "R4: <(1, 3),(1, 0)> not integral" in check_root_axioms(
            replace(rs, gram=gram)
        ).failures


# the systems of acceptance check C11
C11_SYSTEMS = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def broken_copies(rs):
    """Faulty copies of rs (four, three at rank 1), each with a positive definite Gram."""
    n = rs.rank
    top = rs.roots[-1]
    yield replace(
        rs, roots=rs.roots[:-1], positive=tuple(r for r in rs.positive if r != top)
    )
    double = (2,) + (0,) * (n - 1)
    yield replace(rs, roots=rs.roots + (double,), positive=rs.positive + (double,))
    if n >= 2:
        yield replace(rs, roots=rs.roots + ((1, -1) + (0,) * (n - 2),))
    gram = [list(row) for row in rs.gram]
    gram[0][0] *= 3
    yield replace(rs, gram=tuple(map(tuple, gram)))


def with_off_diagonal_doubled(rs):
    """gram[0][1] and gram[1][0] doubled: a Gram that is not positive definite."""
    gram = [list(row) for row in rs.gram]
    gram[0][1] *= 2
    gram[1][0] *= 2
    return replace(rs, gram=tuple(map(tuple, gram)))


# sha256 of repr([(ok, failures), ...]) over C11_SYSTEMS, each system followed
# by broken_copies; computed with the Fraction ratio scan that R2 used before
# roots were grouped by direction
PINNED_REPORTS = "176f5fe42e30a1ae99d4d523fcaafb8b3427de2dd5ebe6c945e16e475ee490f9"


class TestAxiomReports:
    def test_reports_are_pinned(self):
        reports = []
        for family, rank in C11_SYSTEMS:
            rs = generate_root_system(standard_cartan(family, rank))
            for system in (rs, *broken_copies(rs)):
                report = check_root_axioms(system)
                reports.append((report.ok, report.failures))
        assert len(reports) == 159
        assert sum(not ok for ok, _ in reports) == 126
        digest = hashlib.sha256(repr(reports).encode()).hexdigest()
        assert digest == PINNED_REPORTS

    def test_doubled_simple_root_breaks_r2(self):
        rs = generate_root_system(standard_cartan("B", 3))
        report = check_root_axioms(replace(rs, roots=rs.roots + ((2, 0, 0),)))
        assert [f for f in report.failures if f.startswith("R2")] == [
            "R2: (2, 0, 0) is a multiple of (-1, 0, 0)",
            "R2: (2, 0, 0) is a multiple of (1, 0, 0)",
            "R2: (-1, 0, 0) is a multiple of (2, 0, 0)",
        ]

    def test_zero_vector_is_reported(self):
        rs = generate_root_system(standard_cartan("A", 2))
        report = check_root_axioms(replace(rs, roots=rs.roots + ((0, 0),)))
        assert report.failures == ("R1: contains the zero vector", "R = R+ union R- fails")

    def test_gram_that_is_not_positive_definite_is_reported(self):
        # (1,1) has norm 0: it is named and is no reflection centre
        report = check_root_axioms(
            with_off_diagonal_doubled(generate_root_system(standard_cartan("A", 2)))
        )
        assert [f for f in report.failures if f.startswith("inner product")] == [
            "inner product: ((-1, -1),(-1, -1)) <= 0",
            "inner product: ((1, 1),(1, 1)) <= 0",
        ]
        assert "R3: s_(1, 0) does not permute R" in report.failures

    @pytest.mark.parametrize("family,rank", [s for s in C11_SYSTEMS if s[1] > 1])
    def test_doubled_off_diagonal_names_a_nonpositive_norm(self, family, rank):
        rs = with_off_diagonal_doubled(generate_root_system(standard_cartan(family, rank)))
        report = check_root_axioms(rs)
        assert any(f.startswith("inner product: ") for f in report.failures)
