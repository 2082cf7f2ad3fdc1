"""Exchange matrices and their DOT text, Dynkin constructors, numeric mutation.

quiver_mutate below is the arrow-level mutation rule, kept here as an
independent reference for matrix_mutate.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercrypt import crypto, fields
from clustercrypt.cluster import (
    DynkinSpec,
    ExchangeMatrix,
    apply_sequence,
    breadth_first,
    cartan_counterpart,
    classify_cartan,
    dynkin_edges,
    dynkin_exchange_matrix,
    is_finite_type,
    is_two_finite,
    matrix_mutate,
    numeric_mutate,
    standard_cartan,
)
from clustercrypt.errors import (
    InvalidMatrixError,
    InvalidSpecError,
    InvalidVertexError,
    MutationDivisionError,
)
from clustercrypt.fields import FieldParams

A5_MATRIX = (
    (0, 1, 0, 0, 0),
    (-1, 0, -1, 0, 0),
    (0, 1, 0, 1, 0),
    (0, 0, -1, 0, -1),
    (0, 0, 0, 1, 0),
)

D7_MATRIX = (
    (0, 1, 0, 0, 0, 0, 0),
    (-1, 0, -1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0, 0),
    (0, 0, -1, 0, -1, 0, 0),
    (0, 0, 0, 1, 0, 1, 1),
    (0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, -1, 0, 0),
)

EQ8_MATRIX = (
    (0, -1, 1, 0, 0),
    (1, 0, -1, 0, 0),
    (-1, 1, 0, -1, 1),
    (0, 0, 1, 0, -1),
    (0, 0, -1, 1, 0),
)

FINITE_SPECS = [
    DynkinSpec(family, rank)
    for family, ranks in (("A", range(2, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(4, 9)))
    for rank in ranks
]


def random_finite_matrix(rng):
    spec = rng.choice(FINITE_SPECS)
    matrix = dynkin_exchange_matrix(spec)
    for _ in range(rng.randrange(6)):
        matrix = matrix_mutate(matrix, rng.randrange(matrix.n))
    return matrix


class TestExchangeMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrixError):
            ExchangeMatrix(((0, 1), (-1, 0), (0, 0)))

    def test_rejects_sign_violation(self):
        with pytest.raises(InvalidMatrixError):
            ExchangeMatrix(((0, 1), (1, 0)))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidMatrixError):
            ExchangeMatrix(((1, 1), (-1, 0)))

    @pytest.mark.parametrize(
        "rows",
        [((0, 1.5), (-1, 0)), ((0, 1), (-1.0, 0)), ((0, True), (-1, 0))],
        ids=["float", "integral-float", "bool"],
    )
    def test_entries_are_strict_integers(self, rows):
        with pytest.raises(TypeError, match="must be an integer"):
            ExchangeMatrix(rows)


class TestDynkinConstructors:
    def test_a5_default_matches_worked_example(self):
        assert dynkin_exchange_matrix(DynkinSpec("A", 5)).rows == A5_MATRIX

    def test_d7_default_matches_worked_example(self):
        assert dynkin_exchange_matrix(DynkinSpec("D", 7)).rows == D7_MATRIX

    def test_a1_is_zero_matrix(self):
        assert dynkin_exchange_matrix(DynkinSpec("A", 1)).rows == ((0,),)

    def test_b2_valued_edge(self):
        assert dynkin_exchange_matrix(DynkinSpec("B", 2)).rows == ((0, 2), (-1, 0))

    def test_invalid_rank(self):
        with pytest.raises(InvalidSpecError):
            DynkinSpec("E", 5)
        with pytest.raises(InvalidSpecError):
            DynkinSpec("D", 3)

    def test_explicit_orientation(self):
        spec = DynkinSpec("A", 3, orientation=((0, 1), (1, 2)))
        assert dynkin_exchange_matrix(spec).rows == (
            (0, 1, 0),
            (-1, 0, 1),
            (0, -1, 0),
        )

    @pytest.mark.parametrize(
        "rank,orientation",
        [
            (5.7, "default"),
            (5.0, "default"),
            (True, "default"),
            (3, ((0, 1.0), (2, 1))),
            (3, ((0, 1), (True, 1))),
        ],
        ids=[
            "rank-float", "rank-integral-float", "rank-bool", "edge-float", "edge-bool"
        ],
    )
    def test_integers_are_strict(self, rank, orientation):
        with pytest.raises(TypeError, match="must be an integer"):
            DynkinSpec("A", rank, orientation)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DynkinSpec("X", 3), "^unknown family 'X'$"),
            (lambda: DynkinSpec("A", 3, "upward"), "^unknown orientation 'upward'$"),
            # both directions of edge (0,1) pass the count check and leave
            # edge (1,2) without a direction
            (
                lambda: dynkin_exchange_matrix(DynkinSpec("A", 3, ((0, 1), (1, 0)))),
                r"^edge \(1,2\) left undirected$",
            ),
        ],
        ids=["family", "orientation-name", "undirected-edge"],
    )
    def test_malformed_spec_is_named(self, build, message):
        with pytest.raises(InvalidSpecError, match=message):
            build()

    def test_default_orientation_is_distance_parity(self):
        # reference: each arrow runs from the end at even breadth-first
        # distance from vertex 0 to the end at odd distance
        diagrams = (
            [("A", r) for r in range(1, 31)]
            + [(family, r) for family in "BC" for r in range(2, 31)]
            + [("D", r) for r in range(4, 31)]
            + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
        )
        for family, rank in diagrams:
            edges = dynkin_edges(family, rank)
            neighbours = {v: [] for v in range(rank)}
            for i, j, _, _ in edges:
                neighbours[i].append(j)
                neighbours[j].append(i)
            depth, queue = {0: 0}, [0]
            for v in queue:
                for w in neighbours[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        queue.append(w)
            rows = [[0] * rank for _ in range(rank)]
            for i, j, wij, wji in edges:
                sign = 1 if depth[i] % 2 == 0 else -1
                rows[i][j], rows[j][i] = sign * wij, -sign * wji
            matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
            assert matrix.rows == tuple(map(tuple, rows)), f"{family}{rank}"

    def test_orientation_must_cover_all_edges(self):
        with pytest.raises(InvalidSpecError):
            dynkin_exchange_matrix(DynkinSpec("A", 3, orientation=((0, 1),)))

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 1), ("A", 5), ("B", 2), ("B", 6), ("C", 3), ("D", 4), ("D", 7),
         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_cartan_counterpart_is_standard(self, family, rank):
        matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
        assert cartan_counterpart(matrix) == standard_cartan(family, rank)


class TestCartanCounterpart:
    def test_a3(self):
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 3))
        assert cartan_counterpart(matrix) == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))

    def test_zero_matrix(self):
        assert cartan_counterpart(ExchangeMatrix(((0, 0), (0, 0)))) == ((2, 0), (0, 2))

    def test_b_type_rank2(self):
        assert cartan_counterpart(ExchangeMatrix(((0, 2), (-1, 0)))) == (
            (2, -2),
            (-1, 2),
        )


class TestMatrixMutation:
    def test_example_first_step(self):
        got = matrix_mutate(ExchangeMatrix(A5_MATRIX), 1)
        assert got.rows == (
            (0, -1, 0, 0, 0),
            (1, 0, 1, 0, 0),
            (0, -1, 0, 1, 0),
            (0, 0, -1, 0, -1),
            (0, 0, 0, 1, 0),
        )

    def test_example2_first_step(self):
        got = matrix_mutate(ExchangeMatrix(D7_MATRIX), 2)
        assert got.rows == (
            (0, 1, 0, 0, 0, 0, 0),
            (-1, 0, 1, 0, 0, 0, 0),
            (0, -1, 0, -1, 0, 0, 0),
            (0, 0, 1, 0, -1, 0, 0),
            (0, 0, 0, 1, 0, 1, 1),
            (0, 0, 0, 0, -1, 0, 0),
            (0, 0, 0, 0, -1, 0, 0),
        )

    def test_full_chain_reaches_known_matrix(self):
        matrix = ExchangeMatrix(A5_MATRIX)
        for k in (1, 4, 0, 3, 1):
            matrix = matrix_mutate(matrix, k)
        assert matrix.rows == EQ8_MATRIX

    def test_out_of_range_vertex(self):
        with pytest.raises(InvalidVertexError):
            matrix_mutate(ExchangeMatrix(A5_MATRIX), 5)

    def test_involution_randomized(self):
        rng = random.Random(101)
        for _ in range(1000):
            matrix = random_finite_matrix(rng)
            k = rng.randrange(matrix.n)
            assert matrix_mutate(matrix_mutate(matrix, k), k).rows == matrix.rows

    def test_preserves_sign_skew_symmetry(self):
        # construction re-validates, so surviving construction is the check
        rng = random.Random(103)
        for _ in range(300):
            matrix = random_finite_matrix(rng)
            matrix_mutate(matrix, rng.randrange(matrix.n))

    @staticmethod
    def _dense_mutate(rows, k):
        """The textbook rule on every entry: negate row and column k, and
        b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2 elsewhere."""
        n = len(rows)
        return tuple(
            tuple(
                -rows[i][j]
                if i == k or j == k
                else rows[i][j]
                + (abs(rows[i][k]) * rows[k][j] + rows[i][k] * abs(rows[k][j])) // 2
                for j in range(n)
            )
            for i in range(n)
        )

    @pytest.mark.parametrize(
        "family, rank",
        [("A", 6), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_matches_dense_rule_on_random_walks(self, family, rank):
        rng = random.Random(f"{family}{rank}")
        for _ in range(20):
            matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
            for _ in range(30):
                k = rng.randrange(rank)
                expected = self._dense_mutate(matrix.rows, k)
                matrix = matrix_mutate(matrix, k)
                assert matrix.rows == expected

    def test_matches_dense_rule_on_markov(self):
        matrix = ExchangeMatrix(MARKOV)
        rng = random.Random(107)
        for _ in range(100):
            k = rng.randrange(3)
            expected = self._dense_mutate(matrix.rows, k)
            matrix = matrix_mutate(matrix, k)
            assert matrix.rows == expected

    def test_leaving_sign_skew_symmetry_raises(self):
        # sign-skew-symmetric, not skew-symmetrizable: is_finite_type relies
        # on this error to stop its walk
        matrix = ExchangeMatrix(((0, 1, -1), (-1, 0, 1), (1, -2, 0)))
        with pytest.raises(
            InvalidMatrixError,
            match=r"^entries \(1,2\)=0 and \(2,1\)=-1 violate sign-skew-symmetry$",
        ):
            matrix_mutate(matrix, 0)


def quiver_mutate(arrows: dict, k: int) -> dict:
    """Three-step mutation at k of the quiver {(i, j): multiplicity of i -> j}.

    1. For every path i -> k -> j add multiplicity(i,k)*multiplicity(k,j)
       arrows i -> j.
    2. Cancel a maximal set of resulting 2-cycles.
    3. Reverse all arrows incident with k.
    """
    counts = dict(arrows)
    into_k = {i: m for (i, j), m in arrows.items() if j == k}
    out_of_k = {j: m for (i, j), m in arrows.items() if i == k}
    for i, a in into_k.items():
        for j, b in out_of_k.items():
            counts[(i, j)] = counts.get((i, j), 0) + a * b
    for (i, j) in list(counts):
        if i < j and (j, i) in counts:
            m = min(counts[(i, j)], counts[(j, i)])
            counts[(i, j)] -= m
            counts[(j, i)] -= m
    mutated = {}
    for (i, j), m in counts.items():
        if m:
            arrow = (j, i) if k in (i, j) else (i, j)
            mutated[arrow] = mutated.get(arrow, 0) + m
    return mutated


def quiver_of(matrix: ExchangeMatrix) -> dict:
    return {(i, j): m for i, row in enumerate(matrix.rows) for j, m in enumerate(row) if m > 0}


def matrix_of(n: int, arrows: dict) -> ExchangeMatrix:
    rows = [[0] * n for _ in range(n)]
    for (i, j), m in arrows.items():
        rows[i][j], rows[j][i] = m, -m
    return ExchangeMatrix(rows)


class TestQuiver:
    def test_pure_reversal(self):
        # 0 -> 1 <- 2 at k=1 reverses both arrows
        got = quiver_mutate({(0, 1): 1, (2, 1): 1}, 1)
        assert got == {(1, 0): 1, (1, 2): 1}

    def test_path_composition(self):
        # 0 -> 1 -> 2 at k=1 adds 0 -> 2 and reverses at 1
        got = quiver_mutate({(0, 1): 1, (1, 2): 1}, 1)
        assert got == {(0, 2): 1, (1, 0): 1, (2, 1): 1}

    def test_double_arrow_reversal(self):
        assert quiver_mutate({(0, 1): 2}, 1) == {(1, 0): 2}

    def test_rejects_two_cycles(self):
        # arrows 0 -> 1 and 1 -> 0 would need b_01 = b_10 = 1
        with pytest.raises(InvalidMatrixError, match="violate sign-skew-symmetry"):
            ExchangeMatrix(((0, 1), (1, 0)))

    def test_matrix_round_trip(self):
        matrix = ExchangeMatrix(A5_MATRIX)
        assert matrix_of(5, quiver_of(matrix)).rows == matrix.rows

    def test_from_matrix_rejects_valued(self):
        with pytest.raises(
            InvalidMatrixError,
            match="^only skew-symmetric matrices correspond to quivers$",
        ):
            ExchangeMatrix(((0, 2), (-1, 0))).to_dot()

    def test_commutes_with_matrix_mutation(self):
        rng = random.Random(107)
        specs = [DynkinSpec("A", r) for r in range(2, 7)] + [
            DynkinSpec("D", r) for r in range(4, 7)
        ]
        for _ in range(200):
            matrix = dynkin_exchange_matrix(rng.choice(specs))
            for _ in range(rng.randrange(5)):
                matrix = matrix_mutate(matrix, rng.randrange(matrix.n))
            k = rng.randrange(matrix.n)
            via_quiver = matrix_of(matrix.n, quiver_mutate(quiver_of(matrix), k))
            assert via_quiver.rows == matrix_mutate(matrix, k).rows

    def test_dot_export(self):
        dot = dynkin_exchange_matrix(DynkinSpec("A", 3)).to_dot()
        assert dot == "digraph quiver {\n  x0;\n  x1;\n  x2;\n  x0 -> x1;\n  x2 -> x1;\n}"

    def test_dot_labels_multiple_arrows(self):
        markov = ExchangeMatrix(((0, 2, -2), (-2, 0, 2), (2, -2, 0)))
        assert markov.to_dot() == (
            "digraph quiver {\n  x0;\n  x1;\n  x2;\n"
            '  x0 -> x1 [label="2"];\n'
            '  x1 -> x2 [label="2"];\n'
            '  x2 -> x0 [label="2"];\n}'
        )


class TestBreadthFirst:
    def test_discovery_order_and_neighbour_indices(self):
        # integers under x+1 and 2x, one state per residue mod 6; the
        # first representative found is kept (7, not the later 1)
        walk = breadth_first([0, 7, 1], lambda x: [x + 1, 2 * x], lambda x: x % 6)
        assert list(walk) == [
            (0, 0, [1, 0]),
            (1, 7, [2, 2]),
            (2, 8, [3, 4]),
            (3, 9, [4, 0]),
            (4, 16, [5, 2]),
            (5, 17, [0, 4]),
        ]

    def test_stops_early_without_expanding(self):
        expanded = []

        def neighbours(x):
            expanded.append(x)
            return [x + 1]

        for index, _, _ in breadth_first([0], neighbours, lambda x: x):
            if index == 3:
                break
        assert expanded == [0, 1, 2]


A3_DYNKIN = ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
MARKOV = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


class TestFiniteType:
    def test_dynkin_input_is_immediate(self):
        res = is_finite_type(dynkin_exchange_matrix(DynkinSpec("A", 3)))
        assert (res.family, res.rank) == ("A", 3)

    def test_known_scrambled_matrix(self):
        res = is_finite_type(ExchangeMatrix(EQ8_MATRIX))
        assert (res.family, res.rank) == ("A", 5)

    def test_markov_matrix_is_not_finite(self):
        markov = ExchangeMatrix(((0, 2, -2), (-2, 0, 2), (2, -2, 0)))
        assert is_finite_type(markov).verdict == "not_finite"

    def test_budget_verdict(self):
        markov = ExchangeMatrix(((0, 2, -2), (-2, 0, 2), (2, -2, 0)))
        assert is_finite_type(markov, budget=1).verdict in ("not_finite", "unknown")

    @pytest.mark.parametrize(
        "rows,budget,expected",
        [
            (A3_DYNKIN, 100_000, ("finite", "A", 3, 1)),
            (((0, 1, -1), (-1, 0, 1), (1, -1, 0)), 100_000, ("finite", "A", 3, 2)),
            (((0, 1, -1), (-1, 0, 1), (1, -1, 0)), 1, ("unknown", None, None, 1)),
            (MARKOV, 100_000, ("not_finite", None, None, 2)),
            (MARKOV, 2, ("not_finite", None, None, 2)),
            (MARKOV, 1, ("unknown", None, None, 1)),
            (MARKOV, 0, ("unknown", None, None, 0)),
            # not symmetrizable: the first mutation leaves sign-skew-symmetry
            (
                ((0, 1, -1), (-2, 0, 1), (1, -3, 0)),
                100_000,
                ("not_finite", None, None, 1),
            ),
        ],
    )
    def test_exact_results(self, rows, budget, expected):
        res = is_finite_type(ExchangeMatrix(rows), budget=budget)
        assert (res.verdict, res.family, res.rank, res.explored) == expected

    @pytest.mark.parametrize(
        "family,rank",
        [
            ("B", 3), ("C", 3), ("D", 5), ("G", 2),
            ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("A", 1),
        ],
    )
    def test_families_recognized_after_scrambling(self, family, rank):
        rng = random.Random(109)
        matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
        for _ in range(4):
            matrix = matrix_mutate(matrix, rng.randrange(matrix.n))
        res = is_finite_type(matrix)
        assert (res.family, res.rank) == (family, rank)

    @pytest.mark.parametrize(
        "rows",
        [
            ((0, 3, 0), (-2, 0, 1), (0, -1, 0)),
            ((0, 3, 0, 0), (-2, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0)),
        ],
        ids=["rank-3", "rank-4"],
    )
    def test_matrix_that_is_not_two_finite_is_not_finite(self, rows):
        # entries 3 and -2 on an edge: the first mutation keeps them, so the
        # walk stops there instead of running into its budget
        assert not is_two_finite(ExchangeMatrix(rows))
        res = is_finite_type(ExchangeMatrix(rows), budget=3000)
        assert (res.verdict, res.explored) == ("not_finite", 2)

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 5), ("B", 4), ("C", 4), ("D", 6), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_finite_type_classes_are_two_finite(self, family, rank):
        rng = random.Random(131)
        matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
        for _ in range(50):
            assert is_two_finite(matrix)
            matrix = matrix_mutate(matrix, rng.randrange(matrix.n))

    def test_classify_rejects_disconnected(self):
        assert classify_cartan(((2, 0), (0, 2))) is None


def cartan_of_tree(n, edges):
    """2 on the diagonal, a_ij and a_ji for each edge (i, j, a_ij, a_ji), else 0."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a_ij, a_ji in edges:
        rows[i][j], rows[j][i] = a_ij, a_ji
    return tuple(map(tuple, rows))


def tree_with_arms(*lengths):
    """Simply laced tree: arms of the given lengths hung from vertex 0."""
    edges, n = [], 1
    for length in lengths:
        previous = 0
        for _ in range(length):
            edges.append((previous, n, -1, -1))
            previous, n = n, n + 1
    return cartan_of_tree(n, edges)


class TestClassifyCartan:
    @pytest.mark.parametrize(
        "family,rank",
        [("A", r) for r in range(1, 9)]
        + [("B", r) for r in range(2, 9)]
        + [("C", r) for r in range(2, 9)]
        + [("D", r) for r in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_every_relabelling_is_its_own_type(self, family, rank):
        # B_n and C_n differ for n >= 3 only in which end row holds the -2
        cartan = standard_cartan(family, rank)
        # the rank-2 double edge is B_2 and C_2 alike and is reported as B_2
        expected = ("B", 2) if (family, rank) == ("C", 2) else (family, rank)
        rng = random.Random(f"{family}{rank}")
        for _ in range(20):
            perm = list(range(rank))
            rng.shuffle(perm)
            relabelled = tuple(
                tuple(cartan[perm[i]][perm[j]] for j in range(rank)) for i in range(rank)
            )
            assert classify_cartan(relabelled) == expected

    @pytest.mark.parametrize(
        "cartan",
        [
            tree_with_arms(1, 2, 5),
            tree_with_arms(2, 2, 2),
            tree_with_arms(1, 3, 3),
            tree_with_arms(1, 1, 1, 1),
            # D5~: two branch vertices joined by an edge
            cartan_of_tree(
                6,
                [(0, 2, -1, -1), (1, 2, -1, -1), (2, 3, -1, -1),
                 (3, 4, -1, -1), (3, 5, -1, -1)],
            ),
            cartan_of_tree(2, [(0, 1, -2, -2)]),
            cartan_of_tree(2, [(0, 1, -4, -1)]),
        ],
        ids=["arms-1-2-5", "arms-2-2-2", "arms-1-3-3", "K_1_4", "D5-affine", "2-2", "4-1"],
    )
    def test_valued_trees_that_are_not_dynkin(self, cartan):
        assert classify_cartan(cartan) is None

    @pytest.mark.parametrize(
        "cartan",
        [
            ((1, 0), (0, 2)),
            # a triangle and an isolated vertex: n - 1 edges, not connected
            ((2, -1, -1, 0), (-1, 2, -1, 0), (-1, -1, 2, 0), (0, 0, 0, 2)),
        ],
        ids=["diagonal-1", "triangle-and-point"],
    )
    def test_matrices_that_are_no_cartan_tree(self, cartan):
        assert classify_cartan(cartan) is None

    def test_long_chain_classifies_without_recursion(self):
        # far past the interpreter's recursion limit
        n = 1500
        cartan = cartan_of_tree(n, [(i, i + 1, -1, -1) for i in range(n - 1)])
        start = time.perf_counter()
        assert classify_cartan(cartan) == ("A", n)
        assert time.perf_counter() - start < 2


GF5 = FieldParams(5, 1, (3, 1))  # GF(5) itself: f = x + 3 is degree 1


class TestNumericSeeds:
    def test_rank2_hand_computation(self):
        matrix = ExchangeMatrix(((0, 1), (-1, 0)))
        values, out = apply_sequence(((2,), (3,)), matrix, [0], GF5)
        # (3 + 1) / 2 = 2 in GF(5)
        assert values == ((2,), (3,))
        assert out.rows == ((0, -1), (1, 0))
        assert numeric_mutate(((2,), (3,)), matrix.rows[0], 0, GF5) == values

    def test_zero_value_raises_with_position(self):
        with pytest.raises(MutationDivisionError) as err:
            numeric_mutate(((0,), (3,)), (0, 1), 0, GF5)
        assert err.value.vertex == 0
        assert err.value.step is None

    def test_sequence_error_carries_step(self):
        matrix = ExchangeMatrix(((0, 1), (-1, 0)))
        # 0 appears at position 1: mutating there on step 2 must fail
        with pytest.raises(MutationDivisionError) as err:
            apply_sequence(((1,), (0,)), matrix, [0, 1], GF5)
        assert err.value.step == 2

    def test_empty_sequence_is_identity(self):
        matrix = ExchangeMatrix(A5_MATRIX)
        gf32 = FieldParams(2, 5, (1, 0, 1, 0, 0, 1))
        values = tuple(gf32.alpha_power(i) for i in range(5))
        assert apply_sequence(values, matrix, [], gf32) == (values, matrix)

    def test_double_mutation_restores_seed(self):
        gf32 = FieldParams(2, 5, (1, 0, 1, 0, 0, 1))
        values = tuple(gf32.alpha_power(i) for i in range(5))
        matrix = ExchangeMatrix(A5_MATRIX)
        assert apply_sequence(values, matrix, [2, 2], gf32) == (values, matrix)

    def test_worked_example_position4(self):
        # after [1,4,0,3,1] from the alpha-power seed, position 4 holds
        # (alpha^3 + 1)/alpha^4 = integer 25
        gf32 = FieldParams(2, 5, (1, 0, 1, 0, 0, 1))
        values = tuple(gf32.alpha_power(i) for i in range(5))
        out, _ = apply_sequence(values, ExchangeMatrix(A5_MATRIX), [1, 4, 0, 3, 1], gf32)
        assert fields.element_to_int(out[4], gf32) == 25

    def test_numeric_involution_randomized(self):
        rng = random.Random(113)
        gf = FieldParams(7, 2, (3, 1, 1))  # x^2 + x + 3 irreducible over Z_7
        for _ in range(300):
            matrix = random_finite_matrix(rng)
            values = tuple(
                fields.random_element(rng, gf, nonzero=True) for _ in range(matrix.n)
            )
            k = rng.randrange(matrix.n)
            try:
                once = numeric_mutate(values, matrix.rows[k], k, gf)
                # the reverse step reads row k of the mutated matrix
                twice = numeric_mutate(once, matrix_mutate(matrix, k).rows[k], k, gf)
            except MutationDivisionError:
                continue
            assert twice == values

    def test_matrix_leaving_sign_skew_symmetry_names_the_step(self):
        # sign-skew-symmetric but not skew-symmetrizable: the second step
        # leaves sign-skew-symmetry, which is checked before the zero value
        matrix = ExchangeMatrix(((0, -2, 1), (1, 0, -2), (-1, 2, 0)))
        with pytest.raises(InvalidMatrixError) as err:
            apply_sequence(((0,), (1,), (0,)), matrix, [1, 0], GF5)
        assert str(err.value) == (
            "entries (1,2)=-1 and (2,1)=0 violate sign-skew-symmetry at step 2"
        )

    def test_matrix_leaving_the_two_finite_matrices_names_the_step(self):
        # step 1 reads the input row; step 2 would read row 1 of
        # ((0, -3), (2, 0)), where |b_01 b_10| = 6
        matrix = ExchangeMatrix(((0, 3), (-2, 0)))
        with pytest.raises(InvalidMatrixError) as err:
            apply_sequence(((1,), (2,)), matrix, [0, 1], GF5)
        assert str(err.value) == "matrix is not 2-finite at step 2"


NEGATION_FIELDS = (
    FieldParams(2, 5, (1, 0, 1, 0, 0, 1)),
    FieldParams(7, 2, (3, 1, 1)),
    FieldParams(101, 7, (46, 0, 1, 1, 0, 74, 0, 1)),
)
# B3 and G2 reach rows with |b| = 2 and 3
NEGATION_SPECS = (DynkinSpec("A", 5), DynkinSpec("D", 7), DynkinSpec("B", 3), DynkinSpec("G", 2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(NEGATION_FIELDS), st.sampled_from(NEGATION_SPECS), st.data())
def test_negated_row_gives_the_same_value(field, spec, data):
    # the two monomials swap places: decryption's backward row walk rests on this
    matrix = dynkin_exchange_matrix(spec)
    vertex = st.integers(0, matrix.n - 1)
    for k in data.draw(st.lists(vertex, max_size=12)):
        matrix = matrix_mutate(matrix, k)
    k = data.draw(vertex)
    element = st.integers(1, field.q - 1).map(lambda n: fields.int_to_element(n, field))
    values = tuple(data.draw(st.lists(element, min_size=matrix.n, max_size=matrix.n)))
    row = matrix.rows[k]
    out = numeric_mutate(values, row, k, field)
    assert numeric_mutate(values, tuple(-b for b in row), k, field) == out
    assert out[:k] + out[k + 1:] == values[:k] + values[k + 1:]


def _first_monic_irreducible(p, r):
    """The first monic irreducible f of degree r over Z_p, in integer order of its low digits."""
    for n in range(p**r):
        f = [n // p**i % p for i in range(r)] + [1]
        if fields.is_irreducible(f, p):
            return tuple(f)


# both above TABLE_MAX_Q, so every exchange step goes through the memo
MEMO_PARAMS = (
    crypto.SystemParams(FieldParams(101, 7, (46, 0, 1, 1, 0, 74, 0, 1)), DynkinSpec("D", 7)),
    crypto.SystemParams(FieldParams(3, 8, _first_monic_irreducible(3, 8)), DynkinSpec("A", 8)),
)


def _fold(values, key, rows, field, clear):
    """numeric_mutate over the schedule's rows: (values, failing step or None)."""
    for step, (k, row) in enumerate(zip(key.seq, rows), start=1):
        if clear:
            field._inverses.clear()
        try:
            values = numeric_mutate(values, row, k, field)
        except MutationDivisionError:
            return values, step
    return values, None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(MEMO_PARAMS), st.integers(0, 2**32 - 1), st.integers(2, 24), st.data())
def test_remembered_inverses_fold_like_fresh_ones(params, rng_seed, t, data):
    # letters repeat, so folds of one key share divisors; letter 0 at k0
    # fails at the key's first k0 step. A bound of 3 clears the memo often
    field = params.field
    key = crypto.keygen(rng_seed, params, t)
    _, rows, _ = crypto._schedule(params, key)
    letters = data.draw(st.lists(st.integers(0, 26), min_size=1, max_size=6))
    starts = []
    for number in letters:
        values = [field.alpha_power(i) for i in range(field.r)]
        values[key.k0] = fields.int_to_element(number, field)
        starts.append(tuple(values))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields, "INVERSE_MEMO_MAX", 3)
        field._inverses.clear()
        remembered = []
        for values in starts:
            remembered.append(_fold(values, key, rows, field, clear=False))
            assert len(field._inverses) <= 3
        fresh = [_fold(values, key, rows, field, clear=True) for values in starts]
    assert remembered == fresh
    if 0 in letters:
        assert remembered[letters.index(0)][1] == key.seq.index(key.k0) + 1


def test_a_zero_divisor_raises_and_is_not_remembered():
    field = FieldParams(101, 7, (46, 0, 1, 1, 0, 74, 0, 1))
    values = tuple(field.alpha_power(i) for i in range(7))
    values = values[:3] + (field.zero(),) + values[4:]
    rows = dynkin_exchange_matrix(DynkinSpec("D", 7)).rows
    with pytest.raises(MutationDivisionError) as err:
        numeric_mutate(values, rows[3], 3, field)
    assert err.value.vertex == 3
    assert field._inverses == {}
    numeric_mutate(values, rows[2], 2, field)  # a nonzero divisor is kept
    assert list(field._inverses) == [values[2]]
