"""Exchange graphs, path counting, probabilities, certifications."""

from fractions import Fraction

import pytest

from clustercrypt.analysis import (
    A3_REFERENCE_CLUSTERS,
    EXCEPTIONAL_REFERENCE_ROWS,
    check_denominator_bijection,
    class_count_closed_form,
    cluster_variables,
    dfs_paths,
    enumerate_exchange_graph,
    enumerate_symbolic_seeds,
    key_recovery_probability,
    path_count,
    probability_closed_form,
    probability_report,
    verify_seed_list_a3,
)
from clustercrypt.cluster import (
    DynkinSpec,
    ExchangeMatrix,
    dynkin_exchange_matrix,
)
from clustercrypt.errors import BudgetExceededError, NotFiniteTypeError


def graph_for(family, rank, **kw):
    return enumerate_exchange_graph(
        dynkin_exchange_matrix(DynkinSpec(family, rank)), **kw
    )


PENTAGON = graph_for("A", 2)
A3_GRAPH = graph_for("A", 3)


class TestEnumeration:
    def test_a2_is_a_pentagon(self):
        assert PENTAGON.n_vertices == 5
        assert PENTAGON.n_edges == 5
        assert PENTAGON.is_regular()
        assert PENTAGON.is_connected()

    def test_a3_counts(self):
        assert A3_GRAPH.n_vertices == 14
        assert A3_GRAPH.labeled_seed_count == 84

    @pytest.mark.parametrize(
        "family,rank,expected",
        [("A", 4, 42), ("B", 2, 6), ("B", 3, 20), ("D", 4, 50)],
    )
    def test_closed_form_counts(self, family, rank, expected):
        graph = graph_for(family, rank)
        assert graph.n_vertices == expected
        assert graph.n_vertices == class_count_closed_form(family, rank)
        assert graph.is_regular()
        assert graph.is_connected()

    def test_rank8_count_matches_closed_form(self):
        graph = graph_for("D", 8, budget=20_000)
        assert graph.n_vertices == class_count_closed_form("D", 8) == 9438
        assert graph.is_regular()

    def test_orientation_independent_counts(self):
        linear = enumerate_exchange_graph(
            dynkin_exchange_matrix(DynkinSpec("A", 3, orientation=((0, 1), (1, 2))))
        )
        assert linear.n_vertices == A3_GRAPH.n_vertices

    def test_non_finite_rejected(self):
        markov = ExchangeMatrix(((0, 2, -2), (-2, 0, 2), (2, -2, 0)))
        with pytest.raises(NotFiniteTypeError):
            enumerate_exchange_graph(markov)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            graph_for("A", 4, budget=10)

    def test_budget_is_the_largest_allowed_vertex_count(self):
        assert graph_for("A", 3, budget=14).n_vertices == 14
        with pytest.raises(BudgetExceededError, match="exceeded 13 vertices"):
            graph_for("A", 3, budget=13)

    def test_a3_adjacency_is_pinned(self):
        assert A3_GRAPH.adjacency == (
            (1, 2, 3), (0, 4, 5), (0, 6, 7), (0, 5, 8), (1, 6, 9),
            (1, 3, 10), (2, 4, 11), (2, 8, 11), (3, 7, 12), (4, 10, 13),
            (5, 9, 12), (6, 7, 13), (8, 10, 13), (9, 11, 12),
        )

    def test_point_recorded_for_reproducibility(self):
        g1 = graph_for("A", 3)
        g2 = graph_for("A", 3)
        assert g1.point == g2.point and g1.prime == g2.prime
        assert g1.vertices == g2.vertices


class TestPathCounting:
    def test_closed_walks_on_pentagon(self):
        # 2-regular: exactly degree many closed 2-walks
        assert path_count(PENTAGON, 0, 0, 2) == 2

    def test_empty_walk(self):
        assert path_count(PENTAGON, 0, 0, 0) == 1
        assert path_count(PENTAGON, 0, 1, 0) == 0

    def test_length_one_is_adjacency(self):
        rows = PENTAGON.adjacency_matrix()
        for u in range(5):
            for v in range(5):
                assert path_count(PENTAGON, u, v, 1) == rows[u][v]

    @pytest.mark.parametrize("t", range(9))
    def test_total_walks_are_regular_powers(self, t):
        for graph in (PENTAGON, A3_GRAPH):
            total = sum(
                path_count(graph, 0, v, t) for v in range(graph.n_vertices)
            )
            assert total == graph.rank**t


class TestDfsPaths:
    def test_pentagon_adjacent_pair(self):
        u, v = 0, PENTAGON.adjacency[0][0]
        result = dfs_paths(PENTAGON, u, v, max_len=4)
        assert len(result.paths) == 2  # short arc and long arc
        assert not result.truncated
        lengths = sorted(len(p) - 1 for p in result.paths)
        assert lengths == [1, 4]

    def test_same_vertex_gives_empty_path(self):
        result = dfs_paths(PENTAGON, 2, 2)
        assert result.paths == ((2,),)

    def test_zero_budget_distinct_vertices(self):
        u, v = 0, PENTAGON.adjacency[0][0]
        result = dfs_paths(PENTAGON, u, v, max_len=0)
        assert result.paths == ()
        assert result.truncated

    def test_paths_are_simple_and_deterministic(self):
        result = dfs_paths(A3_GRAPH, 0, 5, max_len=6)
        assert result.paths == dfs_paths(A3_GRAPH, 0, 5, max_len=6).paths
        for path in result.paths:
            assert len(set(path)) == len(path)


class TestProbabilities:
    def test_a3_enumerated(self):
        row = key_recovery_probability("A", 3, A3_GRAPH)
        assert row.prob_enumerated == Fraction(1, 84)

    def test_a3_closed_form_mismatch_flagged(self):
        row = key_recovery_probability("A", 3, A3_GRAPH)
        # reference closed form r(r+2)/(2r+2)! = 15/40320
        assert row.prob_closed_form == Fraction(15, 40320)
        assert row.match is False
        assert row.note

    def test_b2_closed_form(self):
        row = key_recovery_probability("B", 2, graph_for("B", 2))
        assert row.prob_enumerated == Fraction(1, 12)
        assert row.prob_closed_form == Fraction(
            2, 24
        )  # r!/(2r)! at r=2
        assert row.match is True

    def test_d4_closed_form(self):
        row = key_recovery_probability("D", 4, graph_for("D", 4))
        assert row.match is True

    def test_closed_form_without_graph(self):
        row = key_recovery_probability("C", 5)
        assert row.classes_enumerated is None
        assert row.prob_closed_form == probability_closed_form("C", 5)
        assert row.match is None

    def test_report_contains_flag_and_reference_rows(self):
        rows = [
            key_recovery_probability("A", 3, A3_GRAPH),
            key_recovery_probability("B", 2, graph_for("B", 2)),
        ]
        text = probability_report(rows)
        assert "NO (flagged)" in text
        assert "not a probability" in text
        for family, rank, value in EXCEPTIONAL_REFERENCE_ROWS:
            assert value in text
        csv = probability_report(rows, fmt="csv")
        assert csv.splitlines()[0].startswith("family,rank,")
        assert "False" in csv


class TestSeedListCertification:
    def test_reference_list_has_14_clusters_and_9_variables(self):
        variables = {s for cluster in A3_REFERENCE_CLUSTERS for s in cluster}
        assert len(A3_REFERENCE_CLUSTERS) == 14
        assert len(variables) == 9

    def test_a3_enumeration_matches_reference_list(self):
        report = verify_seed_list_a3(A3_GRAPH)
        assert report.ok, (report.notes, report.unmatched_reference)
        assert len(report.matching) == 14
        listed = {j for _, j in report.matching}
        assert listed == set(range(14))

    def test_wrong_rank_graph_mismatches(self):
        report = verify_seed_list_a3(PENTAGON)
        assert not report.ok
        assert report.unmatched_reference == tuple(range(14))


class TestSymbolicEnumeration:
    def test_a2_five_seeds_five_variables(self):
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 2))
        assert len(enumerate_symbolic_seeds(matrix)) == 5
        assert len(cluster_variables(matrix)) == 5

    def test_budget_is_the_largest_allowed_seed_count(self):
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 2))
        assert len(enumerate_symbolic_seeds(matrix, budget=5)) == 5
        with pytest.raises(
            BudgetExceededError, match="symbolic enumeration exceeded 4 seeds"
        ):
            enumerate_symbolic_seeds(matrix, budget=4)

    def test_fingerprints_separate_variables(self):
        # distinct canonical forms must evaluate to distinct fingerprints
        # at the recorded point (the collision guard for enumeration)
        for graph, family, rank in (
            (PENTAGON, "A", 2),
            (A3_GRAPH, "A", 3),
        ):
            matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
            variables = cluster_variables(matrix, graph.prime)
            fingerprints = [v.evaluate_int(graph.point) for v in variables]
            assert len(set(fingerprints)) == len(variables)


class TestDenominatorBijection:
    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
    def test_bijection_with_almost_positive_roots(self, family, rank):
        report = check_denominator_bijection(
            dynkin_exchange_matrix(DynkinSpec(family, rank))
        )
        assert report.ok, report
        assert report.n_cluster_variables == report.n_almost_positive

    def test_a3_has_nine_variables(self):
        report = check_denominator_bijection(
            dynkin_exchange_matrix(DynkinSpec("A", 3))
        )
        assert report.n_cluster_variables == 9

    def test_initial_variables_map_to_negated_simples(self):
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 3))
        variables = cluster_variables(matrix)
        vectors = {v.denominator_vector() for v in variables}
        assert {(-1, 0, 0), (0, -1, 0), (0, 0, -1)} <= vectors
