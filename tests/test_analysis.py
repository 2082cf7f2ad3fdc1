"""Exchange graphs, path counting, probabilities, certifications."""

import hashlib
from fractions import Fraction

import pytest

from clustercrypt import analysis
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
    probability_report,
    verify_seed_list_a3,
)
from clustercrypt.cluster import (
    DynkinSpec,
    ExchangeMatrix,
    dynkin_exchange_matrix,
)
from clustercrypt.errors import BudgetExceededError, NotFiniteTypeError
from clustercrypt.symbolic import RationalFunction


def graph_for(family, rank, **kw):
    return enumerate_exchange_graph(
        dynkin_exchange_matrix(DynkinSpec(family, rank)), **kw
    )


def count_matrix_mutations(monkeypatch):
    """Record the vertex of every matrix mutation the walks make."""
    calls = []
    mutate = analysis.matrix_mutate

    def counted(matrix, k):
        calls.append(k)
        return mutate(matrix, k)

    monkeypatch.setattr(analysis, "matrix_mutate", counted)
    return calls


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

    def test_graph_without_vertices_is_not_connected(self):
        empty = analysis.ExchangeGraph(
            rank=2, vertices=(), adjacency=(), initial_vertex=0,
            prime=PENTAGON.prime, point=PENTAGON.point,
        )
        assert not empty.is_connected()

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

    # sha256 of repr((vertices, adjacency)) before vertices were keyed by
    # cluster alone: the rekeying must not move a vertex, an edge or a row
    @pytest.mark.parametrize(
        "family,rank,digest",
        [
            ("A", 3, "0117f2108a72d8af76a26d4184c3ca8ef85bd2d306e7384acbf341b31395106f"),
            ("B", 3, "426a7de4a2812989bf962f34e99340b3ca784756eb831f3df94e037a510fb95a"),
            ("C", 4, "3e5a3a9db566171308cdd393f52c8e24743fbe1aede9a953e070956a01f42572"),
            ("D", 4, "a49a2f3bde76ae03ea21f637cae0b78447c6ac27f310dcdb2b6b098b8200971b"),
            ("G", 2, "76e098b58db6c4c82ae6d13d0fceea0f1f0071a2c543f2215b9f69419f4b6f6c"),
            ("F", 4, "2f64471d54f80e35b6031e1c65b2429c9b6f3b4386c43f98db9cdf75219d5733"),
            ("E", 6, "b461db0cd9c9f5cb3a8d1f8bced9afc1a2c250016e743fd36d4fab98c838a6e6"),
            # the larger graphs the benchmark enumerates, taken while every
            # neighbour's matrix was still built: building each class's
            # matrix once must not move a vertex, an edge or a row either
            ("D", 6, "618bf4f14312baf3d7b44cd95ceaa5049b999257f1c7b33ead344955c9274843"),
            ("A", 7, "93b80955bcae74a8dd7ff64c46d009f0df719889d8e8813e653e309cef4b7970"),
            ("E", 7, "233eb995987bc25c3f9035049cf60428c6e4d3ede4fefbfaae07230b9120a03f"),
            ("A", 8, "2d4b39bbc46fc83eb513856cc0ad70d670c7eb45892b2f1fa7fa97f7ae8f0b2f"),
            ("D", 7, "85dacfaa858346138fdf1c068b8cd80cc3e7aca197ed3c85ec773fda69c4ce93"),
            ("B", 6, "3d29d530f6f64462eb242efb4d379569826cac9ac636d6ac5f53f961d571f728"),
            ("C", 6, "f936b458ac38b0007f2dab949e2856048e993486834ba75e1a332ac0f259e7fb"),
        ],
    )
    def test_graph_digest_is_pinned(self, family, rank, digest):
        graph = graph_for(family, rank)
        text = repr((graph.vertices, graph.adjacency))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "family,rank", [("A", 3), ("B", 3), ("D", 4), ("E", 6), ("G", 2)]
    )
    def test_each_class_matrix_is_built_once(self, monkeypatch, family, rank):
        calls = count_matrix_mutations(monkeypatch)
        graph = graph_for(family, rank)
        assert len(calls) == graph.n_vertices - 1

    def test_edge_symmetry_rejects_merged_clusters(self):
        # At (1, 4) mod 11 two B2 clusters share a fingerprint multiset.
        # Keyed by cluster, the walk merges them: five classes, each with
        # two distinct neighbours, but some edge is not returned. The walk
        # from one start is connected whatever it merged, so only the
        # symmetry of the edges can reject it.
        matrix = dynkin_exchange_matrix(DynkinSpec("B", 2))
        p = 11
        seeds, neighbors = analysis._walk_seed_classes(
            (1, 4), matrix, lambda value: value,
            lambda values, b, k: analysis._mutate_values(values, b.rows, k, p),
            100, "over budget",
        )
        assert len(seeds) == 5
        assert all(u not in nbrs and len(set(nbrs)) == 2 for u, nbrs in enumerate(neighbors))
        assert any(u not in neighbors[v] for u, nbrs in enumerate(neighbors) for v in nbrs)
        with pytest.raises(analysis._PointCollision):
            analysis._enumerate_at_point(matrix, (1, 4), p, 100)

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
        for u in range(5):
            for v in range(5):
                assert path_count(PENTAGON, u, v, 1) == PENTAGON.adjacency[u].count(v)

    @pytest.mark.parametrize("t", range(9))
    def test_total_walks_are_regular_powers(self, t):
        for graph in (PENTAGON, A3_GRAPH):
            total = sum(
                path_count(graph, 0, v, t) for v in range(graph.n_vertices)
            )
            assert total == graph.rank**t

    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 3), ("D", 4)])
    def test_matches_dense_matrix_powers(self, family, rank):
        # oracle: (M^t)_{uv} from the dense adjacency matrix, one power at a time
        graph = graph_for(family, rank)
        n = graph.n_vertices
        adjacency = [[graph.adjacency[u].count(v) for v in range(n)] for u in range(n)]
        power = [[int(u == v) for v in range(n)] for u in range(n)]
        for t in range(13):
            for u in range(n):
                for v in range(n):
                    assert path_count(graph, u, v, t) == power[u][v]
            power = [
                [sum(power[u][w] * adjacency[w][v] for w in range(n)) for v in range(n)]
                for u in range(n)
            ]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            path_count(PENTAGON, 0, 0, -1)

    @pytest.mark.parametrize("u,v", [(-5, 0), (0, -5), (-5, -5), (5, 0), (0, 5), (-1, 4)])
    def test_vertex_outside_graph_rejected(self, u, v):
        # a negative index must not wrap round to a real vertex
        with pytest.raises(ValueError, match="outside"):
            path_count(PENTAGON, u, v, 2)


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

    @pytest.mark.parametrize("u,v", [(-5, 1), (0, 7), (5, 0), (0, -1)])
    def test_vertex_outside_graph_rejected(self, u, v):
        # -5 used to wrap round to vertex 0 and give the path (-5, 2, 0, 1);
        # 7 used to give no paths with truncated=True
        with pytest.raises(ValueError, match="outside"):
            dfs_paths(PENTAGON, u, v, max_len=4)

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

    def test_rank_3_graph_of_another_type_is_not_linked(self):
        # B3's graph has rank 3 and 20 vertices; A3's 14 symbolic seeds
        # still match the reference list, and 4 of them meet a B3 vertex
        report = verify_seed_list_a3(graph_for("B", 3))
        assert not report.ok
        assert len(report.matching) == 14
        assert report.notes == (
            "graph/symbolic mismatch: 20 graph vertices, 14 symbolic seeds, 4 linked",
        )

    def test_a_seed_repeated_by_wrong_arithmetic_is_unmatched(self, monkeypatch):
        # a faulty mutation that returns an earlier seed again: the repeat
        # finds its reference cluster taken, and the cluster it replaced
        # goes unmatched
        enumerate_seeds = analysis.enumerate_symbolic_seeds

        def faulty(matrix):
            seeds = enumerate_seeds(matrix)
            return seeds[:-1] + [seeds[0]]

        monkeypatch.setattr(analysis, "enumerate_symbolic_seeds", faulty)
        report = verify_seed_list_a3(A3_GRAPH)
        assert not report.ok
        assert report.unmatched_enumerated == (13,) and len(report.matching) == 13
        assert len(report.unmatched_reference) == 1 and report.notes == ()


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
            variables = cluster_variables(matrix)
            fingerprints = [v.evaluate_int(graph.point) for v in variables]
            assert len(set(fingerprints)) == len(variables)


    # sha256 of repr(sorted canonical keys), computed while keys were still
    # taken after a polynomial-gcd reduction: the constructor's form over a
    # monomial denominator must give every variable the same key
    @pytest.mark.parametrize(
        "family,rank,digest",
        [
            ("A", 3, "71cc8bf428f918ca9abd56051ca1537750255d39485c18280bc2e00c6d83e519"),
            ("A", 4, "6e332c9c16f98ae15a1edc454e518722c3a44240b1568f6a95d9169f8378f4d1"),
            ("B", 3, "49968f93f4b6b4e2c11e9029a3f823251ec18eada762958a4fb20a067285562f"),
            ("C", 3, "6e06b225c36ed50ec3dad94b75aa421af9119bbfb49a46e19964e69db2ed4eea"),
            ("B", 4, "dda9c83d6bb21f61420a8e5692ca3c21c380bcb3c8f82afb776ec56af1ae6b35"),
            ("C", 4, "9d9ffa44a2beaa8bc5c68682cfd028df3d597dbe43a109e9cb67bf58a637a165"),
            ("D", 4, "8edc0cccf3aa2ce9cedd6e116473da1feceab9ea794183e9fae84d1120c04222"),
            ("G", 2, "57277fbbe997f657808a3d1fa3e1b6a2dbfa908ce59307ccd0cf2393b073ae61"),
        ],
    )
    def test_cluster_variable_digest_is_pinned(self, monkeypatch, family, rank, digest):
        n_classes = graph_for(family, rank).n_vertices
        calls = count_matrix_mutations(monkeypatch)
        variables = cluster_variables(dynkin_exchange_matrix(DynkinSpec(family, rank)))
        keys = sorted(v.canonical_key() for v in variables)
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest
        # the symbolic walk, too, builds each class's matrix once
        assert len(calls) == n_classes - 1

    @pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4), ("G", 2)])
    def test_symbolic_seeds_are_the_fingerprint_vertices(self, family, rank):
        # each symbolic seed, evaluated at the graph's point and relabelled
        # by fingerprint order, is a vertex (values and rows) of the graph
        graph = graph_for(family, rank)
        matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
        seeds = enumerate_symbolic_seeds(matrix)
        assert len(seeds) == graph.n_vertices
        vertices = set()
        for seed in seeds:
            values = [entry.evaluate_int(graph.point) for entry in seed.entries]
            order = sorted(range(rank), key=values.__getitem__)
            rows = tuple(tuple(seed.matrix.rows[i][j] for j in order) for i in order)
            vertices.add((tuple(values[i] for i in order), rows))
        assert vertices == set(graph.vertices)


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

    def test_a_numerator_without_constant_term_is_reported(self, monkeypatch):
        # a faulty variable, N x_0 / x^d in place of N / x^d with d_0 = 0:
        # its denominator vector is unchanged, but its numerator now
        # vanishes at the origin
        find_variables = analysis.cluster_variables
        faults = []

        def faulty(matrix):
            variables = find_variables(matrix)
            i = next(
                i for i, v in enumerate(variables)
                if v.is_variable() is None and v.denominator_vector()[0] == 0
            )
            x0 = RationalFunction.variable(0, matrix.n, variables[i].p)
            faults.append(variables[i] * x0)
            return variables[:i] + faults + variables[i + 1:]

        monkeypatch.setattr(analysis, "cluster_variables", faulty)
        report = check_denominator_bijection(dynkin_exchange_matrix(DynkinSpec("A", 3)))
        assert not report.ok
        assert report.zero_constant_terms == (faults[0].render(),)
        assert report.missing_roots == report.extra_vectors == ()
        assert report.n_cluster_variables == report.n_almost_positive == 9

    def test_initial_variables_map_to_negated_simples(self):
        matrix = dynkin_exchange_matrix(DynkinSpec("A", 3))
        variables = cluster_variables(matrix)
        vectors = {v.denominator_vector() for v in variables}
        assert {(-1, 0, 0), (0, -1, 0), (0, 0, -1)} <= vectors
