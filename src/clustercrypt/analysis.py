"""Security toolkit: exchange graphs, path counts, key-recovery odds.

An attacker who knows the diagram but not the key faces two searches:
which mutation class holds the initial seed (1/N_C) and which ordering
of that class's cluster is the right one (1/r!). This module enumerates
exchange graphs to get N_C exactly, counts paths between classes, and
tabulates 1/(N_C * r!) against the reference closed forms.

Graph vertices are seeds up to relabelling. Enumeration keys each seed
by the multiset of its cluster-variable fingerprints: evaluations of the
variables at a fixed pseudo-random point over a large prime field. The
point and prime are recorded on the graph for reproducibility, and at
small rank the fingerprints carry a symbolic certificate (distinct
fingerprints = distinct variables, checked by actual rational-function
comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .cluster import (
    ExchangeMatrix,
    Rows,
    breadth_first,
    cartan_counterpart,
    is_finite_type,
    matrix_mutate,
)
from .errors import BudgetExceededError, NotFiniteTypeError
from .fields import fp_inv
from .roots import generate_root_system
from .symbolic import (
    RationalFunction,
    SymbolicSeed,
    initial_symbolic_seed,
    rf_mutate,
)

FINGERPRINT_PRIME = (1 << 61) - 1  # Mersenne prime 2^61 - 1
FINGERPRINT_POINT_SEED = 0x5EED


# --- exchange-graph enumeration ----------------------------------------------


@dataclass(frozen=True)
class ExchangeGraph:
    """Canonical unlabelled seeds as vertices, single mutations as edges."""

    rank: int
    vertices: tuple[tuple[tuple[int, ...], Rows], ...]
    adjacency: tuple[tuple[int, ...], ...]
    initial_vertex: int
    prime: int
    point: tuple[int, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @property
    def labeled_seed_count(self) -> int:
        """Distinct ordered seeds: r! per class (cluster values are distinct)."""
        return self.n_vertices * math.factorial(self.rank)

    def is_regular(self) -> bool:
        return all(
            len(nbrs) == self.rank and len(set(nbrs)) == self.rank and u not in nbrs
            for u, nbrs in enumerate(self.adjacency)
        )

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        walk = breadth_first([0], self.adjacency.__getitem__, lambda v: v)
        return sum(1 for _ in walk) == self.n_vertices


class _PointCollision(Exception):
    """Zero, duplicate or merged fingerprints at the evaluation point; retry."""


def enumerate_exchange_graph(matrix: ExchangeMatrix, budget: int = 50_000) -> ExchangeGraph:
    """BFS over mutation classes of (values, matrix) fingerprint seeds.

    Requires finite type (checked first). A vertex is keyed by its sorted
    fingerprints and stored with the matrix relabelled to match; a fresh
    evaluation point is derived deterministically and re-derived on the
    (astronomically rare) zero, duplicate or merged fingerprints.
    """
    verdict = is_finite_type(matrix)
    if not verdict.is_finite:
        raise NotFiniteTypeError(
            f"matrix is {verdict.verdict}: exchange graph would not close"
        )
    p = FINGERPRINT_PRIME
    for attempt in range(10):
        rng = Random(FINGERPRINT_POINT_SEED * 1_000_003 + attempt)
        point = tuple(rng.randrange(2, p - 1) for _ in range(matrix.n))
        try:
            return _enumerate_at_point(matrix, point, p, budget)
        except _PointCollision:
            continue
    raise BudgetExceededError("no usable fingerprint point after 10 attempts")


def _enumerate_at_point(
    matrix: ExchangeMatrix, point, p: int, budget: int
) -> ExchangeGraph:
    n = matrix.n
    if len(set(point)) != n:
        raise _PointCollision
    seeds, neighbors = _walk_seed_classes(
        tuple(point), matrix, lambda value: value,
        lambda values, b, k: _mutate_values(values, b.rows, k, p),
        budget, f"exchange graph exceeded {budget} vertices",
    )
    # Mutation is an involution, so a true exchange graph has only mutual
    # edges; a fingerprint collision that merges two clusters does not.
    for u, nbrs in enumerate(neighbors):
        if u in nbrs or len(set(nbrs)) != n or any(u not in neighbors[v] for v in nbrs):
            raise _PointCollision
    return ExchangeGraph(
        rank=n,
        vertices=tuple(seeds),
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in neighbors),
        initial_vertex=0,
        prime=p,
        point=tuple(point),
    )


def _walk_seed_classes(entries, matrix, entry_key, mutate, budget, overflow):
    """Seed classes reachable from (entries, matrix) by mutate(entries, matrix, k).

    A finite-type seed is determined by its cluster (Gekhtman-Shapiro-
    Vainshtein 2008), so a class is keyed by its sorted entry keys. Returns
    each class relabelled into key order, the order it is expanded in, as
    (entries, matrix rows), and its neighbours' indices, in discovery order.

    Since the cluster alone decides the class, a neighbour state carries
    its parent's matrix and the mutated vertex, not its own matrix: only
    the first state found for a class is expanded, so the matrix is built
    once per class, as the walk yields it (V - 1 mutations, not r * V).
    """
    n = matrix.n

    def neighbours(state):
        # expanded just after it is yielded: `current` is its matrix
        found, keys = state[:2]
        for k in sorted(range(n), key=keys.__getitem__):
            new = mutate(found, current, k)
            new_keys = keys[:k] + (entry_key(new[k]),) + keys[k + 1:]
            yield new, new_keys, current, k

    seeds, neighbors = [], []
    start = (entries, tuple(map(entry_key, entries)), matrix, None)
    walk = breadth_first([start], neighbours, lambda state: tuple(sorted(state[1])))
    for index, (found, keys, parent, k), out in walk:
        if index >= budget:
            raise BudgetExceededError(overflow)
        current = parent if k is None else matrix_mutate(parent, k)
        order = sorted(range(n), key=keys.__getitem__)
        rows = current.rows  # valid already: the relabelled rows need no check
        relabelled = tuple(tuple(rows[i][j] for j in order) for i in order)
        seeds.append((tuple(found[i] for i in order), relabelled))
        neighbors.append(out)
    return seeds, neighbors


def _mutate_values(values, rows: Rows, k: int, p: int):
    # values[k] != 0: the point lies in [2, p-2]^n and a new value 0 is rejected
    pos = 1
    neg = 1
    for j, b in enumerate(rows[k]):
        if b > 0:
            pos = pos * pow(values[j], b, p) % p
        elif b < 0:
            neg = neg * pow(values[j], -b, p) % p
    new_vk = (pos + neg) * fp_inv(values[k], p) % p
    if new_vk == 0 or new_vk in values:
        raise _PointCollision
    out = list(values)
    out[k] = new_vk
    return tuple(out)


# --- path counting -------------------------------------------------------------


def path_count(graph: ExchangeGraph, u: int, v: int, t: int) -> int:
    """Walks of length t from u to v: (M^t)_{uv}, pushed along the adjacency lists."""
    if t < 0:
        raise ValueError("walk length must be >= 0")
    _check_vertices(graph, u, v)
    counts = {u: 1}
    for _ in range(t):
        following: dict[int, int] = {}
        for x, c in counts.items():
            for y in graph.adjacency[x]:
                following[y] = following.get(y, 0) + c
        counts = following
    return counts.get(v, 0)


def _check_vertices(graph: ExchangeGraph, *vertices: int) -> None:
    for w in vertices:
        if not 0 <= w < graph.n_vertices:
            raise ValueError(f"vertex {w} outside [0, {graph.n_vertices})")


@dataclass(frozen=True)
class PathSearch:
    """All simple paths found, plus whether the length cap cut anything off."""

    paths: tuple[tuple[int, ...], ...]
    truncated: bool


def dfs_paths(graph: ExchangeGraph, u: int, v: int, max_len: int = 12) -> PathSearch:
    """Depth-first search for simple paths u -> v of at most max_len edges."""
    _check_vertices(graph, u, v)
    found: list[tuple[int, ...]] = []
    truncated = False

    def walk(current: int, path: list[int], visited: set[int]) -> None:
        nonlocal truncated
        if current == v:
            found.append(tuple(path))
            return
        if len(path) - 1 >= max_len:
            truncated = True
            return
        for nxt in graph.adjacency[current]:
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                walk(nxt, path, visited)
                path.pop()
                visited.remove(nxt)

    walk(u, [u], {u})
    return PathSearch(tuple(found), truncated)


# --- key-recovery probabilities -------------------------------------------------


def class_count_closed_form(family: str, rank: int) -> Optional[int]:
    """N_C implied by the reference B/C/D probability formulas; the
    standard Catalan count for A (its reference formula is inconsistent,
    see key_recovery_probability)."""
    if family == "A":
        return math.comb(2 * rank + 2, rank + 1) // (rank + 2)
    if family in ("B", "C"):
        return math.comb(2 * rank, rank)
    if family == "D":
        return (3 * rank - 2) * math.comb(2 * rank - 2, rank - 1) // rank
    return None


def probability_closed_form(family: str, rank: int) -> Optional[Fraction]:
    """The reference closed forms, reproduced verbatim per family."""
    if family == "A":
        return Fraction(rank * (rank + 2), math.factorial(2 * rank + 2))
    if family in ("B", "C"):
        return Fraction(math.factorial(rank), math.factorial(2 * rank))
    if family == "D":
        return Fraction(
            math.factorial(rank - 1),
            (3 * rank - 2) * math.factorial(2 * rank - 2),
        )
    return None


# Reference column printed for the exceptional types (quantity labelled
# 1/(N_c * r)). Most entries exceed 1, so whatever they are, they are not
# probabilities; they are reproduced verbatim, flagged, and excluded from
# every check.
EXCEPTIONAL_REFERENCE_ROWS = (
    ("E", 6, "1.66"),
    ("E", 7, "4.76"),
    ("E", 8, "9.88"),
    ("F", 4, "3.9"),
    ("G", 2, "0.0625"),
)


@dataclass(frozen=True)
class ProbabilityRow:
    family: str
    rank: int
    classes_enumerated: int
    classes_closed_form: Optional[int]
    labeled_seeds: int
    prob_enumerated: Fraction
    prob_closed_form: Optional[Fraction]
    match: Optional[bool]
    note: str = ""


def key_recovery_probability(family: str, rank: int, graph: ExchangeGraph) -> ProbabilityRow:
    """1/(N_C * r!) from enumeration and the reference closed form.

    Disagreements are flagged in the row, not raised: the reference
    A-family formula contradicts its own A_3 class count, and this
    report shows both sides rather than silently correcting either.
    """
    prob_enum = Fraction(1, graph.n_vertices * math.factorial(rank))
    prob_closed = probability_closed_form(family, rank)
    match = None
    note = ""
    if prob_closed is not None:
        match = prob_enum == prob_closed
        if not match:
            note = (
                f"closed form {prob_closed} != enumerated {prob_enum}; "
                "reference formula inconsistent with enumeration"
            )
    return ProbabilityRow(
        family=family,
        rank=rank,
        classes_enumerated=graph.n_vertices,
        classes_closed_form=class_count_closed_form(family, rank),
        labeled_seeds=graph.labeled_seed_count,
        prob_enumerated=prob_enum,
        prob_closed_form=prob_closed,
        match=match,
        note=note,
    )


def probability_report(rows: Sequence[ProbabilityRow], fmt: str = "text") -> str:
    """Human-readable or CSV table, exceptional-type reference rows appended."""
    if fmt == "csv":
        lines = [
            "family,rank,n_classes_enumerated,n_classes_closed,labeled_seeds,"
            "probability,closed_form,match,note"
        ]
        for row in rows:
            lines.append(
                ",".join(
                    "" if x is None else str(x)
                    for x in (
                        row.family,
                        row.rank,
                        row.classes_enumerated,
                        row.classes_closed_form,
                        row.labeled_seeds,
                        row.prob_enumerated,
                        row.prob_closed_form,
                        row.match,
                        row.note.replace(",", ";"),
                    )
                )
            )
        for family, rank, value in EXCEPTIONAL_REFERENCE_ROWS:
            lines.append(
                f"{family},{rank},,,,,{value},,"
                "reference value exceeds 1 for most rows: not a probability; "
                "reported verbatim and excluded from checks"
            )
        return "\n".join(lines)
    lines = ["key-recovery probability (diagram known, key unknown)", ""]
    header = (
        f"{'diagram':>8} {'N_C enum':>9} {'N_C form':>9} {'labeled':>8} "
        f"{'1/(N_C r!)':>14} {'closed form':>14}  match"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.family + str(row.rank):>8} "
            f"{row.classes_enumerated:>9} "
            f"{row.classes_closed_form if row.classes_closed_form is not None else '-':>9} "
            f"{row.labeled_seeds:>8} "
            f"{str(row.prob_enumerated):>14} "
            f"{str(row.prob_closed_form) if row.prob_closed_form is not None else '-':>14}  "
            f"{'' if row.match is None else ('yes' if row.match else 'NO (flagged)')}"
        )
        if row.note:
            lines.append(f"{'':>8}  ^ {row.note}")
    lines.append("")
    lines.append("exceptional types, reference column 1/(N_c*r), as tabulated:")
    for family, rank, value in EXCEPTIONAL_REFERENCE_ROWS:
        annotation = "exceeds 1: not a probability" if float(value) > 1 else ""
        lines.append(f"{family + str(rank):>8} {value:>10}  {annotation}")
    lines.append(
        "  (reported verbatim; excluded from all acceptance checks)"
    )
    return "\n".join(lines)


# --- symbolic enumeration and certifications -------------------------------------


def enumerate_symbolic_seeds(matrix: ExchangeMatrix, budget: int = 5_000) -> list[SymbolicSeed]:
    """All seeds up to relabelling, as canonically ordered symbolic seeds.

    Feasible at small rank only; coefficients live in Z_p for the large
    p = FINGERPRINT_PRIME, to emulate characteristic 0.
    """
    start = initial_symbolic_seed(matrix, FINGERPRINT_PRIME)
    seeds, _ = _walk_seed_classes(
        start.entries, matrix, RationalFunction.canonical_key,
        lambda entries, b, k: rf_mutate(SymbolicSeed(entries, b), k).entries,
        budget, f"symbolic enumeration exceeded {budget} seeds",
    )
    return [SymbolicSeed(entries, ExchangeMatrix(rows)) for entries, rows in seeds]


def cluster_variables(matrix: ExchangeMatrix, budget: int = 5_000) -> list[RationalFunction]:
    """Every distinct cluster variable of a finite-type seed, in lowest terms."""
    seen = {}
    for seed in enumerate_symbolic_seeds(matrix, budget):
        for entry in seed.entries:
            key = entry.canonical_key()
            if key not in seen:
                seen[key] = entry
    return list(seen.values())


# The fourteen rank-3 mutation classes of the default (alternating)
# A_3 orientation, listed by their clusters. The matrices that usually
# accompany this list are partly inconsistent with the clusters, so
# certification compares clusters only.
A3_REFERENCE_CLUSTERS: tuple[tuple[str, str, str], ...] = (
    ("x0", "x1", "x2"),
    ("x0", "x1", "(x1+1)/x2"),
    ("x0", "(x0*x2+1)/x1", "x2"),
    ("(x1+1)/x0", "x1", "x2"),
    ("x0", "(x0*x2+x1+1)/(x1*x2)", "(x1+1)/x2"),
    ("(x1+1)/x0", "x1", "(x1+1)/x2"),
    ("(x1+1)/x0", "(x0*x2+x1+1)/(x0*x1)", "x2"),
    ("x0", "(x0*x2+1)/x1", "(x0*x2+x1+1)/(x1*x2)"),
    ("(x0*x2+x1+1)/(x0*x1)", "(x0*x2+1)/x1", "x2"),
    ("(x1+1)/x0", "(x1^2+x0*x2+2*x1+1)/(x0*x1*x2)", "(x1+1)/x2"),
    (
        "(x1+1)/x0",
        "(x0*x2+x1+1)/(x0*x1)",
        "(x1^2+x0*x2+2*x1+1)/(x0*x1*x2)",
    ),
    (
        "(x1^2+x0*x2+2*x1+1)/(x0*x1*x2)",
        "(x0*x2+x1+1)/(x1*x2)",
        "(x1+1)/x2",
    ),
    (
        "(x0*x2+x1+1)/(x0*x1)",
        "(x0*x2+1)/x1",
        "(x0*x2+x1+1)/(x1*x2)",
    ),
    (
        "(x0*x2+x1+1)/(x1*x2)",
        "(x0*x2+x1+1)/(x0*x1)",
        "(x1^2+x0*x2+2*x1+1)/(x0*x1*x2)",
    ),
)


@dataclass(frozen=True)
class SeedListReport:
    ok: bool
    matching: tuple[tuple[int, int], ...]
    unmatched_enumerated: tuple[int, ...]
    unmatched_reference: tuple[int, ...]
    notes: tuple[str, ...]


def verify_seed_list_a3(graph: ExchangeGraph) -> SeedListReport:
    """Certify an enumerated A_3 graph against the 14 reference clusters.

    Clusters are compared symbolically (sets of canonical keys of rational
    functions over a large prime coefficient field), and each symbolic
    cluster is tied back to the supplied graph through its fingerprints
    at the graph's recorded evaluation point.
    """
    from .cluster import DynkinSpec, dynkin_exchange_matrix

    notes = []
    if graph.rank != 3:
        return SeedListReport(
            False, (), (), tuple(range(len(A3_REFERENCE_CLUSTERS))),
            (f"graph rank {graph.rank} != 3",),
        )
    p = FINGERPRINT_PRIME
    seeds = enumerate_symbolic_seeds(dynkin_exchange_matrix(DynkinSpec("A", 3)))
    reference = [
        frozenset(RationalFunction.parse(s, 3, p).canonical_key() for s in cluster)
        for cluster in A3_REFERENCE_CLUSTERS
    ]
    matching = []
    unmatched_enumerated = []
    used = set()
    for i, seed in enumerate(seeds):
        cluster_key = frozenset(entry.canonical_key() for entry in seed.entries)
        hits = [j for j, ref in enumerate(reference) if ref == cluster_key]
        if len(hits) == 1 and hits[0] not in used:
            used.add(hits[0])
            matching.append((i, hits[0]))
        else:
            unmatched_enumerated.append(i)
    unmatched_reference = tuple(
        j for j in range(len(reference)) if j not in used
    )
    # tie the symbolic enumeration back to the fingerprint graph
    vertex_fingerprints = {v[0] for v in graph.vertices}
    linked = 0
    for seed in seeds:
        fp = tuple(
            sorted(entry.evaluate_int(graph.point) for entry in seed.entries)
        )
        if fp in vertex_fingerprints:
            linked += 1
    if linked != len(seeds) or graph.n_vertices != len(seeds):
        notes.append(
            f"graph/symbolic mismatch: {graph.n_vertices} graph vertices, "
            f"{len(seeds)} symbolic seeds, {linked} linked"
        )
    ok = (
        not unmatched_enumerated
        and not unmatched_reference
        and not notes
        and len(matching) == len(A3_REFERENCE_CLUSTERS)
    )
    return SeedListReport(
        ok,
        tuple(matching),
        tuple(unmatched_enumerated),
        unmatched_reference,
        tuple(notes),
    )


@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    n_cluster_variables: int
    n_almost_positive: int
    missing_roots: tuple[tuple[int, ...], ...]
    extra_vectors: tuple[tuple[int, ...], ...]
    zero_constant_terms: tuple[str, ...]


def check_denominator_bijection(matrix: ExchangeMatrix) -> BijectionReport:
    """Denominator vectors of all cluster variables vs almost-positive roots.

    The variables' denominator vectors must biject with R_{>=-1} of the
    root system of the Cartan counterpart (initial variables map to the
    negated simple roots), and every numerator must keep a nonzero
    constant term.
    """
    variables = cluster_variables(matrix)
    vectors = sorted(v.denominator_vector() for v in variables)
    roots = generate_root_system(cartan_counterpart(matrix))
    almost = sorted(roots.almost_positive)
    missing = [r for r in almost if r not in vectors]
    extra = [v for v in vectors if v not in almost]
    zero_constant = []
    for variable in variables:
        if variable.is_variable() is not None:
            continue  # numerator is 1 by the x[-alpha_i] = x_i convention
        if variable.num.constant_term() == 0:
            zero_constant.append(variable.render())
    ok = (
        vectors == almost
        and not missing
        and not extra
        and not zero_constant
        and len(variables) == len(almost)
    )
    return BijectionReport(
        ok,
        len(variables),
        len(almost),
        tuple(missing),
        tuple(extra),
        tuple(zero_constant),
    )
