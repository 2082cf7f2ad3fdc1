"""Exchange matrices, quivers, Dynkin constructors, and seed mutation.

The mutation at vertex k replaces value k by

    (prod over row-k positive entries  +  prod over row-k negative entries)
    -----------------------------------------------------------------------
                                 value k

and updates the matrix by the usual rule (negate row/column k, adjust the
rest). Matrices are square with no frozen rows; constructors reject
anything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import fields
from .errors import (
    InvalidMatrixError,
    InvalidSpecError,
    InvalidVertexError,
    MutationDivisionError,
    RankMismatchError,
)
from .fields import Element, FieldParams, require_int

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExchangeMatrix:
    """Sign-skew-symmetric integer matrix with zero diagonal."""

    rows: Rows

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        for row in rows:
            for x in row:
                require_int(x, "matrix entry")
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidMatrixError("matrix must be square (no frozen rows)")
        for i in range(n):
            if rows[i][i] != 0:
                raise InvalidMatrixError(f"diagonal entry ({i},{i}) must be 0")
            for j in range(i + 1, n):
                a, b = rows[i][j], rows[j][i]
                if not ((a == 0 and b == 0) or a * b < 0):
                    raise InvalidMatrixError(
                        f"entries ({i},{j})={a} and ({j},{i})={b} violate "
                        "sign-skew-symmetry"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_skew_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.n)
            for j in range(self.n)
        )

    def permuted(self, perm: Sequence[int]) -> "ExchangeMatrix":
        """Matrix of the relabelled seed: entry (i,j) -> (perm[i], perm[j])."""
        return ExchangeMatrix(
            tuple(
                tuple(self.rows[perm[i]][perm[j]] for j in range(self.n))
                for i in range(self.n)
            )
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_lists(cls, rows) -> "ExchangeMatrix":
        return cls(tuple(tuple(row) for row in rows))


def matrix_mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutation at vertex k; the input is unchanged."""
    n = matrix.n
    if not 0 <= k < n:
        raise InvalidVertexError(f"vertex {k} outside [0, {n})")
    b = matrix.rows
    new_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-b[i][j])
            else:
                row.append(b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2)
        new_rows.append(tuple(row))
    return ExchangeMatrix(tuple(new_rows))


def cartan_counterpart(matrix: ExchangeMatrix | Rows) -> Rows:
    """2 on the diagonal, -|b_ij| off it."""
    rows = matrix.rows if isinstance(matrix, ExchangeMatrix) else tuple(matrix)
    n = len(rows)
    return tuple(
        tuple(2 if i == j else -abs(rows[i][j]) for j in range(n)) for i in range(n)
    )


# --- quivers --------------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph of a skew-symmetric exchange matrix.

    arrows maps (i, j) -> multiplicity, with i -> j. No loops, no 2-cycles.
    """

    n: int
    arrows: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        seen = {}
        for (i, j), m in self.arrows:
            if i == j:
                raise InvalidMatrixError("quiver may not contain loops")
            if m <= 0:
                raise InvalidMatrixError("arrow multiplicities must be positive")
            if (j, i) in seen:
                raise InvalidMatrixError("quiver may not contain 2-cycles")
            seen[(i, j)] = m
        object.__setattr__(self, "arrows", tuple(sorted(seen.items())))

    @classmethod
    def from_matrix(cls, matrix: ExchangeMatrix) -> "Quiver":
        if not matrix.is_skew_symmetric():
            raise InvalidMatrixError(
                "only skew-symmetric matrices correspond to quivers"
            )
        arrows = []
        for i in range(matrix.n):
            for j in range(matrix.n):
                if matrix.rows[i][j] > 0:
                    arrows.append(((i, j), matrix.rows[i][j]))
        return cls(matrix.n, tuple(arrows))

    def to_matrix(self) -> ExchangeMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), m in self.arrows:
            rows[i][j] = m
            rows[j][i] = -m
        return ExchangeMatrix.from_lists(rows)

    def to_dot(self, name: str = "quiver") -> str:
        lines = [f"digraph {name} {{"]
        for v in range(self.n):
            lines.append(f"  x{v};")
        for (i, j), m in self.arrows:
            label = f' [label="{m}"]' if m > 1 else ""
            lines.append(f"  x{i} -> x{j}{label};")
        lines.append("}")
        return "\n".join(lines)


def quiver_mutate(quiver: Quiver, k: int) -> Quiver:
    """Three-step quiver mutation at k.

    1. For every path i -> k -> j add multiplicity(i,k)*multiplicity(k,j)
       arrows i -> j.
    2. Cancel a maximal set of resulting 2-cycles.
    3. Reverse all arrows incident with k.
    """
    if not 0 <= k < quiver.n:
        raise InvalidVertexError(f"vertex {k} outside [0, {quiver.n})")
    counts: dict[tuple[int, int], int] = dict(quiver.arrows)
    into_k = {i: m for (i, j), m in counts.items() if j == k}
    out_of_k = {j: m for (i, j), m in counts.items() if i == k}
    for i, a in into_k.items():
        for j, b in out_of_k.items():
            counts[(i, j)] = counts.get((i, j), 0) + a * b
    # cancel 2-cycles
    for (i, j) in list(counts):
        if i < j and (j, i) in counts:
            m = min(counts[(i, j)], counts[(j, i)])
            counts[(i, j)] -= m
            counts[(j, i)] -= m
    # reverse at k
    reversed_counts: dict[tuple[int, int], int] = {}
    for (i, j), m in counts.items():
        if m == 0:
            continue
        if i == k or j == k:
            reversed_counts[(j, i)] = reversed_counts.get((j, i), 0) + m
        else:
            reversed_counts[(i, j)] = reversed_counts.get((i, j), 0) + m
    return Quiver(quiver.n, tuple(reversed_counts.items()))


# --- breadth-first closure ----------------------------------------------------


def breadth_first(starts, neighbours, key):
    """Walk the closure of `starts` under `neighbours`, breadth first.

    States with equal key(state) are one state. Yields (index, state,
    out) in discovery order, before the state is expanded, so a caller
    may stop at any point. When the walk resumes, `out` receives the
    index of each of neighbours(state) in order, repeats included; every
    `out` is therefore complete once the walk ends.
    """
    index = {}
    found = []

    def find(state) -> int:
        k = key(state)
        if k not in index:
            index[k] = len(found)
            found.append(state)
        return index[k]

    for state in starts:
        find(state)
    # found grows while it is walked: the unvisited tail is the queue
    for i, state in enumerate(found):
        out = []
        yield i, state, out
        out.extend(map(find, neighbours(state)))


# --- Dynkin constructors --------------------------------------------------

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}


def _check_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise InvalidSpecError(f"unknown family {family!r}")
    if family == "E":
        if rank not in (6, 7, 8):
            raise InvalidSpecError("E requires rank 6, 7 or 8")
    elif family == "F":
        if rank != 4:
            raise InvalidSpecError("F requires rank 4")
    elif family == "G":
        if rank != 2:
            raise InvalidSpecError("G requires rank 2")
    elif rank < _MIN_RANK[family]:
        raise InvalidSpecError(f"{family} requires rank >= {_MIN_RANK[family]}")


def dynkin_edges(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Underlying valued tree: (i, j, |b_ij|, |b_ji|) per edge.

    Vertex labels: chains run 0..rank-1; D forks at rank-3 into tips
    rank-2 and rank-1; E hangs vertex rank-1 off vertex 2. The valued
    edge of B carries the 2 in row rank-2 (|b_{r-2,r-1}| = 2); C is the
    mirror image. This placement is a convention of this package, and
    classify_cartan recognizes a diagram by comparison with these trees.
    """
    _check_family_rank(family, rank)
    if family in ("A", "B", "C"):
        edges = [(i, i + 1, 1, 1) for i in range(rank - 1)]
        if family == "B" and rank >= 2:
            edges[-1] = (rank - 2, rank - 1, 2, 1)
        elif family == "C" and rank >= 2:
            edges[-1] = (rank - 2, rank - 1, 1, 2)
        return edges
    if family == "D":
        edges = [(i, i + 1, 1, 1) for i in range(rank - 3)]
        edges.append((rank - 3, rank - 2, 1, 1))
        edges.append((rank - 3, rank - 1, 1, 1))
        return edges
    if family == "E":
        edges = [(i, i + 1, 1, 1) for i in range(rank - 2)]
        edges.append((2, rank - 1, 1, 1))
        return edges
    if family == "F":
        return [(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1)]
    return [(0, 1, 3, 1)]  # G_2


@dataclass(frozen=True)
class DynkinSpec:
    """Family, rank and edge orientation for a Dynkin quiver.

    orientation is "default" (arrows run from vertices at even distance
    from vertex 0 to odd ones -- the orientation whose A and D matrices
    match the worked examples shipped with this package) or an explicit
    tuple of directed diagram edges (i, j).
    """

    family: str
    rank: int
    orientation: str | tuple[tuple[int, int], ...] = "default"

    def __post_init__(self):
        _check_family_rank(self.family, require_int(self.rank, "rank"))
        if isinstance(self.orientation, str):
            if self.orientation != "default":
                raise InvalidSpecError(f"unknown orientation {self.orientation!r}")
        else:
            edges = tuple((i, j) for i, j in self.orientation)
            for v in itertools.chain(*edges):
                require_int(v, "orientation")
            object.__setattr__(self, "orientation", edges)

    def to_dict(self) -> dict:
        d = {"family": self.family, "rank": self.rank}
        if self.orientation != "default":
            d["orientation"] = [list(e) for e in self.orientation]
        return d


def _tree_adjacency(edges, n) -> dict[int, list[tuple[int, str]]]:
    """Neighbours with edge labels: edge (i, j, a, b) is "a,b" from i, "b,a" from j."""
    adjacency = {v: [] for v in range(n)}
    for i, j, a, b in edges:
        adjacency[i].append((j, f"{a},{b}"))
        adjacency[j].append((i, f"{b},{a}"))
    return adjacency


def _bipartite_direction(edges, rank) -> dict[tuple[int, int], bool]:
    """True for (i, j) iff the arrow runs i -> j under the default rule."""
    adjacency = _tree_adjacency(edges, rank)
    # states are (vertex, depth); the first visit to a vertex is its depth
    walk = breadth_first(
        [(0, 0)],
        lambda state: [(w, state[1] + 1) for w, _ in adjacency[state[0]]],
        lambda state: state[0],
    )
    depth = dict(state for _, state, _ in walk)
    return {(i, j): depth[i] % 2 == 0 for i, j, _, _ in edges}


@lru_cache(maxsize=None)
def dynkin_exchange_matrix(spec: DynkinSpec) -> ExchangeMatrix:
    """Exchange matrix whose Cartan counterpart is the family's Cartan matrix."""
    edges = dynkin_edges(spec.family, spec.rank)
    if spec.orientation == "default":
        forward = _bipartite_direction(edges, spec.rank)
    else:
        chosen = set(spec.orientation)
        undirected = {(i, j) for i, j, _, _ in edges}
        for i, j in chosen:
            if (i, j) not in undirected and (j, i) not in undirected:
                raise InvalidSpecError(f"({i},{j}) is not a diagram edge")
        if len(chosen) != len(undirected):
            raise InvalidSpecError("orientation must direct every edge exactly once")
        forward = {}
        for i, j, _, _ in edges:
            if (i, j) in chosen:
                forward[(i, j)] = True
            elif (j, i) in chosen:
                forward[(i, j)] = False
            else:
                raise InvalidSpecError(f"edge ({i},{j}) left undirected")
    rows = [[0] * spec.rank for _ in range(spec.rank)]
    for i, j, wij, wji in edges:
        if forward[(i, j)]:
            rows[i][j], rows[j][i] = wij, -wji
        else:
            rows[i][j], rows[j][i] = -wij, wji
    return ExchangeMatrix.from_lists(rows)


@lru_cache(maxsize=None)
def standard_cartan(family: str, rank: int) -> Rows:
    """The finite-type Cartan matrix in this package's labelling."""
    matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
    return cartan_counterpart(matrix)


# --- finite-type recognition ----------------------------------------------


def _tree_form(edges, n) -> Optional[str]:
    """Canonical form of the valued tree with edges (i, j, a_ij, a_ji), or None.

    The tree is hung from each of its one or two centres and encoded from
    the leaves up: a vertex is the label of the edge from its parent, then
    its children's codes, sorted. The smaller code is the form.
    """
    if len(edges) != n - 1:
        return None
    adjacency = _tree_adjacency(edges, n)
    walk = breadth_first([0], lambda v: [w for w, _ in adjacency[v]], lambda v: v)
    if sum(1 for _ in walk) != n:
        return None
    # peel the leaves layer by layer; the last one or two are the centres
    degree = {v: len(adjacency[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        next_layer = []
        for v in layer:
            for w, _ in adjacency[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    next_layer.append(w)
        layer = next_layer
    codes = []
    for centre in layer:
        walk = breadth_first(
            [(centre, None, "")],
            lambda state: [(w, state[0], label) for w, label in adjacency[state[0]]],
            lambda state: state[0],
        )
        children = {v: [] for v in range(n)}
        for v, parent, label in reversed([state for _, state, _ in walk]):
            code = "(" + label + "".join(sorted(children[v])) + ")"
            if parent is not None:
                children[parent].append(code)
        codes.append(code)  # the last code built is the centre's
    return min(codes)


@lru_cache(maxsize=None)
def _dynkin_form(family: str, rank: int) -> Optional[str]:
    try:
        edges = dynkin_edges(family, rank)
    except InvalidSpecError:
        return None  # the family has no diagram of this rank
    return _tree_form([(i, j, -wij, -wji) for i, j, wij, wji in edges], rank)


def classify_cartan(cartan: Rows) -> Optional[tuple[str, int]]:
    """(family, rank) if the matrix is a connected finite-type Cartan matrix.

    Its valued tree, an edge (i, j, a_ij, a_ji) per pair with a nonzero
    entry, must relabel the tree of dynkin_edges(family, rank) with edges
    labelled -|b|. Families are tried in FAMILIES order, so the rank-2
    double edge (B_2 and C_2 alike) is reported as B_2.
    """
    n = len(cartan)
    if any(cartan[i][i] != 2 for i in range(n)):
        return None
    edges = [
        (i, j, cartan[i][j], cartan[j][i])
        for i in range(n)
        for j in range(i + 1, n)
        if cartan[i][j] or cartan[j][i]
    ]
    form = _tree_form(edges, n)
    if form is None:
        return None
    for family in FAMILIES:
        if _dynkin_form(family, n) == form:
            return (family, n)
    return None


@dataclass(frozen=True)
class FiniteTypeResult:
    """Verdict of the mutation-class search.

    verdict is "finite" (family/rank set), "not_finite" (class exhausted
    without a Dynkin Cartan counterpart), or "unknown" (budget hit).
    """

    verdict: str
    family: Optional[str] = None
    rank: Optional[int] = None
    explored: int = 0

    @property
    def is_finite(self) -> bool:
        return self.verdict == "finite"


def is_finite_type(matrix: ExchangeMatrix, budget: int = 100_000) -> FiniteTypeResult:
    """Search the matrix mutation class for a finite-type Cartan counterpart.

    Finite type holds iff some matrix in the class has one, so exhausting
    the class is a definitive "not finite"; hitting the budget is not.
    """
    walk = breadth_first(
        [matrix],
        lambda current: (matrix_mutate(current, k) for k in range(current.n)),
        lambda current: current.rows,
    )
    explored = 0
    try:
        for index, current, _ in walk:
            if index >= budget:
                return FiniteTypeResult("unknown", explored=explored)
            explored = index + 1
            found = classify_cartan(cartan_counterpart(current))
            if found:
                return FiniteTypeResult("finite", found[0], found[1], explored)
    except InvalidMatrixError:
        pass  # left sign-skew-symmetric territory: no cluster algebra here
    return FiniteTypeResult("not_finite", explored=explored)


# --- numeric seeds ----------------------------------------------------------


@dataclass(frozen=True)
class NumericSeed:
    """Ordered cluster of field elements paired with an exchange matrix."""

    values: tuple[Element, ...]
    matrix: ExchangeMatrix
    params: FieldParams

    def __post_init__(self):
        if len(self.values) != self.matrix.n:
            raise RankMismatchError(
                f"{len(self.values)} values for a rank-{self.matrix.n} matrix"
            )
        object.__setattr__(self, "values", tuple(tuple(v) for v in self.values))


def numeric_mutate(seed: NumericSeed, k: int, step: Optional[int] = None) -> NumericSeed:
    """Replace value k by (pos product + neg product) / value k."""
    matrix = matrix_mutate(seed.matrix, k)
    params = seed.params
    if not any(seed.values[k]):
        raise MutationDivisionError(k, step)
    pos = params.one()
    neg = params.one()
    for j, b in enumerate(seed.matrix.rows[k]):
        if b > 0:
            pos = fields.ext_mul(pos, fields.ext_pow(seed.values[j], b, params), params)
        elif b < 0:
            neg = fields.ext_mul(neg, fields.ext_pow(seed.values[j], -b, params), params)
    total = fields.ext_add(pos, neg, params)
    new_value = fields.ext_mul(total, fields.ext_inv(seed.values[k], params), params)
    values = list(seed.values)
    values[k] = new_value
    return NumericSeed(tuple(values), matrix, params)


def apply_sequence(seed: NumericSeed, ks: Sequence[int]) -> NumericSeed:
    """Left-to-right mutation; fails fast with the 1-based failing step."""
    for step, k in enumerate(ks, start=1):
        seed = numeric_mutate(seed, k, step=step)
    return seed


def seeds_equivalent(s1, s2) -> Optional[tuple[int, ...]]:
    """Permutation pi with s2.values[i] = s1.values[pi(i)] and
    s2.matrix[i][j] = s1.matrix[pi(i)][pi(j)], or None.

    Works for numeric and symbolic seeds (anything with values/entries
    plus a matrix).
    """
    v1, m1 = _seed_parts(s1)
    v2, m2 = _seed_parts(s2)
    n = len(v1)
    if n != len(v2):
        raise RankMismatchError(f"rank {n} vs rank {len(v2)}")
    candidates_per_slot = []
    for i in range(n):
        slots = tuple(j for j in range(n) if v1[j] == v2[i])
        if not slots:
            return None
        candidates_per_slot.append(slots)
    for pi in itertools.product(*candidates_per_slot):
        if len(set(pi)) != n:
            continue
        if all(
            m2.rows[i][j] == m1.rows[pi[i]][pi[j]]
            for i in range(n)
            for j in range(n)
        ):
            return tuple(pi)
    return None


def _seed_parts(seed):
    values = getattr(seed, "values", None)
    if values is None:
        values = seed.entries
    return values, seed.matrix
