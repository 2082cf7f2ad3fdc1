"""Exchange matrices and their quiver DOT text, Dynkin constructors, seed mutation.

The mutation at vertex k replaces value k by

    (prod over row-k positive entries  +  prod over row-k negative entries)
    -----------------------------------------------------------------------
                                 value k

and updates the matrix by the usual rule (negate row/column k, adjust the
rest). The value half reads row k alone, so numeric_mutate takes that
row, not a matrix; apply_sequence carries a matrix along with the values.
Matrices are square with no frozen rows; constructors reject anything
else.
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
)
from .fields import Element, FieldParams, require_int

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExchangeMatrix:
    """Sign-skew-symmetric integer matrix with zero diagonal."""

    rows: Rows

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        if not all(type(x) is int for row in rows for x in row):
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

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def to_dot(self) -> str:
        """Graphviz text of the quiver: an arrow i -> j of multiplicity b_ij > 0."""
        rows = self.rows
        if any(rows[i][j] != -rows[j][i] for i in range(self.n) for j in range(i)):
            raise InvalidMatrixError("only skew-symmetric matrices correspond to quivers")
        lines = ["digraph quiver {"]
        lines += [f"  x{v};" for v in range(self.n)]
        for i, row in enumerate(rows):
            for j, m in enumerate(row):
                if m > 0:
                    label = f' [label="{m}"]' if m > 1 else ""
                    lines.append(f"  x{i} -> x{j}{label};")
        lines.append("}")
        return "\n".join(lines)


def mutate_rows(rows: Rows, k: int) -> Rows:
    """The mutation rule at vertex k on bare rows, k in [0, n); unchecked.

    Only row k and the rows i with b_ik != 0 change; every other row is
    shared as it is, since b_ij moves only when b_ik and b_kj are nonzero.
    Mutation keeps a skew-symmetrizable matrix skew-symmetrizable, with
    the same symmetrizer (Fomin-Zelevinsky, "Cluster algebras I", J. AMS
    15 (2002), Prop. 4.5), so the rows it makes from a Dynkin matrix are
    always those of a valid ExchangeMatrix, and a walk from one needs
    building as a checked matrix only where it stops.
    """
    row_k = rows[k]
    new_rows = list(rows)
    for i, row in enumerate(rows):
        b_ik = row[k]
        if b_ik:  # never i == k: the diagonal is zero
            abs_ik = abs(b_ik)
            new_row = [x + (abs_ik * y + b_ik * abs(y)) // 2 for x, y in zip(row, row_k)]
            new_row[k] = -b_ik
            new_rows[i] = tuple(new_row)
    new_rows[k] = tuple(-x for x in row_k)
    return tuple(new_rows)


def matrix_mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutation at vertex k, checked; the input is unchanged."""
    n = matrix.n
    if not 0 <= k < n:
        raise InvalidVertexError(f"vertex {k} outside [0, {n})")
    return ExchangeMatrix(mutate_rows(matrix.rows, k))


def cartan_counterpart(matrix: ExchangeMatrix) -> Rows:
    """2 on the diagonal, -|b_ij| off it."""
    rows, n = matrix.rows, matrix.n
    return tuple(
        tuple(2 if i == j else -abs(rows[i][j]) for j in range(n)) for i in range(n)
    )


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
    rank-2 and rank-1; E hangs vertex rank-1 off vertex 2. So each edge
    (i, j) lists first its vertex nearer 0, which is i steps from 0. The
    valued edge of B carries the 2 in row rank-2 (|b_{r-2,r-1}| = 2); C is
    the mirror image. This placement is a convention of this package, and
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


def dynkin_exchange_matrix(spec: DynkinSpec) -> ExchangeMatrix:
    """Exchange matrix whose Cartan counterpart is the family's Cartan matrix."""
    edges = dynkin_edges(spec.family, spec.rank)
    if spec.orientation == "default":
        # vertex i of an edge (i, j) is i steps from vertex 0 (dynkin_edges)
        forward = {(i, j): i % 2 == 0 for i, j, _, _ in edges}
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
    return ExchangeMatrix(rows)


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
    # neighbours with edge labels: edge (i, j, a, b) is "a,b" from i, "b,a" from j
    adjacency = {v: [] for v in range(n)}
    for i, j, a, b in edges:
        adjacency[i].append((j, f"{a},{b}"))
        adjacency[j].append((i, f"{b},{a}"))
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
    without a Dynkin Cartan counterpart, or a matrix in it is not
    2-finite), or "unknown" (budget hit).
    """

    verdict: str
    family: Optional[str] = None
    rank: Optional[int] = None
    explored: int = 0

    @property
    def is_finite(self) -> bool:
        return self.verdict == "finite"


def is_two_finite(matrix: ExchangeMatrix) -> bool:
    """|b_ij b_ji| <= 3 for all i, j.

    A cluster algebra is of finite type iff every matrix in its mutation
    class is 2-finite (Fomin-Zelevinsky, "Cluster algebras II", Invent.
    Math. 154 (2003), Thm 1.8).
    """
    rows = matrix.rows
    return all(abs(rows[i][j] * rows[j][i]) <= 3 for i in range(matrix.n) for j in range(i))


def is_finite_type(matrix: ExchangeMatrix, budget: int = 100_000) -> FiniteTypeResult:
    """Search the matrix mutation class for a finite-type Cartan counterpart.

    Finite type holds iff some matrix in the class has one, and then every
    matrix in the class is 2-finite. So exhausting the class, or reaching a
    matrix by mutation that is not 2-finite, is a definitive "not finite";
    hitting the budget is not. As in apply_sequence, the 2-finite test
    applies to the matrices mutation produces, not to the input.
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
            if index and not is_two_finite(current):
                break
            found = classify_cartan(cartan_counterpart(current))
            if found:
                return FiniteTypeResult("finite", found[0], found[1], explored)
    except InvalidMatrixError:
        pass  # left sign-skew-symmetric territory: no cluster algebra here
    return FiniteTypeResult("not_finite", explored=explored)


# --- numeric mutation ---------------------------------------------------------


def numeric_mutate(
    values: tuple[Element, ...], row: Sequence[int], k: int, field: FieldParams
) -> tuple[Element, ...]:
    """The exchange relation: values with value k replaced by

        (product over row's positive entries + product over its negatives) / values[k].

    row is row k of the exchange matrix; nothing else of the matrix is
    read. Negating it swaps the two products and leaves the value alone,
    so a step and its reverse read the same row. Each product starts from
    its first factor, a factor with |b| = 1 is the value itself, and only
    an empty side is one(). The divisor is inverted by fields.divisor_inv,
    which remembers inverses on fields above the table limit.
    """
    if not any(values[k]):
        raise MutationDivisionError(k)
    pos = neg = None
    for value, b in zip(values, row):
        if b:
            factor = value if b in (1, -1) else fields.ext_pow(value, abs(b), field)
            if b > 0:
                pos = factor if pos is None else fields.ext_mul(pos, factor, field)
            else:
                neg = factor if neg is None else fields.ext_mul(neg, factor, field)
    one = field.one()
    total = fields.ext_add(one if pos is None else pos, one if neg is None else neg, field)
    new_value = fields.ext_mul(total, fields.divisor_inv(values[k], field), field)
    return values[:k] + (new_value,) + values[k + 1:]


def apply_sequence(
    values: tuple[Element, ...], matrix: ExchangeMatrix, ks: Sequence[int], field: FieldParams
) -> tuple[tuple[Element, ...], ExchangeMatrix]:
    """Mutate (values, matrix) left to right; fails fast with the 1-based failing step.

    Each step mutates the matrix before it reads the value it divides by,
    so a matrix that leaves sign-skew-symmetry fails first. From step 2
    on, the matrix whose row the step reads came from a mutation and must
    be 2-finite: a walk in a finite-type class stays 2-finite, and outside
    such classes entries can grow at every step. All three errors name
    the step.
    """
    for step, k in enumerate(ks, start=1):
        try:
            mutated = matrix_mutate(matrix, k)
            if step > 1 and not is_two_finite(matrix):
                raise InvalidMatrixError("matrix is not 2-finite")
            values = numeric_mutate(values, matrix.rows[k], k, field)
        except InvalidMatrixError as exc:
            raise InvalidMatrixError(f"{exc} at step {step}") from exc
        except MutationDivisionError as exc:
            raise MutationDivisionError(k, step) from exc
        matrix = mutated
    return values, matrix
