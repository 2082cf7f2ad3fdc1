"""Root systems from finite-type Cartan matrices.

Roots are integer coordinate vectors in the simple-root basis. The
system is generated by closing the simple roots under the simple
reflections s_i(beta) = beta - <beta, alpha_i> alpha_i, where
<alpha_j, alpha_i> is the (j,i) Cartan entry. Pairings between
arbitrary roots use the symmetrized Gram matrix, exactly (Fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

    def inner(self, beta: Root, gamma: Root) -> Fraction:
        total = Fraction(0)
        for i, b in enumerate(beta):
            if b:
                for j, g in enumerate(gamma):
                    if g:
                        total += b * g * self.gram[i][j]
        return total

    def pairing(self, beta: Root, alpha: Root) -> Fraction:
        """<beta, alpha> = 2 (beta, alpha) / (alpha, alpha)."""
        return 2 * self.inner(beta, alpha) / self.inner(alpha, alpha)

    def reflect(self, beta: Root, alpha: Root) -> Root:
        coefficient = self.pairing(beta, alpha)
        if coefficient.denominator != 1:
            raise InvalidMatrixError("non-integral reflection coefficient")
        c = int(coefficient)
        return tuple(b - c * a for b, a in zip(beta, alpha))


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
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise InvalidMatrixError("matrix is not symmetrizable")
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

    The O(|R|^2) loops run on an integer-rescaled Gram matrix (pairings
    are homogeneous of degree 0 in the inner product, so rescaling is
    harmless); E_8's 240 roots then take well under a second.
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
    for alpha in rs.roots:
        for beta in rs.roots:
            if beta == alpha or beta == tuple(-x for x in alpha):
                continue
            if _is_scalar_multiple(alpha, beta):
                failures.append(f"R2: {beta} is a multiple of {alpha}")
                break
    # integer Gram: scale by the lcm of the symmetrizer denominators
    scale = math.lcm(*(entry.denominator for row in rs.gram for entry in row))
    gram_int = [
        [int(entry * scale) for entry in row] for row in rs.gram
    ]
    root_list = list(rs.roots)
    g_alpha = [
        tuple(sum(a[i] * gram_int[i][j] for i in range(n)) for j in range(n))
        for a in root_list
    ]
    norm = [
        sum(a[j] * ga[j] for j in range(n)) for a, ga in zip(root_list, g_alpha)
    ]
    # R3: every reflection permutes R; R4: integral pairings
    for ai, alpha in enumerate(root_list):
        image = set()
        for beta in root_list:
            numerator = 2 * sum(b * g for b, g in zip(beta, g_alpha[ai]))
            if numerator % norm[ai]:
                failures.append(f"R4: <{beta},{alpha}> not integral")
                continue
            c = numerator // norm[ai]
            image.add(tuple(b - c * a for b, a in zip(beta, alpha)))
        if image != roots:
            failures.append(f"R3: s_{alpha} does not permute R")
    # finiteness lemma range
    for ai, alpha in enumerate(root_list):
        neg_alpha = tuple(-x for x in alpha)
        for bi, beta in enumerate(root_list):
            if beta == alpha or beta == neg_alpha:
                continue
            d1 = 2 * sum(a * g for a, g in zip(alpha, g_alpha[bi]))
            d2 = 2 * sum(b * g for b, g in zip(beta, g_alpha[ai]))
            denominator = norm[ai] * norm[bi]
            if (d1 * d2) % denominator or d1 * d2 // denominator not in (0, 1, 2, 3):
                failures.append(
                    f"pair product <a,b><b,a> out of range for {alpha},{beta}"
                )
    return AxiomReport(not failures, tuple(failures))


def _is_scalar_multiple(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    ratio: Fraction | None = None
    for a, b in zip(alpha, beta):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return False
        r = Fraction(b, a)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return False
    return ratio is not None
