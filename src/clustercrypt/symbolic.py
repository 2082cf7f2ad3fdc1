"""Sparse multivariate polynomials and rational functions over Z_p.

This is the symbolic mirror of the numeric mutation engine: seeds whose
entries are rational functions in the initial cluster variables. It
serves as the correctness oracle for the numeric fast path and as the
workhorse for enumeration-grade canonical forms.

Coefficients live in Z_p (for cryptographic use, the field's own prime;
for characteristic-zero-style comparisons, a large prime). The term
order is graded lexicographic with variable 0 highest, fixed globally.

By the Laurent phenomenon (Fomin-Zelevinsky, "Cluster algebras I", Thm
3.1) every seed entry is a polynomial over a monomial, and cancelling
common monomial content, as the constructor does, puts such a fraction
in lowest terms. A failed exact division in mutation, or a canonical key
asked of a fraction over a non-monomial, raises instead of being patched
over.

`render` writes and `parse` reads one strict grammar, with spaces ignored
and digits a run of decimal digits (no sign, no underscore):
    rational := poly ["/" poly]
    poly := "(" poly ")" | term (("+" | "-") term)*
    term := factor ("*" factor)*,  factor := digits | "x" digits ["^" digits]
Other text raises ParseError at the first character that cannot be read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from . import fields
from .cluster import ExchangeMatrix, matrix_mutate
from .errors import (
    DegenerateSubstitutionError,
    DenominatorVanishesError,
    InvalidPolynomialError,
    InvalidVertexError,
    MutationDivisionError,
    NotClusterShapedError,
    NotDivisibleError,
    ParseError,
)
from .fields import Element, FieldParams

Exponents = tuple[int, ...]


def _order_key(exps: Exponents) -> tuple[int, Exponents]:
    # graded lex, variable 0 highest
    return (sum(exps), exps)


class Polynomial:
    """Exponent-vector -> coefficient map; no zero coefficients stored."""

    __slots__ = ("nvars", "p", "terms")

    def __init__(self, nvars: int, p: int, terms: dict[Exponents, int]):
        self.nvars = nvars
        self.p = p
        clean = {}
        for exps, c in terms.items():
            c %= p
            if c:
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise InvalidPolynomialError(f"bad exponent vector {exps}")
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, nvars: int, p: int) -> "Polynomial":
        return cls(nvars, p, {})

    @classmethod
    def one(cls, nvars: int, p: int) -> "Polynomial":
        return cls(nvars, p, {(0,) * nvars: 1})

    # -- predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def degree_in(self, v: int) -> int:
        return max((e[v] for e in self.terms), default=0)

    def leading(self) -> tuple[Exponents, int]:
        exps = max(self.terms, key=_order_key)
        return exps, self.terms[exps]

    # -- arithmetic

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars or self.p != other.p:
            raise InvalidPolynomialError("mixed variable counts or moduli")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return Polynomial(self.nvars, self.p, terms)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(
                self.nvars, self.p, {e: c * other for e, c in self.terms.items()}
            )
        self._check(other)
        terms: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return Polynomial(self.nvars, self.p, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InvalidPolynomialError("negative polynomial power")
        result = Polynomial.one(self.nvars, self.p)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.p == other.p
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"

    # -- exact division and monomial content

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient by a divisor that divides exactly; NotDivisibleError else."""
        self._check(divisor)
        if divisor.is_zero():
            raise NotDivisibleError("division by the zero polynomial")
        quotient: dict[Exponents, int] = {}
        rem = dict(self.terms)
        lead_e, lead_c = divisor.leading()
        inv_lead = fields.fp_inv(lead_c, self.p)
        while rem:
            e = max(rem, key=_order_key)
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise NotDivisibleError(
                    f"{divisor.render()} does not divide {self.render()}"
                )
            c = rem[e] * inv_lead % self.p
            quotient[diff] = c
            for de, dc in divisor.terms.items():
                key = tuple(a + b for a, b in zip(diff, de))
                val = (rem.get(key, 0) - c * dc) % self.p
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return Polynomial(self.nvars, self.p, quotient)

    def monomial_content(self) -> Exponents:
        """Entrywise minimum exponent vector (zero vector for 0)."""
        if not self.terms:
            return (0,) * self.nvars
        mins = [10**9] * self.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e < mins[i]:
                    mins[i] = e
        return tuple(mins)

    def divide_by_monomial(self, exps: Exponents) -> "Polynomial":
        return Polynomial(
            self.nvars,
            self.p,
            {tuple(a - b for a, b in zip(e, exps)): c for e, c in self.terms.items()},
        )

    # -- evaluation

    def evaluate(self, point: Sequence[Element], params: FieldParams) -> Element:
        if params.p != self.p:
            raise InvalidPolynomialError("coefficient modulus differs from field")
        if len(point) != self.nvars:
            raise InvalidPolynomialError("point length differs from variable count")
        total = params.zero()
        for exps, c in self.terms.items():
            term = params.one()
            for j, e in enumerate(exps):
                if e:
                    term = fields.ext_mul(term, fields.ext_pow(point[j], e, params), params)
            total = fields.ext_add(total, fields.scalar_mul(c, term, params), params)
        return total

    def evaluate_int(self, point: Sequence[int]) -> int:
        """Evaluation in Z_p itself (p is this polynomial's modulus)."""
        if len(point) != self.nvars:
            raise InvalidPolynomialError("point length differs from variable count")
        p = self.p
        total = 0
        for exps, c in self.terms.items():
            term = c
            for j, e in enumerate(exps):
                if e:
                    term = term * pow(point[j] % p, e, p) % p
            total = (total + term) % p
        return total

    # -- text form

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in sorted(self.terms.items(), key=lambda t: _order_key(t[0])):
            factors = []
            if c != 1 or not any(exps):
                factors.append(str(c))
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    @classmethod
    def parse(cls, text: str, nvars: int, p: int) -> "Polynomial":
        """Read poly := "(" poly ")" | term (("+" | "-") term)* (module docstring);
        other text raises ParseError at its first unreadable character.
        """
        (poly,) = _read(text, nvars, p, 1)
        return poly


def _read(text: str, nvars: int, p: int, parts: int) -> list[Polynomial]:
    """The polynomials of text, at most `parts` of them split by '/'."""
    s = text.replace(" ", "")
    # compiled on the first call and cached by re, so importing compiles nothing
    factor = re.compile(r"(?:(\d+)|x(\d+)(?:\^(\d+))?)([-+*]?)")
    polys, at = [], 0
    while True:
        opened = len(s) - at - len(s[at:].lstrip("("))
        at += opened
        terms, coeff, exps, op = {}, 1, [0] * nvars, "+"
        while op:
            m = factor.match(s, at)
            if m is None:
                raise _unreadable(text, at)
            digits, var, power, op = m.groups()
            try:
                number, e = int(digits or var), int(power or 1)
            except ValueError:  # past int's limit on digits
                raise _unreadable(text, at, "too many digits") from None
            if var is None:
                coeff *= number
            elif number < nvars:
                exps[number] += e
            else:
                raise _unreadable(text, at, f"variable x{number} outside 0..{nvars - 1}")
            at = m.end()
            if op != "*":
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
                coeff, exps = (-1 if op == "-" else 1), [0] * nvars
        if not s.startswith(")" * opened, at):
            raise _unreadable(text, len(s) - len(s[at:].lstrip(")")))
        polys.append(Polynomial(nvars, p, terms))
        at += opened
        if len(polys) == parts or s[at : at + 1] != "/":
            break
        at += 1
    if at != len(s):
        raise _unreadable(text, at)
    return polys


def _unreadable(text: str, at: int, message: str = "") -> ParseError:
    """ParseError at the at-th non-space character of text, or at its end."""
    position = ([i for i, ch in enumerate(text) if ch != " "] + [len(text)])[at]
    char = text[position : position + 1]
    message = message or (f"cannot read {char!r}" if char else "text ends early")
    return ParseError(message, position=position)


# --- rational functions ------------------------------------------------------


class RationalFunction:
    """num/den with common monomial content cancelled and monic den.

    Over a monomial den (every seed entry) this is lowest terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num._check(den)
        if den.is_zero():
            raise InvalidPolynomialError("zero denominator")
        if num.is_zero():
            den = Polynomial.one(num.nvars, num.p)
        else:
            cn, cd = num.monomial_content(), den.monomial_content()
            common = tuple(min(a, b) for a, b in zip(cn, cd))
            if any(common):
                num = num.divide_by_monomial(common)
                den = den.divide_by_monomial(common)
        _, lead = den.leading()
        if lead != 1:
            inv = fields.fp_inv(lead, den.p)
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    # -- constructors

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls(poly, Polynomial.one(poly.nvars, poly.p))

    @classmethod
    def variable(cls, i: int, nvars: int, p: int) -> "RationalFunction":
        exps = tuple(int(j == i) for j in range(nvars))
        return cls.from_polynomial(Polynomial(nvars, p, {exps: 1}))

    @classmethod
    def one(cls, nvars: int, p: int) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.one(nvars, p))

    @classmethod
    def parse(cls, text: str, nvars: int, p: int) -> "RationalFunction":
        """Read rational := poly ["/" poly] (module docstring): ParseError as
        `Polynomial.parse`, InvalidPolynomialError on a zero denominator.
        """
        num, *den = _read(text, nvars, p, 2)
        return cls(num, den[0] if den else Polynomial.one(nvars, p))

    # -- predicates

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def p(self) -> int:
        return self.num.p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_variable(self) -> Optional[int]:
        """Index i when this is exactly x_i, else None."""
        if self.den.is_constant() and self.den.constant_term() == 1:
            if len(self.num.terms) == 1:
                (exps, c), = self.num.terms.items()
                if c == 1 and sum(exps) == 1:
                    return exps.index(1)
        return None

    # -- arithmetic

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __pow__(self, e: int) -> "RationalFunction":
        return RationalFunction(self.num**e, self.den**e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # cross-multiplication equality; use canonical_key for sets

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()!r})"

    # -- canonical form

    def canonical_key(self):
        """Hashable key, equal for equal functions, of a fraction over a monomial.

        Any other den raises NotClusterShapedError: equal functions might
        get different keys.
        """
        if not self.den.is_monomial():
            raise NotClusterShapedError(self.render())
        return (
            tuple(sorted(self.num.terms.items())),
            tuple(sorted(self.den.terms.items())),
        )

    def render(self) -> str:
        num_s = self.num.render()
        if self.den.is_constant() and self.den.constant_term() == 1:
            return num_s
        den_s = self.den.render()
        if " + " in num_s:
            num_s = f"({num_s})"
        if " + " in den_s or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s.replace(' ', '')}/{den_s.replace(' ', '')}"

    # -- substitution and evaluation

    def substitute(self, var: int, replacement: "RationalFunction") -> "RationalFunction":
        """Replace x_var once; the replacement is not re-substituted."""
        if not 0 <= var < self.nvars:
            raise InvalidVertexError(f"variable {var} outside [0, {self.nvars})")
        n_num, n_den = _substitute_in_poly(self.num, var, replacement)
        d_num, d_den = _substitute_in_poly(self.den, var, replacement)
        if d_num.is_zero():
            raise DegenerateSubstitutionError(
                f"denominator vanished substituting x{var}"
            )
        return RationalFunction(n_num * d_den, d_num * n_den)

    def evaluate(self, point: Sequence[Element], params: FieldParams) -> Element:
        den_val = self.den.evaluate(point, params)
        if not any(den_val):
            raise DenominatorVanishesError(self.den.render())
        num_val = self.num.evaluate(point, params)
        return fields.ext_mul(num_val, fields.ext_inv(den_val, params), params)

    def evaluate_int(self, point: Sequence[int]) -> int:
        den_val = self.den.evaluate_int(point)
        if den_val == 0:
            raise DenominatorVanishesError(self.den.render())
        return self.num.evaluate_int(point) * fields.fp_inv(den_val, self.p) % self.p

    def denominator_vector(self) -> tuple[int, ...]:
        """Exponent vector of the monomial denominator; x_i maps to -e_i."""
        i = self.is_variable()
        if i is not None:
            vec = [0] * self.nvars
            vec[i] = -1
            return tuple(vec)
        if not self.den.is_monomial():
            raise NotClusterShapedError(self.render())
        return next(iter(self.den.terms))


def _substitute_in_poly(
    poly: Polynomial, var: int, rep: RationalFunction
) -> tuple[Polynomial, Polynomial]:
    """poly with x_var := rep, returned as (numerator, denominator)."""
    d = poly.degree_in(var)
    if d == 0:
        return poly, Polynomial.one(poly.nvars, poly.p)
    num_pows = [Polynomial.one(poly.nvars, poly.p)]
    den_pows = [Polynomial.one(poly.nvars, poly.p)]
    for _ in range(d):
        num_pows.append(num_pows[-1] * rep.num)
        den_pows.append(den_pows[-1] * rep.den)
    total = Polynomial.zero(poly.nvars, poly.p)
    for exps, c in poly.terms.items():
        e = exps[var]
        rest = list(exps)
        rest[var] = 0
        mono = Polynomial(poly.nvars, poly.p, {tuple(rest): c})
        total = total + mono * num_pows[e] * den_pows[d - e]
    return total, den_pows[d]


# --- symbolic seeds ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SymbolicSeed:
    """Ordered cluster of rational functions plus an exchange matrix."""

    entries: tuple[RationalFunction, ...]
    matrix: ExchangeMatrix

    def __post_init__(self):
        if len(self.entries) != self.matrix.n:
            raise InvalidVertexError(
                f"{len(self.entries)} entries for a rank-{self.matrix.n} matrix"
            )


def initial_symbolic_seed(matrix: ExchangeMatrix, p: int) -> SymbolicSeed:
    n = matrix.n
    return SymbolicSeed(
        tuple(RationalFunction.variable(i, n, p) for i in range(n)), matrix
    )


def rf_mutate(seed: SymbolicSeed, k: int) -> SymbolicSeed:
    """Symbolic mutation at k: binomial of row-k monomials over entry k."""
    matrix = matrix_mutate(seed.matrix, k)
    n = matrix.n
    entry_k = seed.entries[k]
    if entry_k.is_zero():
        raise MutationDivisionError(k)
    p = entry_k.p
    pos = RationalFunction.one(n, p)
    neg = RationalFunction.one(n, p)
    for j, b in enumerate(seed.matrix.rows[k]):
        if b > 0:
            pos = pos * seed.entries[j] ** b
        elif b < 0:
            neg = neg * seed.entries[j] ** (-b)
    binomial = pos + neg
    entries = list(seed.entries)
    entries[k] = _divide_out_entry(binomial, entry_k)
    return SymbolicSeed(tuple(entries), matrix)


def _divide_out_entry(
    binomial: RationalFunction, entry: RationalFunction
) -> RationalFunction:
    # Laurent phenomenon (Fomin-Zelevinsky, "Cluster algebras I", Thm 3.1):
    # the new entry is a polynomial over a monomial, so every non-monomial
    # factor of entry k's numerator divides the binomial's numerator. In
    # finite type a non-monomial numerator has a nonzero constant term, so
    # no monomial factor, and divides exactly. NotDivisibleError: a bug.
    if entry.num.is_monomial():
        return RationalFunction(binomial.num * entry.den, binomial.den * entry.num)
    return RationalFunction(
        binomial.num.divide_exact(entry.num) * entry.den, binomial.den
    )


def apply_symbolic_sequence(seed: SymbolicSeed, ks: Sequence[int]) -> SymbolicSeed:
    for k in ks:
        seed = rf_mutate(seed, k)
    return seed
