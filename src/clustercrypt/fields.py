"""Exact arithmetic in Z_p and GF(p^r) = Z_p[x]/<f>.

Field elements are coordinate tuples (a_0, ..., a_{r-1}) with respect to
the basis {1, alpha, ..., alpha^{r-1}}, alpha a root of the irreducible
modulus f. Every coordinate is kept reduced mod p at all times. The
canonical integer of an element is sum(a_i * p^i); Python integers are
arbitrary precision, so p^r far beyond machine words is fine.

Integers are checked where values are built, not where files are read:
`require_int` admits only int (no bool, float or str) and raises
TypeError, and FieldParams (p, r, each coefficient of f) and
int_to_element call it, so nothing is truncated on any path.

Tested ranges are p <= 101 and r <= 8; nothing here assumes those bounds,
but the irreducibility trial division documents an O(p^(r/2)) cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    InvalidPolynomialError,
    NonInvertibleError,
    OutOfRangeError,
)

Element = tuple[int, ...]

# Miller-Rabin with these bases is deterministic below 3.3 * 10^24,
# far beyond any modulus this package meets.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def require_int(value, what: str) -> int:
    """value itself if it is an int; bool, float and str raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p (p prime)."""
    a %= p
    if a == 0:
        raise NonInvertibleError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


# --- dense polynomials over Z_p, ascending coefficient lists -------------
#
# Normal form: no trailing zeros ([] is the zero polynomial). These are
# internal helpers for the modulus f; the symbolic module has its own
# sparse multivariate representation.


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pdivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = fp_inv(b[-1], p)
    for shift in range(len(rem) - len(b), -1, -1):
        c = rem[shift + len(b) - 1] * inv_lead % p
        if c:
            quo[shift] = c
            for j, bj in enumerate(b):
                rem[shift + j] = (rem[shift + j] - c * bj) % p
    return _trim(quo), _trim(rem)


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _pdivmod(a, b, p)[1]


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = fp_inv(a[-1], p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), mod, p)
        acc = _pmod(_pmul(acc, acc, p), mod, p)
        e >>= 1
    return result


def _monic_polys(degree: int, p: int) -> Iterable[list[int]]:
    """All monic polynomials of exactly the given degree over Z_p."""
    lower = [0] * degree
    while True:
        yield lower + [1]
        for i in range(degree):
            lower[i] += 1
            if lower[i] < p:
                break
            lower[i] = 0
        else:
            return


# Candidate-divisor count up to which plain trial division is used; above
# it the Rabin power test takes over. Measured on irreducible moduli
# (min of 5 runs, CPython 3.11, shared 2-vCPU host): trial division wins
# up to about 31 candidates (GF(2^5) 38 vs 73 us, GF(31^2) 70 vs 145 us)
# and loses from 56 on (GF(7^4) 408 vs 164 us, GF(101^4) 40 ms vs 0.48 ms).
_TRIAL_DIVISION_LIMIT = 32


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """True iff f has no nontrivial factorization over Z_p.

    Trial division by all monic polynomials of degree <= deg(f)/2 when that
    space is small (O(p^(r/2)) candidates); otherwise the Rabin test:
    x^(p^r) == x mod f, and gcd(x^(p^(r/q)) - x, f) = 1 for primes q | r.
    """
    if not is_prime(p):
        raise InvalidPolynomialError(f"{p} is not prime")
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    deg = len(f) - 1
    if deg < 1:
        raise InvalidPolynomialError("constant polynomial has no irreducibility")
    if deg == 1:
        return True

    half = deg // 2
    n_candidates = sum(p**d for d in range(1, half + 1))
    if n_candidates <= _TRIAL_DIVISION_LIMIT:
        for d in range(1, half + 1):
            for g in _monic_polys(d, p):
                if not _pmod(f, g, p):
                    return False
        return True

    x = [0, 1]
    if _psub(_ppowmod(x, p**deg, f, p), x, p):
        return False  # x^(p^r) != x mod f
    prime_factors = [q for q in range(2, deg + 1) if deg % q == 0 and is_prime(q)]
    for q in prime_factors:
        diff = _psub(_ppowmod(x, p ** (deg // q), f, p), x, p)
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Description of GF(p^r): prime p, degree r, irreducible modulus f.

    f is the ascending coefficient tuple of a monic degree-r polynomial,
    length r+1, every coefficient reduced mod p.
    """

    p: int
    r: int
    f: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(require_int(self.p, "p")):
            raise InvalidPolynomialError(f"p={self.p} is not prime")
        if require_int(self.r, "r") < 1:
            raise InvalidPolynomialError(f"r={self.r} must be >= 1")
        f = tuple(require_int(c, "modulus coefficient") % self.p for c in self.f)
        object.__setattr__(self, "f", f)
        if len(self.f) != self.r + 1:
            raise InvalidPolynomialError(
                f"modulus needs {self.r + 1} coefficients, got {len(self.f)}"
            )
        if self.f[-1] != 1:
            raise InvalidPolynomialError("modulus must be monic")
        if not is_irreducible(self.f, self.p):
            raise InvalidPolynomialError("modulus is reducible over Z_p")

    @property
    def q(self) -> int:
        return self.p**self.r

    def zero(self) -> Element:
        return (0,) * self.r

    def one(self) -> Element:
        return (1,) + (0,) * (self.r - 1)

    def alpha_power(self, i: int) -> Element:
        """alpha^i for 0 <= i < r: the i-th basis vector."""
        if not 0 <= i < self.r:
            raise OutOfRangeError(f"alpha power {i} outside [0, {self.r})")
        coords = [0] * self.r
        coords[i] = 1
        return tuple(coords)

    def to_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "f": list(self.f)}

    @classmethod
    def from_dict(cls, d: dict) -> "FieldParams":
        return cls(d["p"], d["r"], d["f"])


def ext_add(a: Element, b: Element, params: FieldParams) -> Element:
    p = params.p
    return tuple((x + y) % p for x, y in zip(a, b))


def scalar_mul(c: int, a: Element, params: FieldParams) -> Element:
    p = params.p
    c %= p
    return tuple(c * x % p for x in a)


def ext_mul(a: Element, b: Element, params: FieldParams) -> Element:
    """Product in GF(p^r): schoolbook multiply, reduce mod f."""
    p = params.p
    prod = _pmul(list(a), list(b), p)
    red = _pmod(prod, list(params.f), p)
    red += [0] * (params.r - len(red))
    return tuple(red)


def ext_inv(a: Element, params: FieldParams) -> Element:
    """Inverse via extended Euclid on polynomials mod f."""
    if not any(a):
        raise NonInvertibleError("zero element has no inverse")
    p = params.p
    t, new_t = [], [1]
    r, new_r = list(params.f), _trim(list(a))
    while new_r:
        q, rem = _pdivmod(r, new_r, p)
        t, new_t = new_t, _psub(t, _pmul(q, new_t, p), p)
        r, new_r = new_r, rem
    # r is now gcd(a, f), a nonzero constant since f is irreducible
    inv_c = fp_inv(r[0], p)
    out = [c * inv_c % p for c in t]
    out += [0] * (params.r - len(out))
    return tuple(out[: params.r])


def ext_pow(a: Element, e: int, params: FieldParams) -> Element:
    if e < 0:
        return ext_pow(ext_inv(a, params), -e, params)
    result = params.one()
    acc = a
    while e:
        if e & 1:
            result = ext_mul(result, acc, params)
        acc = ext_mul(acc, acc, params)
        e >>= 1
    return result


def element_to_int(a: Element, params: FieldParams) -> int:
    """Canonical integer sum(a_i * p^i) in [0, p^r)."""
    n = 0
    for c in reversed(a):
        n = n * params.p + c
    return n


def int_to_element(n: int, params: FieldParams) -> Element:
    if not 0 <= require_int(n, "element integer") < params.q:
        raise OutOfRangeError(f"{n} outside [0, {params.p}^{params.r})")
    coords = []
    for _ in range(params.r):
        n, c = divmod(n, params.p)
        coords.append(c)
    return tuple(coords)


def random_element(rng, params: FieldParams, nonzero: bool = False) -> Element:
    while True:
        e = tuple(rng.randrange(params.p) for _ in range(params.r))
        if not nonzero or any(e):
            return e
