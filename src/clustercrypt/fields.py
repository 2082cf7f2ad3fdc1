"""Exact arithmetic in Z_p and GF(p^r) = Z_p[x]/<f>.

Field elements are coordinate tuples (a_0, ..., a_{r-1}) with respect to
the basis {1, alpha, ..., alpha^{r-1}}, alpha a root of the irreducible
modulus f. Every coordinate is kept reduced mod p at all times. The
canonical integer of an element is sum(a_i * p^i); Python integers are
arbitrary precision, so p^r far beyond machine words is fine.

A product is one integer multiply: ext_mul packs each operand's digits
into fixed-width slots of one int, wide enough that no slot carries into
the next, folds the high slots with packed rows x^(r+i) mod f and reduces
each low slot mod p. Digit tuples stay the interface and the wire form.

Integers are checked where values are built, not where files are read:
`require_int` admits only int (no bool, float or str) and raises
TypeError, and FieldParams (p, r, each coefficient of f) and
int_to_element call it, so nothing is truncated on any path.

FieldParams accepts p <= MAX_P and r <= MAX_R, checked before the
modulus is tested. p then stays where is_prime's Miller-Rabin bases are
deterministic, the irreducibility test of the worst accepted modulus
takes well under a second, and a packed slot is at most 58 bits wide.
Tested ranges are p <= 101 and r <= 8.
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

# Miller-Rabin with these bases is deterministic below 3.18 * 10^23
# (Sorenson and Webster 2015), far above MAX_P.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The largest field FieldParams accepts: p <= MAX_P (the largest prime
# below 2^16) and r <= MAX_R.
MAX_P = 65521
MAX_R = 32


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
        p, r = require_int(self.p, "p"), require_int(self.r, "r")
        if p > MAX_P or r > MAX_R:
            raise InvalidPolynomialError(
                f"GF({p}^{r}) is outside the supported p <= {MAX_P}, r <= {MAX_R}"
            )
        if not is_prime(p):
            raise InvalidPolynomialError(f"p={p} is not prime")
        if r < 1:
            raise InvalidPolynomialError(f"r={r} must be >= 1")
        f = tuple(require_int(c, "modulus coefficient") % p for c in self.f)
        object.__setattr__(self, "f", f)
        if len(f) != r + 1:
            raise InvalidPolynomialError(f"modulus needs {r + 1} coefficients, got {len(f)}")
        if f[-1] != 1:
            raise InvalidPolynomialError("modulus must be monic")
        if not is_irreducible(f, p):
            raise InvalidPolynomialError("modulus is reducible over Z_p")
        # ext_mul packs digit i into bits [i w, (i + 1) w). A product slot
        # sums at most r digit products and the fold adds at most r - 1 of
        # those times a digit, so this bound keeps every slot from carrying.
        width = (r * (p - 1) ** 2 * (1 + (r - 1) * (p - 1))).bit_length()
        shifts = tuple(range(0, r * width, width))
        # x^(r+i) mod f for 0 <= i <= r-2, packed: the high slots of a
        # product fold onto the low ones with these rows
        rows = tuple(
            sum(c << s for c, s in zip(_pmod([0] * (r + i) + [1], f, p), shifts))
            for i in range(r - 1)
        )
        object.__setattr__(self, "_packing", (width, (1 << width) - 1, shifts, rows))

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
    return tuple([(x + y) % p for x, y in zip(a, b)])


def scalar_mul(c: int, a: Element, params: FieldParams) -> Element:
    p = params.p
    c %= p
    return tuple(c * x % p for x in a)


def ext_mul(a: Element, b: Element, params: FieldParams) -> Element:
    """Product in GF(p^r): one multiply of the packed operands, fold, reduce."""
    width, mask, shifts, rows = params._packing
    x = y = 0
    for c in reversed(a):
        x = x << width | c
    for c in reversed(b):
        y = y << width | c
    prod = x * y
    # prod keeps its high slots: the fold adds below slot r without a carry
    # into it, and only the slots below r are read back
    high = prod >> params.r * width
    for row in rows:
        prod += (high & mask) * row
        high >>= width
    p = params.p
    return tuple([(prod >> s & mask) % p for s in shifts])


def ext_inv(a: Element, params: FieldParams) -> Element:
    """Inverse via extended Euclid on polynomials mod f.

    Keeps t * a == rem (mod f) for the pairs (t, rem) and (new_t, new_rem),
    dividing rem by new_rem in place, until new_rem is a nonzero constant:
    f is irreducible, so gcd(a, f) is a unit.
    """
    if not any(a):
        raise NonInvertibleError("zero element has no inverse")
    p = params.p
    t, new_t = [0], [1]
    rem, new_rem = list(params.f), _trim(list(a))
    while len(new_rem) > 1:
        top = len(new_rem) - 1
        inv_lead = pow(new_rem[top], -1, p)
        low = new_rem[:top]
        while len(rem) > top:
            # rem -= c x^shift new_rem, dropping the cancelled leading term
            c = rem.pop() * inv_lead % p
            shift = len(rem) - top
            for j, y in enumerate(low, shift):
                rem[j] = (rem[j] - c * y) % p
            while not rem[-1]:
                rem.pop()
            t += [0] * (shift + len(new_t) - len(t))
            for j, y in enumerate(new_t, shift):
                t[j] = (t[j] - c * y) % p
        t, new_t = new_t, t
        rem, new_rem = new_rem, rem
    inv_c = pow(new_rem[0], -1, p)
    out = [c * inv_c % p for c in new_t] + [0] * params.r
    return tuple(out[: params.r])


def ext_pow(a: Element, e: int, params: FieldParams) -> Element:
    """a^e by square and multiply, starting from the lowest set bit's power."""
    if e < 0:
        return ext_pow(ext_inv(a, params), -e, params)
    result = None
    while e:
        if e & 1:
            result = a if result is None else ext_mul(result, a, params)
        e >>= 1
        if e:
            a = ext_mul(a, a, params)
    return params.one() if result is None else result


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
