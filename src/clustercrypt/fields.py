"""Exact arithmetic in Z_p and GF(p^r) = Z_p[x]/<f>.

Field elements are coordinate tuples (a_0, ..., a_{r-1}) with respect to
the basis {1, alpha, ..., alpha^{r-1}}, alpha a root of the irreducible
modulus f. Every coordinate is kept reduced mod p at all times. The
canonical integer of an element is sum(a_i * p^i); Python integers are
arbitrary precision, so p^r far beyond machine words is fine.

Fields of at most TABLE_MAX_Q = 1000 elements multiply, invert and raise
to powers by discrete-log tables. For a primitive g, log maps each
nonzero element a to the i with g^i = a, and exp maps i back, stored
twice over: ext_mul is exp[log a + log b], ext_inv exp[(q-1) - log a]
and ext_pow exp[log a * e mod (q-1)]; a zero operand gives zero, and
0^0 one. A field's tables are built on its first multiply, inverse or
power, never when params are read, and kept in a process-wide cache of
eight fields keyed by (p, r, f): every CLI command reads its params file
again, so tables kept on one FieldParams object would be rebuilt per
command. The build is q - 1 packed multiplies; TABLE_MAX_Q keeps the
slowest one under 5 ms: GF(3^6) took 2.6-3.8 ms and GF(2^10) 4.2-6.2 ms
(best of 7, three runs, shared 2-vCPU Xeon).

Above TABLE_MAX_Q a product is one integer multiply: the packed multiply
puts each operand's digits into fixed-width slots of one int, wide
enough that no slot carries into the next, folds the high slots with
packed rows x^(r+i) mod f and reduces each low slot mod p; an inverse
is extended Euclid on packed ints too. Both need digits in [0, p).
Digit tuples stay the interface and the wire form.

Integers are checked where values are built, not where files are read:
`require_int` admits only int (no bool, float or str) and raises
TypeError, and FieldParams (p, r, each coefficient of f) and
int_to_element call it, so nothing is truncated on any path.

FieldParams accepts p <= MAX_P and r <= MAX_R, checked before the
modulus is tested. p then stays where is_prime's Miller-Rabin bases are
deterministic, a packed product slot is at most 58 bits wide and an
inverse's slot at most 561. The modulus is tested by Ben-Or's degree
loop (is_irreducible): at most r/2 = 16 rounds of one p-th power and
one gcd mod f, about 0.1 s for degree 30 or 32 over GF(65521) on a
shared 2-vCPU host. Tested ranges are p <= 101 and r <= 8, and to
GF(65521^8) and GF(2^32) for the field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import (
    InvalidPolynomialError,
    NonInvertibleError,
    OutOfRangeError,
)

Element = tuple[int, ...]

# Miller-Rabin with these bases is deterministic below 3.18 * 10^23
# (Sorenson and Webster 2015), far above MAX_P; is_prime also trial-divides
# by them first.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The largest field FieldParams accepts: p <= MAX_P (the largest prime
# below 2^16) and r <= MAX_R.
MAX_P = 65521
MAX_R = 32

# The largest field with log tables (see the module docstring).
TABLE_MAX_Q = 1000


def require_int(value, what: str) -> int:
    """value itself if it is an int; bool, float and str raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
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


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a divided by b, cancelling a's leading term each step."""
    rem = list(a)
    top = len(b) - 1
    inv_lead = fp_inv(b[-1], p)
    low = b[:top]
    while len(rem) > top:
        c = rem.pop() * inv_lead % p
        if c:
            for j, y in enumerate(low, len(rem) - top):
                rem[j] = (rem[j] - c * y) % p
    return _trim(rem)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = fp_inv(a[-1], p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    """base^e mod `mod` from the lowest set bit's power, as ext_pow; [1] for e = 0."""
    result = None
    acc = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = acc if result is None else _pmod(_pmul(result, acc, p), mod, p)
        e >>= 1
        if e:
            acc = _pmod(_pmul(acc, acc, p), mod, p)
    return [1] if result is None else result


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """True iff f has no nontrivial factorization over Z_p.

    Ben-Or's test: f of degree n is irreducible iff gcd(x^(p^d) - x, f) = 1
    for d = 1..n/2, since a reducible f has a factor of degree at most n/2.
    Round d raises the previous x^(p^(d-1)) mod f to the p-th power, so the
    cost is at most n/2 rounds of log2(p) squarings mod f and one gcd.
    """
    if not is_prime(p):
        raise InvalidPolynomialError(f"{p} is not prime")
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    deg = len(f) - 1
    if deg < 1:
        raise InvalidPolynomialError("constant polynomial has no irreducibility")
    x = power = [0, 1]
    for _ in range(deg // 2):
        power = _ppowmod(power, p, f, p)
        if len(_pgcd(f, _psub(power, x, p), p)) != 1:
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
        # ext_inv's slots hold (p - 1)(2p - 1)^r and a spare bit
        width = ((p - 1) * (2 * p - 1) ** r).bit_length() + 1
        shifts = tuple(range(0, (r + 1) * width, width))
        masks = tuple((1 << s) - 1 for s in shifts)
        packed_f = sum(c << s for c, s in zip(f, shifts))
        object.__setattr__(self, "_euclid", (width, masks[1], shifts, masks, packed_f))
        # () until the first multiply, inverse or power attaches (log, exp)
        # (_attach_tables); None above TABLE_MAX_Q. A plain attribute, not a
        # cached_property: that one reads the instance __dict__, and a read
        # __dict__ made every attribute read of the object 4x slower
        object.__setattr__(self, "_tables", () if self.q <= TABLE_MAX_Q else None)

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
    """Product in GF(p^r): exp[log a + log b] for q <= TABLE_MAX_Q.

    Above it, one multiply of the packed operands, fold, reduce.
    """
    tables = params._tables
    if tables is not None:
        log, exp = tables or _attach_tables(params)
        try:
            return exp[log[a] + log[b]]
        except KeyError:
            if any(a) and any(b):
                raise  # not an element of this field
            return params.zero()
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
    """Inverse: exp[(q - 1) - log a] for q <= TABLE_MAX_Q.

    Above it, extended Euclid: t * a == rem (mod f) holds for the pairs
    (t, rem) and (new_t, new_rem) while rem is divided by new_rem in place,
    until new_rem is a nonzero constant (f is irreducible). Each is one
    int, slot i holding coefficient i unreduced: rem -= c x^s new_rem is
    rem's low slots plus (p - c) times new_rem's shifted, and t gains
    (p - c) x^s new_t. Only leading slots and the result are reduced mod p.

    No slot exceeds (p - 1)(2p - 1)^r. Slots start below p; an elimination
    adds at most p - 1 times the other pair's largest slot, so a round of
    e eliminations multiplies the largest by at most 1 + e(p - 1); n <= r - 1
    rounds make at most r + n eliminations. log(1 + e(p - 1)) is concave,
    so the product is at most (p + r(p - 1)/n)^n, which grows with n to
    (2p - 1)^r at n = r.
    """
    if not any(a):
        raise NonInvertibleError("zero element has no inverse")
    tables = params._tables
    if tables is not None:
        log, exp = tables or _attach_tables(params)
        return exp[len(log) - log[a]]
    p = params.p
    width, mask, shifts, masks, rem = params._euclid
    new_rem = 0
    for c in reversed(a):
        new_rem = new_rem << width | c
    t, new_t = 0, 1
    deg, top = params.r, (new_rem.bit_length() - 1) // width
    while top:
        inv_lead = pow(new_rem >> shifts[top] & mask, -1, p)
        low = new_rem & masks[top]
        while deg >= top:
            minus_c = p - (rem >> shifts[deg] & mask) * inv_lead % p
            s = shifts[deg - top]
            rem = (rem & masks[deg]) + (minus_c * low << s)
            t += minus_c * new_t << s
            deg -= 1
            while not (rem >> shifts[deg] & mask) % p:
                if not deg:  # rem = 0: only a reducible f shares a factor with a
                    raise NonInvertibleError(f"{a} shares a factor with the modulus")
                deg -= 1
        t, new_t, rem, new_rem, deg, top = new_t, t, new_rem, rem, top, deg
    inv_c = pow(new_rem & mask, -1, p)
    return tuple([(new_t >> s & mask) * inv_c % p for s in shifts[:-1]])


def ext_pow(a: Element, e: int, params: FieldParams) -> Element:
    """a^e: exp[log a * e mod (q - 1)] for q <= TABLE_MAX_Q.

    Above it, square and multiply from the lowest set bit's power. 0^0 is
    one, 0^e is zero for e > 0 and 0^e raises NonInvertibleError for e < 0.
    """
    if e < 0:
        a, e = ext_inv(a, params), -e
    tables = params._tables
    if tables is not None:
        log, exp = tables or _attach_tables(params)
        try:
            return exp[log[a] * e % len(log)]
        except KeyError:
            if any(a):
                raise  # not an element of this field
            return params.zero() if e else params.one()
    result = None
    while e:
        if e & 1:
            result = a if result is None else ext_mul(result, a, params)
        e >>= 1
        if e:
            a = ext_mul(a, a, params)
    return params.one() if result is None else result


def _attach_tables(params: FieldParams) -> tuple[dict[Element, int], tuple[Element, ...]]:
    """params' tables, looked up in the process-wide cache and kept on params."""
    tables = _log_tables(params)
    object.__setattr__(params, "_tables", tables)
    return tables


def _without_tables(params: FieldParams) -> FieldParams:
    """A copy of params on which ext_mul, ext_inv and ext_pow skip the tables.

    The tables are built through it, and the tests check them against it.
    """
    packed = FieldParams(params.p, params.r, params.f)
    object.__setattr__(packed, "_tables", None)
    return packed


@lru_cache(maxsize=8)
def _log_tables(params: FieldParams) -> tuple[dict[Element, int], tuple[Element, ...]]:
    """log: nonzero element -> i and exp: i -> g^i for a primitive g.

    g is the first element, in canonical-integer order, with
    g^((q-1)/l) != 1 for every prime l dividing q - 1. exp is stored
    twice over, length 2(q - 1), so a sum of two logs needs no reduction.
    """
    packed = _without_tables(params)
    n, one = params.q - 1, params.one()
    primes = [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
    for number in range(1, params.q):
        g = int_to_element(number, params)
        if all(ext_pow(g, n // ell, packed) != one for ell in primes):
            break
    exp = [one]
    for _ in range(n - 1):
        exp.append(ext_mul(exp[-1], g, packed))
    return {a: i for i, a in enumerate(exp)}, tuple(exp + exp)


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
