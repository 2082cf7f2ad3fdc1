"""The mutation cipher: encode, validate keys, encrypt, decrypt, serialize.

A message m != 0 in GF(p^r) is placed at position k0 of the initial
cluster (all other positions hold alpha^i), the secret mutation sequence
k_1..k_t is applied, and the resulting seed (values, matrix) is the
ciphertext. Decryption applies the reversed sequence and reads position
k0 back, checking that every other position returned to alpha^i and the
matrix returned to the initial one.

A step reads only row k of the current matrix, and the matrices along
the key's path depend only on the diagram and the key. So the key's
schedule is the initial matrix, the row each step reads and the final
matrix: validated and built once per key object, kept on that object,
and reused for every record it encrypts or decrypts. Each cipher step
then does only field work. The schedule walks bare rows and checks only
the final matrix: mutation keeps the Dynkin matrix skew-symmetrizable,
so the matrices between cannot fail the check (cluster.mutate_rows).
Decryption walks the same rows backward: the reverse step reads the row
negated, which swaps the two monomials of the exchange relation and
leaves its value alone.

The fast path mutates numerically in GF(p^r). The reference path mirrors
the textbook presentation -- mutate symbolically, substitute the message
into x_k0, evaluate at x_i = alpha^i -- and is kept behind a flag as the
cipher's oracle. Both must produce identical ciphertexts.

Key, params and ciphertext files are canonical JSON, read by one loader
that only parses. Integers are checked by the constructors every value
passes through (`fields.require_int`: no bool, float or str), so a value
built in code and one read from a file meet the same rule; the loader
turns any failure while building into a ParseError. A ciphertext record
repeats the params as its header; the reader checks that header against
the params the caller already holds and builds only the matrix and the
values, so the field is not validated again per record. Params that
validated are kept per process, keyed by the canonical bytes of their
four fields (the bytes a record header is compared by), so each params
file is validated once per process, not once per command; key files
are not kept, since a key's schedule lives exactly as long as the key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from random import Random
from typing import Optional, Union

from . import fields
from .cluster import (
    DynkinSpec,
    ExchangeMatrix,
    Rows,
    apply_sequence,
    dynkin_exchange_matrix,
    mutate_rows,
    numeric_mutate,
)
from .errors import (
    ClusterCryptError,
    CorruptOrWrongKeyError,
    DecryptionFailedError,
    EncryptionFailedError,
    InfeasibleKeyError,
    InvalidKeyError,
    InvalidMatrixError,
    InvalidSpecError,
    MutationDivisionError,
    OutOfRangeError,
    ParseError,
    UnknownSymbolError,
    ZeroMessageError,
)
from .fields import Element, FieldParams, require_int
from .symbolic import (
    Polynomial,
    RationalFunction,
    initial_symbolic_seed,
    rf_mutate,
)

WIRE_VERSION = 1


@dataclass(frozen=True)
class Alphabet:
    """Letter<->number tables: A=1..Z=26, with 27..31 spelled X,Y,Z,X,Y."""

    letters: str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    overflow: str = "XYZXY"

    def size(self) -> int:
        return len(self.letters)

    def number_of(self, letter: str) -> int:
        # only ASCII is upper-cased: "ı".upper() is "I" and "ſ".upper() is "S"
        index = self.letters.find(letter.upper() if letter.isascii() else letter)
        if len(letter) != 1 or index < 0:
            raise UnknownSymbolError(f"{letter!r} is not in the alphabet")
        return index + 1

    def letter_of(self, number: int) -> Optional[str]:
        if 1 <= number <= len(self.letters):
            return self.letters[number - 1]
        overflow_index = number - len(self.letters) - 1
        if 0 <= overflow_index < len(self.overflow):
            return self.overflow[overflow_index]
        return None


DEFAULT_ALPHABET = Alphabet()


@dataclass(frozen=True)
class SecretKey:
    """Hide position k0 plus the mutation sequence k_1..k_t."""

    k0: int
    seq: tuple[int, ...]

    def __post_init__(self):
        require_int(self.k0, "k0")
        seq = tuple(require_int(k, "seq entry") for k in self.seq)
        object.__setattr__(self, "seq", seq)

    def to_dict(self) -> dict:
        return {"k0": self.k0, "seq": list(self.seq)}

    @classmethod
    def from_dict(cls, d: dict) -> "SecretKey":
        _require_fields(d, ("k0", "seq"))
        return cls(d["k0"], d["seq"])


@dataclass(frozen=True)
class CiphertextSeed:
    """The transmitted pair: mutated values and mutated matrix."""

    values: tuple[Element, ...]
    matrix: ExchangeMatrix

    def __post_init__(self):
        if len(self.values) != self.matrix.n:
            raise InvalidSpecError(
                f"{len(self.values)} values for a rank-{self.matrix.n} matrix"
            )
        values = tuple(map(tuple, self.values))
        if not all(type(d) is int for v in values for d in v):
            for v in values:
                for d in v:
                    require_int(d, "digit")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SystemParams:
    """Field, Dynkin diagram (rank must equal the field degree), alphabet."""

    field: FieldParams
    diagram: DynkinSpec
    alphabet: Optional[Alphabet] = DEFAULT_ALPHABET

    def __post_init__(self):
        if self.diagram.rank != self.field.r:
            raise InvalidSpecError(
                f"diagram rank {self.diagram.rank} != field degree {self.field.r}"
            )
        if self.alphabet is not None and self.field.q < self.alphabet.size():
            raise InvalidSpecError(
                f"field size {self.field.q} below alphabet size "
                f"{self.alphabet.size()}"
            )
        self.initial_matrix()  # an orientation must direct every diagram edge
        # the params file, and the header every ciphertext record must repeat
        object.__setattr__(self, "_header", _canonical_bytes(self.to_dict()))

    def initial_matrix(self) -> ExchangeMatrix:
        return dynkin_exchange_matrix(self.diagram)

    def to_dict(self) -> dict:
        d = self.field.to_dict()
        d["diagram"] = self.diagram.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        """The params of fields p, r, f and diagram; other fields are ignored.

        Equal fields, compared as canonical bytes, give the same object:
        the last 8 distinct params are kept, so a params file is built and
        validated once per process, not once per command.
        """
        _require_fields(d, _PARAMS_FIELDS)
        return _params_from_header(_canonical_bytes({name: d[name] for name in _PARAMS_FIELDS}))


_PARAMS_FIELDS = ("p", "r", "f", "diagram")


@lru_cache(maxsize=8)
def _params_from_header(header: bytes) -> SystemParams:
    """Build and validate params from their canonical bytes; a failure is not kept."""
    d = json.loads(header)
    diagram = d["diagram"]
    if not isinstance(diagram, dict):
        raise ParseError("diagram is not an object")
    _require_fields(diagram, ("family", "rank"), "diagram ")
    orientation = diagram.get("orientation", "default")
    spec = DynkinSpec(diagram["family"], diagram["rank"], orientation)
    return SystemParams(FieldParams.from_dict(d), spec)


# --- message codec -----------------------------------------------------------


def encode_message(value: Union[int, str], params: SystemParams) -> Element:
    """Letter or integer to a nonzero field element (base-p digits)."""
    if isinstance(value, str):
        if params.alphabet is None:
            raise UnknownSymbolError("no alphabet configured for letter messages")
        number = params.alphabet.number_of(value)
    else:
        number = require_int(value, "message")
    if number == 0:
        raise ZeroMessageError("0 cannot be a message")
    if not 0 < number < params.field.q:
        raise OutOfRangeError(f"{number} outside (0, {params.field.q})")
    return fields.int_to_element(number, params.field)


@dataclass(frozen=True)
class DecodedMessage:
    number: int
    letter: Optional[str]


def decode_message(elem: Element, params: SystemParams) -> DecodedMessage:
    number = fields.element_to_int(elem, params.field)
    if number == 0:
        raise ZeroMessageError("decoded the zero element")
    letter = params.alphabet.letter_of(number) if params.alphabet else None
    return DecodedMessage(number, letter)


# --- key validation and generation --------------------------------------------


@dataclass(frozen=True)
class KeyViolation:
    code: str
    message: str


def validate_key(key: SecretKey, matrix: ExchangeMatrix) -> tuple[KeyViolation, ...]:
    """Every violated constraint, none silently; empty tuple means valid.

    Constraints: all indices in [0, r); consecutive mutation indices
    differ; k0 occurs in the sequence; some index adjacent to k0 in the
    quiver appears before the first occurrence of k0.
    """
    r = matrix.n
    violations = []
    indices = (key.k0,) + key.seq
    if any(not 0 <= k < r for k in indices):
        bad = [k for k in indices if not 0 <= k < r]
        violations.append(
            KeyViolation("entry-out-of-range", f"indices {bad} outside [0, {r})")
        )
        return tuple(violations)
    for i in range(len(key.seq) - 1):
        if key.seq[i] == key.seq[i + 1]:
            violations.append(
                KeyViolation(
                    "consecutive-repeat",
                    f"positions {i + 1},{i + 2} repeat vertex {key.seq[i]} "
                    "(a double mutation is the identity)",
                )
            )
            break
    if key.k0 not in key.seq:
        violations.append(
            KeyViolation(
                "hide-position-missing",
                f"hide position {key.k0} never mutated by the sequence",
            )
        )
    else:
        first = key.seq.index(key.k0)
        # sign-skew-symmetry: row k0's nonzero entries are k0's neighbours
        adjacent = matrix.rows[key.k0]
        if not any(adjacent[k] for k in key.seq[:first]):
            violations.append(
                KeyViolation(
                    "no-adjacent-before-hide",
                    f"no vertex adjacent to {key.k0} is mutated before its "
                    "first occurrence",
                )
            )
    return tuple(violations)


_KEYGEN_ATTEMPTS = 20_000


def keygen(rng_seed: int, params: SystemParams, t: int) -> SecretKey:
    """Uniform sample over valid keys of length t (rejection sampling)."""
    if t < 1:
        raise InfeasibleKeyError("key length must be at least 1")
    r = params.field.r
    matrix = params.initial_matrix()
    rng = Random(rng_seed)
    for _ in range(_KEYGEN_ATTEMPTS):
        k0 = rng.randrange(r)
        seq = [rng.randrange(r)]
        for _ in range(t - 1):
            offset = rng.randrange(r - 1) if r > 1 else 0
            previous = seq[-1]
            seq.append(offset if offset < previous else offset + 1)
        key = SecretKey(k0, tuple(seq))
        if not validate_key(key, matrix):
            return key
    raise InfeasibleKeyError(f"no valid key of length {t} found for rank {r}")


def _schedule(
    params: SystemParams, key: SecretKey
) -> tuple[ExchangeMatrix, Rows, ExchangeMatrix]:
    """(M_0, rows, M_t): the initial matrix, the row k_i of M_(i-1) that
    key step i reads, and the final matrix.

    The key is validated and the rows built once per key object and
    diagram; the result is kept on the key, as FieldParams keeps its
    packed rows, so it lives exactly as long as the key does. The walk
    is on bare rows: M_0 is skew-symmetrizable and mutation keeps it so
    (cluster.mutate_rows), so only M_t is built as a checked matrix.
    """
    initial = params.initial_matrix()
    schedule = getattr(key, "_schedule", None)
    if schedule is not None and schedule[0] == initial:
        return schedule
    violations = validate_key(key, initial)
    if violations:
        raise InvalidKeyError(violations)
    rows, current = [], initial.rows
    for k in key.seq:
        rows.append(current[k])
        current = mutate_rows(current, k)
    schedule = (initial, tuple(rows), ExchangeMatrix(current))
    object.__setattr__(key, "_schedule", schedule)
    return schedule


# --- encryption / decryption ---------------------------------------------------


def _alpha_point(params: SystemParams) -> list[Element]:
    return [params.field.alpha_power(i) for i in range(params.field.r)]


def encrypt(
    params: SystemParams,
    key: SecretKey,
    message: Element,
    reference_path: bool = False,
) -> CiphertextSeed:
    """Hide the message at k0 and run the mutation sequence.

    The message must be r digits in [0, p), else OutOfRangeError. A step
    whose result is zero raises EncryptionFailedError: such a seed can
    never be decrypted, so the caller should re-key.
    """
    _, rows, final = _schedule(params, key)
    field = params.field
    if len(message) != field.r or any(
        not 0 <= require_int(d, "digit") < field.p for d in message
    ):
        raise OutOfRangeError(f"message is not {field.r} digits in [0, {field.p})")
    if not any(message):
        raise ZeroMessageError("0 cannot be encrypted")
    # every value starts nonzero and each new one is checked, so no step
    # divides by zero; in the reference path each denominator is a monomial
    # (Laurent phenomenon) evaluated at nonzero coordinates
    if reference_path:
        return _encrypt_reference(params, key, message)
    values = _alpha_point(params)
    values[key.k0] = tuple(message)
    values = tuple(values)
    for step, (k, row) in enumerate(zip(key.seq, rows), start=1):
        values = numeric_mutate(values, row, k, field)
        if not any(values[k]):
            raise EncryptionFailedError(step, "mutation produced the zero value")
    return CiphertextSeed(values, final)


def _message_combination(params: SystemParams, message: Element) -> RationalFunction:
    """The message as a linear combination of initial cluster variables."""
    r = params.field.r
    terms = {
        tuple(1 if j == i else 0 for j in range(r)): c
        for i, c in enumerate(message)
        if c
    }
    return RationalFunction.from_polynomial(Polynomial(r, params.field.p, terms))


def _encrypt_reference(
    params: SystemParams, key: SecretKey, message: Element
) -> CiphertextSeed:
    point = _alpha_point(params)
    moved_point = list(point)
    moved_point[key.k0] = tuple(message)
    combination = _message_combination(params, message)
    seed = initial_symbolic_seed(params.initial_matrix(), params.field.p)
    for step, k in enumerate(key.seq, start=1):
        seed = rf_mutate(seed, k)
        # the evaluated new entry is exactly the fast path's value at this
        # step; fail in lockstep with it
        value = seed.entries[k].evaluate(moved_point, params.field)
        if not any(value):
            raise EncryptionFailedError(step, "mutation produced the zero value")
    values = tuple(
        entry.substitute(key.k0, combination).evaluate(point, params.field)
        for entry in seed.entries
    )
    return CiphertextSeed(values, seed.matrix)


def decrypt(params: SystemParams, key: SecretKey, ct: CiphertextSeed) -> Element:
    """Run the reversed sequence and read the hide position back.

    Every other position must have returned to alpha^i and the matrix to
    the initial one; anything else means a corrupt seed or a wrong key.
    A record whose matrix is the key's final one walks the schedule's
    rows backward. Any other matrix goes through apply_sequence, so a
    tampered record fails at the step, and with the message, of that
    plain walk; a matrix that leaves sign-skew-symmetry, or the 2-finite
    matrices that every matrix of a finite-type class is in, on the way is
    corrupt too.
    """
    initial, rows, final = _schedule(params, key)
    field = params.field
    if len(ct.values) != field.r:
        raise CorruptOrWrongKeyError(
            f"ciphertext rank {len(ct.values)} != field degree {field.r}"
        )
    if ct.matrix == final:
        values, matrix = ct.values, initial
        for step, (k, row) in enumerate(zip(reversed(key.seq), reversed(rows)), start=1):
            try:
                values = numeric_mutate(values, row, k, field)
            except MutationDivisionError as exc:
                raise DecryptionFailedError(step) from exc
    else:
        try:
            values, matrix = apply_sequence(ct.values, ct.matrix, key.seq[::-1], field)
        except MutationDivisionError as exc:
            raise DecryptionFailedError(exc.step) from exc
        except InvalidMatrixError as exc:
            raise CorruptOrWrongKeyError(str(exc)) from exc
    point = _alpha_point(params)
    for i, value in enumerate(values):
        if i != key.k0 and value != point[i]:
            raise CorruptOrWrongKeyError(
                f"integrity position {i} did not return to its base value"
            )
    if matrix.rows != initial.rows:
        raise CorruptOrWrongKeyError("matrix did not return to the initial one")
    message = values[key.k0]
    if not any(message):
        raise CorruptOrWrongKeyError("recovered the zero element")
    return message


# --- wire format ----------------------------------------------------------------


def _canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def serialize_ciphertext(params: SystemParams, ct: CiphertextSeed) -> bytes:
    """Versioned canonical JSON: the params header, the matrix and digit arrays."""
    payload = params.to_dict()
    payload["v"] = WIRE_VERSION
    payload["matrix"] = ct.matrix.to_lists()
    payload["values"] = [list(v) for v in ct.values]
    return _canonical_bytes(payload)


def _require_fields(d: dict, names: tuple[str, ...], what: str = "") -> None:
    missing = set(names) - d.keys()
    if missing:
        raise ParseError(f"missing {what}fields {sorted(missing)}")


def _read_object(data: bytes, build):
    """build(payload) for one JSON object; every failure is a ParseError."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError("payload is not UTF-8", position=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", position=exc.pos) from exc
    except RecursionError as exc:
        raise ParseError("bad JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ParseError("payload is not an object")
    try:
        return build(payload)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, ClusterCryptError) as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:  # a value nested almost as deep as json allows
        raise ParseError("bad JSON: nested too deeply") from exc


def _ciphertext_from_dict(params: SystemParams, payload: dict) -> CiphertextSeed:
    version = payload.get("v")
    if type(version) is not int or version != WIRE_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    _require_fields(payload, _PARAMS_FIELDS + ("matrix", "values"))
    # bytes, not dicts: 2.0 == 2 and True == 1 in Python
    header = {name: payload[name] for name in _PARAMS_FIELDS}
    if _canonical_bytes(header) != params._header:
        SystemParams.from_dict(header)  # a malformed header names its own fault
        raise ParseError("ciphertext params do not match --params")
    ct = CiphertextSeed(payload["values"], ExchangeMatrix(payload["matrix"]))
    if ct.matrix.n != params.field.r:
        raise ParseError(f"ciphertext rank {ct.matrix.n} != field degree {params.field.r}")
    if any(len(v) != params.field.r for v in ct.values):
        raise ParseError("value digit arrays do not match the field degree")
    if any(not 0 <= d < params.field.p for v in ct.values for d in v):
        raise ParseError("digits outside [0, p)")
    return ct


def deserialize_ciphertext(data: bytes, params: SystemParams) -> CiphertextSeed:
    """One record, read against the params the caller holds.

    The record's header must equal `params` byte for byte in canonical
    form, else ParseError. A record header is a params file plus `v`,
    `matrix` and `values`, so a caller without params reads a record with
    `deserialize_ciphertext(line, deserialize_params(line))`.
    """
    return _read_object(data, partial(_ciphertext_from_dict, params))


def serialize_key(key: SecretKey) -> bytes:
    return _canonical_bytes(key.to_dict())


def deserialize_key(data: bytes) -> SecretKey:
    return _read_object(data, SecretKey.from_dict)


def serialize_params(params: SystemParams) -> bytes:
    return params._header


def deserialize_params(data: bytes) -> SystemParams:
    return _read_object(data, SystemParams.from_dict)
