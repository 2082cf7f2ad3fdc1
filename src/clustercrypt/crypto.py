"""The mutation cipher: encode, validate keys, encrypt, decrypt, serialize.

A message m != 0 in GF(p^r) is placed at position k0 of the initial
cluster (all other positions hold alpha^i), the secret mutation sequence
k_1..k_t is applied, and the resulting seed (values, matrix) is the
ciphertext. Decryption applies the reversed sequence and reads position
k0 back, checking that every other position returned to alpha^i and the
matrix returned to the initial one.

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
values, so the field is validated once per command, not once per record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Optional, Union

from . import fields
from .cluster import (
    DynkinSpec,
    ExchangeMatrix,
    NumericSeed,
    dynkin_exchange_matrix,
    numeric_mutate,
)
from .errors import (
    ClusterCryptError,
    CorruptOrWrongKeyError,
    DecryptionFailedError,
    EncryptionFailedError,
    InfeasibleKeyError,
    InvalidKeyError,
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
        index = self.letters.find(letter.upper())
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
        values = tuple(tuple(require_int(d, "digit") for d in v) for v in self.values)
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

    def initial_matrix(self) -> ExchangeMatrix:
        return dynkin_exchange_matrix(self.diagram)

    def to_dict(self) -> dict:
        d = self.field.to_dict()
        d["diagram"] = self.diagram.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        diagram = d["diagram"]
        if not isinstance(diagram, dict):
            raise ParseError("diagram is not an object")
        orientation = diagram.get("orientation", "default")
        spec = DynkinSpec(diagram["family"], diagram["rank"], orientation)
        return cls(FieldParams.from_dict(d), spec)


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
    violations = validate_key(key, params.initial_matrix())
    if violations:
        raise InvalidKeyError(violations)
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
    seed = _initial_numeric_seed(params, key, message)
    for step, k in enumerate(key.seq, start=1):
        seed = numeric_mutate(seed, k, step=step)
        if not any(seed.values[k]):
            raise EncryptionFailedError(step, "mutation produced the zero value")
    return CiphertextSeed(seed.values, seed.matrix)


def _initial_numeric_seed(
    params: SystemParams, key: SecretKey, message: Element
) -> NumericSeed:
    values = _alpha_point(params)
    values[key.k0] = tuple(message)
    return NumericSeed(tuple(values), params.initial_matrix(), params.field)


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
    """
    violations = validate_key(key, params.initial_matrix())
    if violations:
        raise InvalidKeyError(violations)
    if len(ct.values) != params.field.r:
        raise CorruptOrWrongKeyError(
            f"ciphertext rank {len(ct.values)} != field degree {params.field.r}"
        )
    seed = NumericSeed(ct.values, ct.matrix, params.field)
    for step, k in enumerate(reversed(key.seq), start=1):
        try:
            seed = numeric_mutate(seed, k, step=step)
        except MutationDivisionError as exc:
            raise DecryptionFailedError(step) from exc
    point = _alpha_point(params)
    for i, value in enumerate(seed.values):
        if i != key.k0 and value != point[i]:
            raise CorruptOrWrongKeyError(
                f"integrity position {i} did not return to its base value"
            )
    if seed.matrix.rows != params.initial_matrix().rows:
        raise CorruptOrWrongKeyError("matrix did not return to the initial one")
    message = seed.values[key.k0]
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


def _ciphertext_from_dict(params: SystemParams, payload: dict) -> CiphertextSeed:
    version = payload.get("v")
    if type(version) is not int or version != WIRE_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    missing = {"p", "r", "f", "diagram", "matrix", "values"} - payload.keys()
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")
    # bytes, not dicts: 2.0 == 2 and True == 1 in Python
    header = {name: payload[name] for name in ("p", "r", "f", "diagram")}
    if _canonical_bytes(header) != _canonical_bytes(params.to_dict()):
        SystemParams.from_dict(header)  # a malformed header names its own fault
        raise ParseError("ciphertext params do not match --params")
    ct = CiphertextSeed(payload["values"], ExchangeMatrix.from_lists(payload["matrix"]))
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
    return _canonical_bytes(params.to_dict())


def deserialize_params(data: bytes) -> SystemParams:
    return _read_object(data, SystemParams.from_dict)
