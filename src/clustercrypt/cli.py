"""Command-line surface: params, keygen, encrypt, decrypt, graph, probe, selftest.

Exit codes: 0 success, 1 selftest failure, 2 encryption failure,
3 decryption failure (corrupt seed or wrong key), 64 bad usage or
unreadable inputs. Argument errors that argparse itself reports (a
missing option, a value of the wrong type, an unknown subcommand or
choice) exit 64 too, never 2, which means "re-key". Diagnostics go to
stderr; outputs are written with a write-then-rename so failures never
leave partial files. The argument parser is built once per process, on
the first `main` call, and reused by every later call.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from functools import cache, partial
from random import Random

from . import fields
from .analysis import (
    enumerate_exchange_graph,
    key_recovery_probability,
    probability_report,
    verify_seed_list_a3,
)
from .cluster import (
    FAMILIES,
    DynkinSpec,
    apply_sequence,
    dynkin_exchange_matrix,
    matrix_mutate,
    standard_cartan,
)
from .crypto import (
    SystemParams,
    decode_message,
    decrypt,
    deserialize_ciphertext,
    deserialize_key,
    deserialize_params,
    encode_message,
    encrypt,
    keygen,
    serialize_ciphertext,
    serialize_key,
    serialize_params,
)
from .errors import (
    ClusterCryptError,
    CorruptOrWrongKeyError,
    DecryptionFailedError,
    EncryptionFailedError,
    InvalidKeyError,
    InvalidSpecError,
    ParseError,
    ZeroMessageError,
)
from .fields import FieldParams, element_to_int, int_to_element
from .known_answers import WORKED_EXAMPLES, WorkedExample
from .roots import check_root_axioms, generate_root_system

EX_OK = 0
EX_SELFTEST = 1
EX_ENCRYPT = 2
EX_DECRYPT = 3
EX_USAGE = 64


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EX_USAGE


def _write_file(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp"
    handle = open(tmp, "wb")
    try:
        with handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _parse_orientation(text: str):
    if text == "default":
        return "default"
    pairs = []
    for chunk in text.split(","):
        src, _, dst = chunk.partition(">")
        pairs.append((int(src), int(dst)))
    return tuple(pairs)


# --- subcommands ---------------------------------------------------------------


def cmd_params(args) -> int:
    f = tuple(int(c) for c in args.f.split(","))
    field = FieldParams(p=args.p, r=args.r, f=f)
    diagram = DynkinSpec(args.family, args.rank, _parse_orientation(args.orientation))
    params = SystemParams(field, diagram)
    _write_file(args.out, serialize_params(params))
    print(
        f"wrote {args.out}: GF({args.p}^{args.r}) = {field.q} elements, "
        f"diagram {args.family}{args.rank}"
    )
    return EX_OK


def cmd_keygen(args) -> int:
    params = deserialize_params(_read_file(args.params))
    rng_seed = args.rng_seed
    if rng_seed is None:
        rng_seed = secrets.randbits(128)
        print(f"rng-seed: {rng_seed} (recorded; pass --rng-seed to reproduce)")
    key = keygen(rng_seed, params, args.length)
    _write_file(args.out, serialize_key(key))
    print(f"wrote {args.out}: hide position {key.k0}, sequence {list(key.seq)}")
    return EX_OK


def _parse_message(text: str) -> list:
    """ASCII integer string -> [int]; letter string -> one symbol per letter."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("message is empty")
    digits = stripped.lstrip("-")
    if digits.isascii() and digits.isdigit():
        return [int(stripped)]
    return list(stripped)


def cmd_encrypt(args) -> int:
    params = deserialize_params(_read_file(args.params))
    key = deserialize_key(_read_file(args.key))
    symbols = _parse_message(args.message)
    cts = []
    for symbol in symbols:
        message = encode_message(symbol, params)
        ct = encrypt(params, key, message, reference_path=args.reference_path)
        cts.append(ct)
        ints = [element_to_int(v, params.field) for v in ct.values]
        print(f"{symbol!r} -> values {ints}")
    # after the last letter: a command that exits 2 serializes nothing
    records = [serialize_ciphertext(params, ct) for ct in cts]
    _write_file(args.out, b"\n".join(records) + b"\n")
    print(f"wrote {args.out} ({len(records)} record(s))")
    return EX_OK


def cmd_decrypt(args) -> int:
    params = deserialize_params(_read_file(args.params))
    key = deserialize_key(_read_file(args.key))
    blob = _read_file(args.ciphertext)
    lines = [line for line in blob.splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"ciphertext file {args.ciphertext} holds no records")
    outputs = []
    for line in lines:
        message = decrypt(params, key, deserialize_ciphertext(line, params))
        outputs.append(decode_message(message, params))
    if args.format == "json":
        print(
            json.dumps(
                [{"number": d.number, "letter": d.letter} for d in outputs]
            )
        )
    else:
        for decoded in outputs:
            if decoded.letter:
                print(f"{decoded.number} ({decoded.letter})")
            else:
                print(decoded.number)
        letters = [d.letter for d in outputs]
        if len(letters) > 1 and all(letters):
            print("text:", "".join(letters))
    return EX_OK


def cmd_graph(args) -> int:
    if args.params:
        params = deserialize_params(_read_file(args.params))
        spec = params.diagram
    else:
        spec = DynkinSpec(args.family, args.rank, _parse_orientation(args.orientation))
    matrix = dynkin_exchange_matrix(spec)
    # a valued diagram has no quiver: fail before the enumeration, not after
    dot = matrix.to_dot() if args.dot else None
    graph = enumerate_exchange_graph(matrix, budget=args.budget)
    if args.dot:
        _write_file(args.dot, dot.encode() + b"\n")
        print(f"wrote {args.dot}")
    info = {
        "diagram": f"{spec.family}{spec.rank}",
        "vertices": graph.n_vertices,
        "edges": graph.n_edges,
        "labeled_seeds": graph.labeled_seed_count,
        "regular": graph.is_regular(),
        "connected": graph.is_connected(),
        "fingerprint_prime": graph.prime,
        "fingerprint_point": list(graph.point),
    }
    if args.format == "json":
        print(json.dumps(info, indent=2))
    elif args.format == "csv":
        print("diagram,vertices,edges,labeled_seeds,regular,connected")
        print(
            f"{info['diagram']},{info['vertices']},{info['edges']},"
            f"{info['labeled_seeds']},{info['regular']},{info['connected']}"
        )
    else:
        print(f"exchange graph of {info['diagram']}")
        print(f"  mutation classes: {info['vertices']}")
        print(f"  edges:            {info['edges']}")
        print(f"  labeled seeds:    {info['labeled_seeds']}")
        print(f"  {spec.rank}-regular: {info['regular']}, connected: {info['connected']}")
        print(f"  fingerprints: point {info['fingerprint_point']}")
        print(f"                mod {info['fingerprint_prime']}")
    return EX_OK


def cmd_probe(args) -> int:
    rows = []
    for family in args.families.split(","):
        family = family.strip().upper()
        if family not in FAMILIES:
            raise InvalidSpecError(f"unknown family {family!r}")
        before = len(rows)
        for rank in range(args.min_rank, args.max_rank + 1):
            try:
                spec = DynkinSpec(family, rank)
            except InvalidSpecError:
                continue  # a rank this family does not have
            graph = enumerate_exchange_graph(
                dynkin_exchange_matrix(spec), budget=args.budget
            )
            rows.append(key_recovery_probability(family, rank, graph))
        if len(rows) == before:
            span = f"[{args.min_rank}, {args.max_rank}]"
            print(f"probe: no {family} rank in {span}; skipped", file=sys.stderr)
    print(probability_report(rows, fmt=args.format))
    return EX_OK


# --- selftest -------------------------------------------------------------------

def _check_encrypt(example: WorkedExample) -> bool:
    params = example.params
    ct = encrypt(params, example.key, encode_message(example.message, params))
    ints = tuple(element_to_int(v, params.field) for v in ct.values)
    return ints == example.values and ct.matrix.rows == example.matrix


def _check_decrypt(example: WorkedExample) -> bool:
    params = example.params
    ct = encrypt(params, example.key, encode_message(example.message, params))
    decoded = decode_message(decrypt(params, example.key, ct), params)
    return (decoded.number, decoded.letter) == (example.number, example.letter)


def _random_finite_matrix(rng: Random):
    family, ranks = rng.choice(
        [("A", range(2, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(4, 9))]
    )
    matrix = dynkin_exchange_matrix(DynkinSpec(family, rng.choice(list(ranks))))
    for _ in range(rng.randrange(5)):
        matrix = matrix_mutate(matrix, rng.randrange(matrix.n))
    return matrix


def _check_matrix_involution() -> bool:
    rng = Random(1)
    for _ in range(200):
        matrix = _random_finite_matrix(rng)
        k = rng.randrange(matrix.n)
        if matrix_mutate(matrix_mutate(matrix, k), k).rows != matrix.rows:
            return False
    return True


def _check_numeric_involution() -> bool:
    rng = Random(2)
    gf = FieldParams(7, 2, (3, 1, 1))
    passed = 0
    while passed < 100:
        matrix = _random_finite_matrix(rng)
        values = tuple(
            fields.random_element(rng, gf, nonzero=True) for _ in range(matrix.n)
        )
        k = rng.randrange(matrix.n)
        try:
            back = apply_sequence(values, matrix, [k, k], gf)
        except ClusterCryptError:
            continue
        if back != (values, matrix):
            return False
        passed += 1
    return True


def _check_round_trip() -> bool:
    rng = Random(3)
    specs = [
        SystemParams(FieldParams(7, 2, (3, 1, 1)), DynkinSpec("A", 2), None),
        SystemParams(FieldParams(5, 3, (3, 4, 0, 1)), DynkinSpec("A", 3), None),
        SystemParams(FieldParams(2, 5, (1, 0, 1, 0, 0, 1)), DynkinSpec("D", 5), None),
    ]
    succeeded = 0
    for trial in range(100):
        params = rng.choice(specs)
        key = keygen(trial, params, 2 + rng.randrange(8))
        message = int_to_element(rng.randrange(1, params.field.q), params.field)
        try:
            ct = encrypt(params, key, message)
        except EncryptionFailedError:
            continue
        if decrypt(params, key, ct) != message:
            return False
        succeeded += 1
    return succeeded > 0


def _check_oracle_equivalence() -> bool:
    rng = Random(4)
    for spec in (DynkinSpec("A", 2), DynkinSpec("A", 3)):
        gf = {2: FieldParams(7, 2, (3, 1, 1)), 3: FieldParams(5, 3, (3, 4, 0, 1))}[
            spec.rank
        ]
        params = SystemParams(gf, spec, None)
        for trial in range(5):
            key = keygen(trial, params, 2 + rng.randrange(5))
            for _ in range(4):
                message = int_to_element(
                    rng.randrange(1, params.field.q), params.field
                )
                try:
                    fast = encrypt(params, key, message)
                except EncryptionFailedError:
                    continue
                if fast != encrypt(params, key, message, reference_path=True):
                    return False
    return True


def _check_exchange_counts() -> bool:
    expected = {("A", 2): 5, ("A", 3): 14, ("B", 2): 6}
    for (family, rank), count in expected.items():
        graph = enumerate_exchange_graph(
            dynkin_exchange_matrix(DynkinSpec(family, rank))
        )
        if graph.n_vertices != count or not graph.is_regular():
            return False
    return True


def _check_seed_list() -> bool:
    graph = enumerate_exchange_graph(dynkin_exchange_matrix(DynkinSpec("A", 3)))
    return verify_seed_list_a3(graph).ok


def _check_probability_flags() -> bool:
    a3 = key_recovery_probability(
        "A", 3, enumerate_exchange_graph(dynkin_exchange_matrix(DynkinSpec("A", 3)))
    )
    b2 = key_recovery_probability(
        "B", 2, enumerate_exchange_graph(dynkin_exchange_matrix(DynkinSpec("B", 2)))
    )
    return a3.match is False and bool(a3.note) and b2.match is True


def _check_root_axioms() -> bool:
    for family, rank in (("A", 3), ("B", 2), ("G", 2)):
        if not check_root_axioms(
            generate_root_system(standard_cartan(family, rank))
        ).ok:
            return False
    return True


def _check_wire_round_trip() -> bool:
    for example in WORKED_EXAMPLES:
        params = example.params
        ct = encrypt(params, example.key, encode_message(example.message, params))
        blob = serialize_ciphertext(params, ct)
        restored = deserialize_ciphertext(blob, deserialize_params(blob))
        if serialize_ciphertext(params, restored) != blob:
            return False
    return True


SELFTEST_CHECKS = tuple(
    (f"{example.name}-{kind}", partial(check, example))
    for example in WORKED_EXAMPLES
    for kind, check in (("encrypt", _check_encrypt), ("decrypt", _check_decrypt))
) + (
    ("matrix-involution", _check_matrix_involution),
    ("numeric-involution", _check_numeric_involution),
    ("round-trip", _check_round_trip),
    ("oracle-equivalence", _check_oracle_equivalence),
    ("exchange-counts", _check_exchange_counts),
    ("seed-list-a3", _check_seed_list),
    ("probability-flags", _check_probability_flags),
    ("root-axioms", _check_root_axioms),
    ("wire-round-trip", _check_wire_round_trip),
)


def cmd_selftest(args) -> int:
    results = []
    for name, check in SELFTEST_CHECKS:
        try:
            passed = check()
        except ClusterCryptError as exc:
            print(f"{name}: error {exc}", file=sys.stderr)
            passed = False
        results.append((name, passed))
    if args.format == "csv":
        print("check,passed")
        for name, passed in results:
            print(f"{name},{passed}")
    else:
        for name, passed in results:
            print(f"{'PASS' if passed else 'FAIL'} {name}")
    failed = [name for name, passed in results if not passed]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return EX_SELFTEST
    return EX_OK


# --- argument wiring --------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Sharing is safe: `parse_args` returns a fresh `Namespace` on each call
    and leaves the parser unchanged, and each `cmd_*` function looks up the
    library names it calls as module globals when it runs. Each
    subcommand's `func` default is bound once, on the first call, so a
    replaced `cli.cmd_*` attribute is not seen by a parser built before it;
    no caller or test replaces one.
    """
    parser = argparse.ArgumentParser(
        prog="clustercrypt",
        description="mutation cipher over GF(p^r) with exchange-graph analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="validate and write a parameter file")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--r", type=int, required=True, help="extension degree")
    p.add_argument(
        "--f", required=True, help="modulus coefficients, ascending, comma-separated"
    )
    p.add_argument("--family", required=True, choices=list("ABCDEFG"))
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--orientation", default="default", help='"default" or "0>1,2>1,..."')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("keygen", help="sample a valid secret key")
    p.add_argument("--params", required=True)
    p.add_argument("--length", type=int, required=True, help="mutation count t")
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a letter, text, or integer")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True)
    p.add_argument(
        "--reference-path",
        action="store_true",
        help="use the symbolic reference pipeline instead of the numeric one",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--ciphertext", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("graph", help="enumerate an exchange graph")
    p.add_argument("--params")
    p.add_argument("--family", choices=list("ABCDEFG"))
    p.add_argument("--rank", type=int)
    p.add_argument("--orientation", default="default")
    p.add_argument("--budget", type=int, default=50_000)
    p.add_argument("--dot", help="also write the initial quiver in DOT form")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("probe", help="key-recovery probability report")
    p.add_argument("--families", default="A,B,C,D")
    p.add_argument("--min-rank", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--budget", type=int, default=50_000)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("selftest", help="replay the worked examples and core suites")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse printed usage and its error line to stderr
            return EX_USAGE
        raise  # --help
    if args.command == "graph" and not args.params and (
        args.family is None or args.rank is None
    ):
        return _fail_usage("graph needs --params or both --family and --rank")
    try:
        return args.func(args)
    except (ZeroMessageError, EncryptionFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ENCRYPT
    except (CorruptOrWrongKeyError, DecryptionFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DECRYPT
    except InvalidKeyError as exc:
        print(f"error: invalid key: {exc}", file=sys.stderr)
        return EX_USAGE
    except (OSError, ClusterCryptError, ValueError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
