"""The program surface that bench/run.py binds: names, call shapes, step counts.

The benchmark exits non-zero on a crash and on any failed check of its own,
so a rename under src/ or an extra mutation step fails it without a word in
the tier-1 suite. These tests make such a change fail here first.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import clustercrypt
from clustercrypt import cli, crypto, fields, symbolic
from clustercrypt.cluster import dynkin_exchange_matrix, numeric_mutate
from clustercrypt.known_answers import EXAMPLE_1, EXAMPLE_2

EX1_PARAMS, EX1_KEY = EXAMPLE_1.params, EXAMPLE_1.key

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
        sys.path.remove(str(BENCH))


def test_traced_names_resolve(bench_run):
    functions, methods = bench_run.trace_targets(clustercrypt)
    for name, module, attr, _ in functions:
        assert callable(getattr(module, attr, None)), name
    for name, cls, attr in methods:
        # the tracer rebinds cls.__dict__[attr], so an inherited method fails
        assert callable(cls.__dict__.get(attr)), name
    # every package-level name the harness reads, e.g. cc.path_count
    for attr in set(re.findall(r"\bcc\.(\w+)", (BENCH / "run.py").read_text())):
        assert hasattr(clustercrypt, attr), f"clustercrypt.{attr}"


def test_microbenchmark_call_shapes():
    field = EX1_PARAMS.field
    a = fields.int_to_element(11, field)
    b = fields.int_to_element(18, field)
    one = fields.int_to_element(1, field)
    assert fields.ext_mul(a, fields.ext_inv(a, field), field) == one
    assert fields.ext_mul(a, b, field) == fields.ext_mul(b, a, field)
    assert fields.ext_pow(a, field.q - 1, field) == one
    # session-large's GF(101^7) has no tables, so there the traced
    # fields.ext_inv name times the extended Euclid
    large = EXAMPLE_2.params.field
    assert large._tables is None
    for value in EXAMPLE_2.values:
        c = fields.int_to_element(value, large)
        assert fields.ext_mul(c, fields.ext_inv(c, large), large) == large.one()
    # worked example 1 again, through the symbolic oracle the harness times
    matrix = dynkin_exchange_matrix(EX1_PARAMS.diagram)
    initial = symbolic.initial_symbolic_seed(matrix, field.p)
    seed = symbolic.apply_symbolic_sequence(initial, EX1_KEY.seq)
    point = [field.alpha_power(i) for i in range(field.r)]
    point[EX1_KEY.k0] = crypto.encode_message("F", EX1_PARAMS)
    values = [entry.evaluate(point, field) for entry in seed.entries]
    assert [fields.element_to_int(v, field) for v in values] == [11, 18, 4, 7, 25]


def test_one_numeric_mutation_per_cipher_step(monkeypatch):
    calls = []
    original = crypto.numeric_mutate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(crypto, "numeric_mutate", counting)
    message = crypto.encode_message("F", EX1_PARAMS)
    ct = crypto.encrypt(EX1_PARAMS, EX1_KEY, message)
    assert crypto.decrypt(EX1_PARAMS, EX1_KEY, ct) == message
    assert len(calls) == 2 * len(EX1_KEY.seq) == 10


def test_one_cli_call_per_record(monkeypatch, tmp_path):
    # the traced run divides cli.overhead_us_per_record by the encrypt and
    # decrypt counts, so a batch call in their place would divide by zero
    calls = {"encrypt": 0, "decrypt": 0, "deserialize_ciphertext": 0}
    for name in calls:
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    params, key, out = tmp_path / "p.json", tmp_path / "k.json", tmp_path / "ct"
    params.write_bytes(crypto.serialize_params(EX1_PARAMS))
    key.write_bytes(crypto.serialize_key(EX1_KEY))
    files = ["--params", str(params), "--key", str(key)]
    assert cli.main(["encrypt", *files, "--message", "HELLO", "--out", str(out)]) == 0
    assert cli.main(["decrypt", *files, "--ciphertext", str(out)]) == 0
    assert calls == {"encrypt": 5, "decrypt": 5, "deserialize_ciphertext": 5}


def test_small_field_steps_call_the_traced_field_names(monkeypatch):
    # the traced run times fields.ext_mul and fields.ext_inv by rebinding
    # them in the module; a GF(2^5) step that read the log tables without
    # going through those names would drop out of fields.ext_*_ns
    field = EX1_PARAMS.field
    calls = {"ext_mul": 0, "ext_inv": 0}
    for name in calls:
        original = getattr(fields, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fields, name, counting)
    values = tuple(fields.int_to_element(v, field) for v in (11, 18, 4, 7, 25))
    row = dynkin_exchange_matrix(EX1_PARAMS.diagram).rows[1]
    numeric_mutate(values, row, 1, field)
    assert calls["ext_mul"] >= 1 and calls["ext_inv"] == 1


def test_ext_inv_runs_the_euclid_on_every_call():
    # the exchange step remembers inverses above the table limit
    # (fields.divisor_inv); fields.ext_inv itself keeps none, so the traced
    # fields.ext_inv_ns times the extended Euclid. Each Euclid round inverts
    # a leading coefficient with the builtin pow
    shared = EXAMPLE_2.params.field
    large = fields.FieldParams(shared.p, shared.r, shared.f)  # an empty memo of its own
    value = fields.int_to_element(EXAMPLE_2.values[2], large)
    pows = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is pow:
            pows[-1] += 1

    inverses = []
    for _ in range(2):
        pows.append(0)
        sys.setprofile(profile)
        try:
            inverses.append(fields.ext_inv(value, large))
        finally:
            sys.setprofile(None)
    assert pows[0] == pows[1] > 1
    assert inverses[0] == inverses[1] and large._inverses == {}
