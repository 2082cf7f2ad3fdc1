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
from clustercrypt import crypto, fields, symbolic
from clustercrypt.cluster import dynkin_exchange_matrix
from clustercrypt.known_answers import EXAMPLE_1

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
