"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line on success (run with -s to see them);
arithmetic is exact everywhere, so comparisons are equalities, and the
stated runtime budgets are asserted with perf_counter around the
operation under test.
"""

import random
import time
from fractions import Fraction

import pytest

from clustercrypt import fields
from clustercrypt.analysis import (
    check_denominator_bijection,
    class_count_closed_form,
    enumerate_exchange_graph,
    key_recovery_probability,
    probability_report,
    verify_seed_list_a3,
)
from clustercrypt.cluster import (
    DynkinSpec,
    dynkin_exchange_matrix,
    matrix_mutate,
    numeric_mutate,
    standard_cartan,
)
from clustercrypt.crypto import (
    SystemParams,
    decode_message,
    decrypt,
    deserialize_ciphertext,
    encode_message,
    encrypt,
    keygen,
    serialize_ciphertext,
)
from clustercrypt.errors import EncryptionFailedError, MutationDivisionError
from clustercrypt.fields import (
    FieldParams,
    element_to_int,
    int_to_element,
    is_irreducible,
)
from clustercrypt.known_answers import EXAMPLE_1, EXAMPLE_2
from clustercrypt.roots import check_root_axioms, generate_root_system

EX1, EX1_KEY = EXAMPLE_1.params, EXAMPLE_1.key
EX2, EX2_KEY = EXAMPLE_2.params, EXAMPLE_2.key
EQ8_MATRIX = [list(row) for row in EXAMPLE_1.matrix]
EQ9_MATRIX = [list(row) for row in EXAMPLE_2.matrix]


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


_IRREDUCIBLE_CACHE: dict = {}


def first_irreducible(p: int, r: int) -> FieldParams:
    """Deterministic smallest-coefficient irreducible modulus for GF(p^r)."""
    key = (p, r)
    if key not in _IRREDUCIBLE_CACHE:
        found = None
        for n in range(p**r):
            coeffs = []
            m = n
            for _ in range(r):
                m, c = divmod(m, p)
                coeffs.append(c)
            f = coeffs + [1]
            if is_irreducible(f, p):
                found = FieldParams(p, r, tuple(f))
                break
        assert found is not None
        _IRREDUCIBLE_CACHE[key] = found
    return _IRREDUCIBLE_CACHE[key]


FINITE_SPECS = [
    DynkinSpec(family, rank)
    for family, ranks in (
        ("A", range(2, 9)),
        ("B", range(2, 9)),
        ("C", range(2, 9)),
        ("D", range(4, 9)),
    )
    for rank in ranks
]


def random_finite_matrix(rng):
    matrix = dynkin_exchange_matrix(rng.choice(FINITE_SPECS))
    for _ in range(rng.randrange(6)):
        matrix = matrix_mutate(matrix, rng.randrange(matrix.n))
    return matrix


def test_c01_example1_encryption():
    message = encode_message(6, EX1)
    start = time.perf_counter()
    ct = encrypt(EX1, EX1_KEY, message)
    elapsed = time.perf_counter() - start
    ints = [element_to_int(v, EX1.field) for v in ct.values]
    assert ints == [11, 18, 4, 7, 25]
    assert ct.matrix.to_lists() == EQ8_MATRIX
    assert elapsed < 0.010, f"encryption took {elapsed * 1000:.2f} ms"
    _report("C1", f"values {ints}, matrix exact, {elapsed * 1000:.2f} ms")


def test_c02_example1_decryption():
    ct = encrypt(EX1, EX1_KEY, encode_message(6, EX1))
    decoded = decode_message(decrypt(EX1, EX1_KEY, ct), EX1)
    assert (decoded.number, decoded.letter) == (6, "F")
    _report("C2", "recovered 6 (F)")


def test_c03_example2_encryption_and_decryption():
    message = encode_message(38927, EX2)
    start = time.perf_counter()
    ct = encrypt(EX2, EX2_KEY, message)
    elapsed = time.perf_counter() - start
    ints = [element_to_int(v, EX2.field) for v in ct.values]
    assert ints[3] == 12799379480831
    assert [ints[0], ints[1], ints[5], ints[6]] == [
        1,
        101,
        10510100501,
        1061520150601,
    ]
    assert ct.matrix.to_lists() == EQ9_MATRIX
    assert decode_message(decrypt(EX2, EX2_KEY, ct), EX2).number == 38927
    assert elapsed < 0.050, f"encryption took {elapsed * 1000:.2f} ms"
    _report("C3", f"position 3 = {ints[3]}, matrix exact, {elapsed * 1000:.2f} ms")


def test_c04_involution_suite():
    rng = random.Random(0xACCE)
    gf = FieldParams(7, 2, (3, 1, 1))
    matrix_checked = 0
    numeric_checked = 0
    for _ in range(1000):
        matrix = random_finite_matrix(rng)
        k = rng.randrange(matrix.n)
        assert matrix_mutate(matrix_mutate(matrix, k), k).rows == matrix.rows
        matrix_checked += 1
        values = tuple(
            fields.random_element(rng, gf, nonzero=True) for _ in range(matrix.n)
        )
        try:
            once = numeric_mutate(values, matrix.rows[k], k, gf)
            twice = numeric_mutate(once, matrix_mutate(matrix, k).rows[k], k, gf)
        except MutationDivisionError:
            continue  # undefined here; the matrix half was still checked
        assert twice == values
        numeric_checked += 1
    assert matrix_checked == 1000
    _report("C4", f"1000 matrix + {numeric_checked} numeric involutions, 0 failures")


def test_c05_round_trip_suite():
    rng = random.Random(0x0DD5)
    primes = {2: (2, 3, 5, 7), 3: (2, 3, 5), 4: (2, 3, 5), 5: (2, 3),
              6: (2, 3), 7: (2,), 8: (2,)}
    successes = 0
    failures = 0
    for trial in range(1000):
        spec = rng.choice(FINITE_SPECS)
        r = spec.rank
        p = rng.choice(primes[r])
        params = SystemParams(first_irreducible(p, r), spec, alphabet=None)
        key = keygen(trial, params, 2 + rng.randrange(11))  # lengths 2..12
        message = int_to_element(rng.randrange(1, params.field.q), params.field)
        try:
            ct = encrypt(params, key, message)
        except EncryptionFailedError:
            failures += 1
            continue
        assert decrypt(params, key, ct) == message
        successes += 1
    assert successes + failures == 1000
    rate = failures / 1000
    _report(
        "C5",
        f"{successes} round trips exact; {failures} encryption failures "
        f"(rate {rate:.1%}, informational)",
    )


def test_c06_oracle_equivalence():
    cases = [
        (DynkinSpec("A", 2), first_irreducible(7, 2)),
        (DynkinSpec("A", 3), first_irreducible(5, 3)),
        (DynkinSpec("A", 4), first_irreducible(3, 4)),
        (DynkinSpec("D", 4), first_irreducible(3, 4)),
    ]
    rng = random.Random(0x09AC)
    start = time.perf_counter()
    compared = 0
    for spec, field_params in cases:
        params = SystemParams(field_params, spec, alphabet=None)
        for key_index in range(50):
            key = keygen(key_index, params, 2 + key_index % 7)
            for _ in range(20):
                message = int_to_element(
                    rng.randrange(1, params.field.q), params.field
                )
                try:
                    fast = encrypt(params, key, message)
                except EncryptionFailedError as exc:
                    with pytest.raises(EncryptionFailedError) as mirrored:
                        encrypt(params, key, message, reference_path=True)
                    assert mirrored.value.step == exc.step
                    continue
                reference = encrypt(params, key, message, reference_path=True)
                assert fast == reference
                compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f} s"
    _report("C6", f"{compared} ciphertext pairs identical in {elapsed:.1f} s")


def test_c07_exchange_graph_counts():
    expected = {
        ("A", 2): 5,
        ("A", 3): 14,
        ("A", 4): 42,
        ("B", 2): 6,
        ("B", 3): 20,
        ("D", 4): 50,
    }
    start = time.perf_counter()
    for (family, rank), count in expected.items():
        graph = enumerate_exchange_graph(
            dynkin_exchange_matrix(DynkinSpec(family, rank))
        )
        assert graph.n_vertices == count, (family, rank)
        assert graph.n_vertices == class_count_closed_form(family, rank)
        assert graph.is_regular(), (family, rank)
        assert graph.is_connected(), (family, rank)
        if (family, rank) == ("A", 3):
            assert graph.labeled_seed_count == 84
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report("C7", f"six graphs exact (A3: 14 classes / 84 labeled), {elapsed:.2f} s")


def test_c08_a3_seed_list_certification():
    graph = enumerate_exchange_graph(dynkin_exchange_matrix(DynkinSpec("A", 3)))
    report = verify_seed_list_a3(graph)
    assert report.ok, (report.notes, report.unmatched_reference)
    assert len(report.matching) == 14
    _report("C8", "all 14 reference clusters matched bijectively")


def test_c09_probability_report():
    a3 = key_recovery_probability(
        "A", 3, enumerate_exchange_graph(dynkin_exchange_matrix(DynkinSpec("A", 3)))
    )
    b2 = key_recovery_probability(
        "B", 2, enumerate_exchange_graph(dynkin_exchange_matrix(DynkinSpec("B", 2)))
    )
    assert a3.prob_enumerated == Fraction(1, 84)
    assert b2.prob_enumerated == Fraction(1, 12)
    assert b2.prob_closed_form == Fraction(1, 12)
    assert b2.match is True
    # reference A-family closed form disagrees with its own A_3 count
    assert a3.prob_closed_form == Fraction(15, 40320)
    assert a3.match is False and a3.note
    text = probability_report([a3, b2])
    assert "NO (flagged)" in text
    _report("C9", "A3 = 1/84, B2 = 1/12, A-family closed-form mismatch flagged")


def test_c10_denominator_root_bijection():
    start = time.perf_counter()
    for family, rank in (("A", 2), ("A", 3), ("B", 2)):
        matrix = dynkin_exchange_matrix(DynkinSpec(family, rank))
        report = check_denominator_bijection(matrix)
        assert report.ok, (family, rank, report)
        assert report.n_cluster_variables == report.n_almost_positive
        negated_simples = {
            tuple(-1 if j == i else 0 for j in range(rank)) for i in range(rank)
        }
        roots = generate_root_system(standard_cartan(family, rank))
        assert negated_simples <= set(roots.almost_positive)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report("C10", f"A2, A3, B2 bijections exact in {elapsed:.2f} s")


def test_c11_root_system_axioms():
    systems = (
        [("A", r) for r in range(1, 9)]
        + [("B", r) for r in range(2, 9)]
        + [("C", r) for r in range(2, 9)]
        + [("D", r) for r in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    for family, rank in systems:
        report = check_root_axioms(generate_root_system(standard_cartan(family, rank)))
        assert report.ok, (family, rank, report.failures[:3])
    _report("C11", f"{len(systems)} systems satisfy R1-R4 and the pair-product range")


def test_c12_wire_format():
    for params, key, number in ((EX1, EX1_KEY, 6), (EX2, EX2_KEY, 38927)):
        ct = encrypt(params, key, encode_message(number, params))
        blob = serialize_ciphertext(params, ct)
        restored_ct = deserialize_ciphertext(blob, params)
        assert restored_ct == ct
        assert serialize_ciphertext(params, restored_ct) == blob
    # both worked examples stay below 2^53 (max value 5.9e13), so push a
    # GF(101^8) ciphertext through the wire to cross double precision
    big_params = SystemParams(first_irreducible(101, 8), DynkinSpec("A", 8), None)
    big_key = keygen(2, big_params, 6)
    big_number = 2**53 + 4242
    ct = encrypt(big_params, big_key, encode_message(big_number, big_params))
    blob = serialize_ciphertext(big_params, ct)
    restored_ct = deserialize_ciphertext(blob, big_params)
    assert serialize_ciphertext(big_params, restored_ct) == blob
    assert decrypt(big_params, big_key, restored_ct) == encode_message(
        big_number, big_params
    )
    values = [element_to_int(v, big_params.field) for v in restored_ct.values]
    assert any(v > 2**53 for v in values)
    _report("C12", "byte-exact round trips; values beyond 2^53 exact")
