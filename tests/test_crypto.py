"""The cipher: codecs, keys, both encryption paths, wire format."""

import json
import random
import time
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercrypt import crypto
from clustercrypt.cluster import (
    DynkinSpec,
    ExchangeMatrix,
    apply_sequence,
    dynkin_edges,
    dynkin_exchange_matrix,
    matrix_mutate,
)
from clustercrypt.crypto import (
    DEFAULT_ALPHABET,
    CiphertextSeed,
    SecretKey,
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
    validate_key,
)
from clustercrypt.errors import (
    CorruptOrWrongKeyError,
    DecryptionFailedError,
    EncryptionFailedError,
    InfeasibleKeyError,
    InvalidKeyError,
    InvalidSpecError,
    OutOfRangeError,
    ParseError,
    UnknownSymbolError,
    ZeroMessageError,
)
from clustercrypt.fields import (
    FieldParams,
    element_to_int,
    int_to_element,
    is_irreducible,
)
from clustercrypt.known_answers import EXAMPLE_1, EXAMPLE_2

EX1, EX1_KEY = EXAMPLE_1.params, EXAMPLE_1.key
EX2, EX2_KEY = EXAMPLE_2.params, EXAMPLE_2.key
EQ8_MATRIX = [list(row) for row in EXAMPLE_1.matrix]
EQ9_MATRIX = [list(row) for row in EXAMPLE_2.matrix]


class TestAlphabet:
    def test_letters(self):
        assert DEFAULT_ALPHABET.number_of("A") == 1
        assert DEFAULT_ALPHABET.number_of("F") == 6
        assert DEFAULT_ALPHABET.number_of("Z") == 26

    def test_table_is_strict(self):
        # 11 is K in the table; no off-by-one adjustments
        assert DEFAULT_ALPHABET.letter_of(11) == "K"
        assert DEFAULT_ALPHABET.letter_of(18) == "R"

    def test_overflow_letters(self):
        assert [DEFAULT_ALPHABET.letter_of(n) for n in range(27, 32)] == list("XYZXY")

    def test_out_of_table(self):
        assert DEFAULT_ALPHABET.letter_of(32) is None

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            DEFAULT_ALPHABET.number_of("?")


class TestSystemParams:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(InvalidSpecError):
            SystemParams(EX1.field, DynkinSpec("A", 4))

    def test_small_field_needs_no_alphabet(self):
        gf4 = FieldParams(2, 2, (1, 1, 1))
        with pytest.raises(InvalidSpecError):
            SystemParams(gf4, DynkinSpec("A", 2))
        SystemParams(gf4, DynkinSpec("A", 2), alphabet=None)

    def test_dict_round_trip(self):
        assert SystemParams.from_dict(EX2.to_dict()) == EX2

    def test_letter_message_needs_an_alphabet(self):
        params = SystemParams(FieldParams(2, 2, (1, 1, 1)), DynkinSpec("A", 2), alphabet=None)
        with pytest.raises(
            UnknownSymbolError, match="^no alphabet configured for letter messages$"
        ):
            encode_message("A", params)
        assert encode_message(3, params) == (1, 1)


def gf2_moduli(r):
    """The monic irreducible polynomials of degree r over GF(2), in integer order."""
    for n in range(2**r):
        f = [*(n >> i & 1 for i in range(r)), 1]
        if is_irreducible(f, 2):
            yield f


def gf32_params(f, diagram=None):
    """Params file bytes over GF(2^5) with modulus f, diagram A5 by default."""
    payload = {"p": 2, "r": 5, "f": f, "diagram": diagram or {"family": "A", "rank": 5}}
    return json.dumps(payload).encode()


class TestParamsMemo:
    # a params file is validated once per process: equal fields give the
    # same object, in a bounded cache that keeps no failure

    def setup_method(self):
        crypto._params_from_header.cache_clear()

    def teardown_method(self):
        crypto._params_from_header.cache_clear()

    def test_equal_canonical_headers_give_the_same_object(self):
        blob = serialize_params(EX1)
        assert deserialize_params(blob) is deserialize_params(blob)
        assert SystemParams.from_dict(EX2.to_dict()) is SystemParams.from_dict(EX2.to_dict())

    def test_spellings_of_one_params_file_share_one_entry(self):
        payload = json.loads(serialize_params(EX1))
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        record = serialize_ciphertext(EX1, ct)
        blobs = [
            serialize_params(EX1),
            json.dumps(payload, indent=4).encode(),
            json.dumps(dict(reversed(payload.items()))).encode(),
            b" \n" + json.dumps(payload, separators=(" , ", " : ")).encode() + b"\n",
            record,  # a record line's own header
        ]
        first = deserialize_params(blobs[0])
        assert all(deserialize_params(blob) is first for blob in blobs)
        info = crypto._params_from_header.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert deserialize_ciphertext(record, first) == ct

    def test_failing_params_raise_the_same_error_and_are_not_stored(self, monkeypatch):
        calls = []
        original = crypto.fields.is_irreducible

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(crypto.fields, "is_irreducible", counting)
        blob = gf32_params([1, 1, 0, 0, 0, 1])  # x^5 + x + 1 = (x^2+x+1)(x^3+x^2+1)
        messages = []
        for _ in range(3):
            with pytest.raises(ParseError, match="reducible") as caught:
                deserialize_params(blob)
            messages.append(str(caught.value))
        assert messages == [messages[0]] * 3
        assert len(calls) == 3  # validated again on every call
        assert crypto._params_from_header.cache_info().currsize == 0

    def test_more_than_eight_params_evict_the_oldest(self):
        diagrams = [
            {"family": "A", "rank": 5, "orientation": [[0, 1], [1, 2], [2, 3], [3, 4]]},
            {"family": "D", "rank": 5},
        ]
        blobs = [gf32_params(f, diagram) for f in gf2_moduli(5) for diagram in diagrams][:9]
        built = [deserialize_params(blob) for blob in blobs]
        assert crypto._params_from_header.cache_info().currsize == 8
        assert all(deserialize_params(blob) is params for blob, params in zip(blobs[1:], built[1:]))
        again = deserialize_params(blobs[0])
        assert again == built[0] and again is not built[0]


class TestMessageCodec:
    def test_letter_f(self):
        assert encode_message("F", EX1) == (0, 1, 1, 0, 0)

    def test_lower_case_ascii_letter(self):
        assert encode_message("f", EX1) == encode_message("F", EX1)

    @pytest.mark.parametrize("letter", ["\u0131", "\u017f"], ids=["dotless-i", "long-s"])
    def test_non_ascii_letter_rejected(self, letter):
        # str.upper() maps these to I and S; the alphabet is ASCII only
        with pytest.raises(UnknownSymbolError, match="is not in the alphabet"):
            encode_message(letter, EX1)

    def test_large_integer(self):
        assert encode_message(38927, EX2) == (42, 82, 3, 0, 0, 0, 0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMessageError):
            encode_message(0, EX1)

    def test_too_large_rejected(self):
        with pytest.raises(OutOfRangeError):
            encode_message(32, EX1)

    @pytest.mark.parametrize(
        "value", [6.7, 6.0, True], ids=["float", "integral-float", "bool"]
    )
    def test_integer_message_is_strict(self, value):
        with pytest.raises(TypeError, match="must be an integer"):
            encode_message(value, EX1)

    def test_decode_letter(self):
        decoded = decode_message((0, 1, 1, 0, 0), EX1)
        assert (decoded.number, decoded.letter) == (6, "F")

    def test_decode_follows_table(self):
        decoded = decode_message((1, 1, 0, 1, 0), EX1)
        assert (decoded.number, decoded.letter) == (11, "K")

    def test_decode_large(self):
        assert decode_message((42, 82, 3, 0, 0, 0, 0), EX2).number == 38927

    def test_decode_zero_rejected(self):
        with pytest.raises(ZeroMessageError):
            decode_message(EX1.field.zero(), EX1)


class TestCiphertextSeed:
    def test_more_values_than_the_matrix_rank(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        with pytest.raises(InvalidSpecError, match="^6 values for a rank-5 matrix$"):
            CiphertextSeed(ct.values + ct.values[:1], ct.matrix)


class TestConstructorIntegers:
    # the rule the file readers rely on: bool, float and str are rejected
    # where the value is built, never truncated or coerced

    @pytest.mark.parametrize(
        "k0,seq",
        [(True, (1, 2)), (0.0, (1, 2)), (0, (1.9, 2)), (0, (1, True)), (0, ("1", 2))],
        ids=["k0-bool", "k0-float", "seq-float", "seq-bool", "seq-str"],
    )
    def test_secret_key(self, k0, seq):
        with pytest.raises(TypeError, match="must be an integer"):
            SecretKey(k0, seq)

    @pytest.mark.parametrize("digit", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_ciphertext_digits(self, digit):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        values = [list(v) for v in ct.values]
        values[0][0] = digit
        with pytest.raises(TypeError, match="must be an integer"):
            CiphertextSeed(values, EX1.initial_matrix())


class TestKeyValidation:
    def test_worked_example_keys_pass(self):
        assert validate_key(EX1_KEY, EX1.initial_matrix()) == ()
        assert validate_key(EX2_KEY, EX2.initial_matrix()) == ()

    def test_hide_position_missing(self):
        violations = validate_key(SecretKey(2, (1, 3, 1)), EX1.initial_matrix())
        assert [v.code for v in violations] == ["hide-position-missing"]

    def test_out_of_range(self):
        violations = validate_key(SecretKey(0, (5, 0)), EX1.initial_matrix())
        assert [v.code for v in violations] == ["entry-out-of-range"]

    def test_consecutive_repeat(self):
        violations = validate_key(SecretKey(1, (1, 1)), EX1.initial_matrix())
        assert "consecutive-repeat" in [v.code for v in violations]

    def test_no_adjacent_before_hide(self):
        # first mutation is the hide position itself: nothing adjacent before
        violations = validate_key(SecretKey(0, (0, 1, 0)), EX1.initial_matrix())
        assert [v.code for v in violations] == ["no-adjacent-before-hide"]

    def test_nonadjacent_prefix(self):
        # vertices 3,4 are not adjacent to 0 in the A_5 quiver
        violations = validate_key(SecretKey(0, (3, 4, 0)), EX1.initial_matrix())
        assert [v.code for v in violations] == ["no-adjacent-before-hide"]

    def test_every_constraint_has_one_code(self):
        codes = set()
        for key in (
            SecretKey(0, (5, 0)),
            SecretKey(1, (1, 1, 0)),
            SecretKey(2, (1, 3, 1)),
            SecretKey(0, (0, 1, 0)),
        ):
            for violation in validate_key(key, EX1.initial_matrix()):
                codes.add(violation.code)
        assert codes == {
            "entry-out-of-range",
            "consecutive-repeat",
            "hide-position-missing",
            "no-adjacent-before-hide",
        }


class TestKeygen:
    def test_output_validates(self):
        key = keygen(42, EX1, 6)
        assert validate_key(key, EX1.initial_matrix()) == ()

    def test_deterministic(self):
        assert keygen(42, EX1, 6) == keygen(42, EX1, 6)

    def test_zero_length_infeasible(self):
        with pytest.raises(InfeasibleKeyError):
            keygen(42, EX1, 0)

    def test_rank_one_infeasible(self):
        gf2 = FieldParams(2, 1, (1, 1))
        params = SystemParams(gf2, DynkinSpec("A", 1), alphabet=None)
        with pytest.raises(InfeasibleKeyError):
            keygen(0, params, 3)

    def test_length_one_infeasible(self):
        # a length-1 sequence can only be [k0], which leaves no room for
        # an adjacent mutation before it
        with pytest.raises(InfeasibleKeyError):
            keygen(42, EX1, 1)

    def test_many_seeds_all_valid(self):
        matrix = EX2.initial_matrix()
        for seed in range(50):
            key = keygen(seed, EX2, 2 + seed % 11)
            assert validate_key(key, matrix) == ()


class TestEncrypt:
    def test_worked_example_1(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        ints = [element_to_int(v, EX1.field) for v in ct.values]
        assert ints == [11, 18, 4, 7, 25]
        assert ct.matrix.to_lists() == EQ8_MATRIX

    def test_worked_example_2(self):
        ct = encrypt(EX2, EX2_KEY, encode_message(38927, EX2))
        ints = [element_to_int(v, EX2.field) for v in ct.values]
        assert ints[3] == 12799379480831
        assert ints[0] == 1
        assert ints[1] == 101
        assert ints[5] == 10510100501
        assert ints[6] == 1061520150601
        assert ct.matrix.to_lists() == EQ9_MATRIX

    def test_zero_message_rejected(self):
        with pytest.raises(ZeroMessageError):
            encrypt(EX1, EX1_KEY, EX1.field.zero())

    # too short, a digit >= p, too long, a digit >= p
    @pytest.mark.parametrize(
        "message", [(1,), (7, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0)]
    )
    @pytest.mark.parametrize("reference_path", [False, True], ids=["fast", "reference"])
    def test_malformed_message_is_out_of_range(self, message, reference_path):
        with pytest.raises(OutOfRangeError, match="not 5 digits in"):
            encrypt(EX1, EX1_KEY, message, reference_path=reference_path)

    def test_invalid_key_rejected(self):
        with pytest.raises(InvalidKeyError) as err:
            encrypt(EX1, SecretKey(2, (1, 3, 1)), encode_message("F", EX1))
        assert err.value.violations[0].code == "hide-position-missing"

    def test_one_key_object_follows_each_diagram(self):
        # the schedule kept on a key is rebuilt for another orientation:
        # -B gives the same values, so only the matrix tells them apart
        flipped = SystemParams(
            EX1.field, DynkinSpec("A", 5, ((1, 0), (1, 2), (3, 2), (3, 4)))
        )
        key = SecretKey(EX1_KEY.k0, EX1_KEY.seq)
        for params in (EX1, flipped, EX1):
            message = encode_message("F", params)
            ct = encrypt(params, key, message)
            assert ct == encrypt(params, SecretKey(EX1_KEY.k0, EX1_KEY.seq), message)
            assert decrypt(params, key, ct) == message

    def test_zero_chain_value_fails_with_step(self):
        # m = 9 = 1 + alpha^3: step 1 computes (1 + m*alpha^2)/alpha with
        # m*alpha^2 = alpha^2 + alpha^5 = 1, so the binomial vanishes
        with pytest.raises(EncryptionFailedError) as err:
            encrypt(EX1, EX1_KEY, int_to_element(9, EX1.field))
        assert err.value.step == 1

    @pytest.mark.parametrize("message", [9, 27])
    def test_reference_path_fails_in_lockstep(self, message):
        m = int_to_element(message, EX1.field)
        with pytest.raises(EncryptionFailedError) as fast:
            encrypt(EX1, EX1_KEY, m)
        with pytest.raises(EncryptionFailedError) as ref:
            encrypt(EX1, EX1_KEY, m, reference_path=True)
        assert fast.value.step == ref.value.step

    def test_reference_path_matches_fast_path(self):
        for params, key, message in (
            (EX1, EX1_KEY, encode_message("F", EX1)),
            (EX2, EX2_KEY, encode_message(38927, EX2)),
        ):
            assert encrypt(params, key, message) == encrypt(
                params, key, message, reference_path=True
            )

    @pytest.mark.parametrize(
        "family, rank, field",
        [
            ("B", 3, FieldParams(5, 3, (3, 4, 0, 1))),
            ("C", 3, FieldParams(5, 3, (3, 4, 0, 1))),
            ("G", 2, FieldParams(7, 2, (1, 0, 1))),
        ],
        ids=["B3-gf5^3", "C3-gf5^3", "G2-gf7^2"],
    )
    def test_reference_path_matches_fast_path_on_valued_diagrams(self, family, rank, field):
        # exchange relations with |b| >= 2, which the A and D sweep never meets
        params = SystemParams(field, DynkinSpec(family, rank), alphabet=None)
        rng = random.Random(0xB3C3)
        compared = failed = valued_steps = 0
        for key_index in range(30):
            key = keygen(key_index, params, 2 + key_index % 9)
            matrix = params.initial_matrix()
            for k in key.seq:
                valued_steps += any(abs(b) >= 2 for b in matrix.rows[k])
                matrix = matrix_mutate(matrix, k)
            for _ in range(8):
                message = int_to_element(rng.randrange(1, field.q), field)
                try:
                    fast = encrypt(params, key, message)
                except EncryptionFailedError as exc:
                    with pytest.raises(EncryptionFailedError) as mirrored:
                        encrypt(params, key, message, reference_path=True)
                    assert mirrored.value.step == exc.step
                    failed += 1
                    continue
                reference = encrypt(params, key, message, reference_path=True)
                assert serialize_ciphertext(params, fast) == serialize_ciphertext(
                    params, reference
                )
                compared += 1
        assert compared > 0 and failed > 0 and valued_steps > 0


class TestDecrypt:
    def test_worked_example_1(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        decoded = decode_message(decrypt(EX1, EX1_KEY, ct), EX1)
        assert (decoded.number, decoded.letter) == (6, "F")

    def test_worked_example_2(self):
        ct = encrypt(EX2, EX2_KEY, encode_message(38927, EX2))
        assert decode_message(decrypt(EX2, EX2_KEY, ct), EX2).number == 38927

    def test_every_single_digit_flip_is_caught(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        for pos in range(5):
            for digit in range(5):
                values = [list(v) for v in ct.values]
                values[pos][digit] ^= 1
                tampered = CiphertextSeed(
                    tuple(tuple(v) for v in values), ct.matrix
                )
                with pytest.raises(CorruptOrWrongKeyError):
                    decrypt(EX1, EX1_KEY, tampered)

    def test_record_of_another_rank_is_caught(self):
        # a CiphertextSeed built in code, not read against the params
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        other = CiphertextSeed(ct.values[:4], dynkin_exchange_matrix(DynkinSpec("A", 4)))
        with pytest.raises(
            CorruptOrWrongKeyError, match="^ciphertext rank 4 != field degree 5$"
        ):
            decrypt(EX1, EX1_KEY, other)

    def test_wrong_key_is_caught(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        wrong = SecretKey(0, (1, 4, 0, 3, 2))
        assert validate_key(wrong, EX1.initial_matrix()) == ()
        with pytest.raises(CorruptOrWrongKeyError):
            decrypt(EX1, wrong, ct)

    def test_record_that_unwinds_to_the_zero_element(self):
        # Over GF(3^2) = Z_3[x]/(x^2 + 1) the walk forward from (0, alpha)
        # under key (k0 0, seq 1 0 1) first gives x1 = 1/alpha, so the
        # exchange binomial of the step at k0, 1 + x1^2, is 0. Undoing that
        # step sends any nonzero value at k0 to 0, so each record reached
        # from (c, 1/alpha), c != 0, by the last step unwinds to (0, alpha):
        # every integrity check passes and the zero element comes back.
        params = SystemParams(FieldParams(3, 2, (1, 0, 1)), DynkinSpec("B", 2), None)
        key = SecretKey(0, (1, 0, 1))
        assert validate_key(key, params.initial_matrix()) == ()
        record = CiphertextSeed(
            tuple(int_to_element(v, params.field) for v in (1, 6)),
            ExchangeMatrix(((0, -2), (1, 0))),
        )
        assert record.matrix == crypto._schedule(params, key)[2]
        with pytest.raises(CorruptOrWrongKeyError, match="^recovered the zero element$"):
            decrypt(params, key, record)

    def test_round_trip_random(self):
        rng = random.Random(77)
        specs = [
            SystemParams(FieldParams(7, 2, (3, 1, 1)), DynkinSpec("A", 2), None),
            SystemParams(FieldParams(5, 3, (3, 4, 0, 1)), DynkinSpec("A", 3), None),
            SystemParams(FieldParams(3, 4, (2, 1, 0, 0, 1)), DynkinSpec("B", 4), None),
            SystemParams(FieldParams(2, 5, (1, 0, 1, 0, 0, 1)), DynkinSpec("D", 5), None),
        ]
        successes = 0
        failures = 0
        for trial in range(150):
            params = rng.choice(specs)
            key = keygen(trial, params, 2 + rng.randrange(9))
            n = rng.randrange(1, params.field.q)
            message = int_to_element(n, params.field)
            try:
                ct = encrypt(params, key, message)
            except EncryptionFailedError:
                failures += 1
                continue
            assert decrypt(params, key, ct) == message
            successes += 1
        assert successes > 0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.sampled_from(
            [
                EX1,
                EX2,
                SystemParams(FieldParams(5, 3, (3, 4, 0, 1)), DynkinSpec("B", 3), None),
                SystemParams(FieldParams(7, 2, (3, 1, 1)), DynkinSpec("G", 2), None),
            ]
        ),
        st.integers(0, 2**32 - 1),
        st.integers(2, 24),
        st.data(),
    )
    def test_schedule_walk_matches_apply_sequence(self, params, rng_seed, t, data):
        # decrypt walks the schedule's rows backward; the plain walk over the
        # record's own matrix must reach the same values and the initial matrix
        field = params.field
        key = keygen(rng_seed, params, t)
        message = int_to_element(data.draw(st.integers(1, field.q - 1)), field)
        try:
            ct = encrypt(params, key, message)
        except EncryptionFailedError:
            assume(False)
        initial, _, final = crypto._schedule(params, key)
        assert ct.matrix == final
        values, matrix = apply_sequence(ct.values, ct.matrix, key.seq[::-1], field)
        assert matrix == initial == params.initial_matrix()
        point = [field.alpha_power(i) for i in range(field.r)]
        point[key.k0] = message
        assert values == tuple(point)
        # the schedule walk returns the message only once every other
        # position is back at alpha^i
        assert decrypt(params, key, ct) == message


def _over_gf2(spec: DynkinSpec) -> SystemParams:
    """spec over GF(2^rank), modulus the first irreducible one in integer order."""
    f = next(gf2_moduli(spec.rank))
    return SystemParams(FieldParams(2, spec.rank, tuple(f)), spec, alphabet=None)


def _lower_to_higher(family, rank):
    """Every diagram edge directed from its lower vertex: not the default."""
    return tuple((i, j) for i, j, _, _ in dynkin_edges(family, rank))


SCHEDULE_PARAMS = [
    _over_gf2(spec)
    for spec in (
        *(DynkinSpec(f, n) for f, n in (("A", 2), ("A", 5), ("A", 8), ("B", 3), ("B", 5))),
        *(DynkinSpec(f, n) for f, n in (("C", 4), ("D", 4), ("D", 7), ("E", 6), ("E", 7))),
        *(DynkinSpec(f, n) for f, n in (("E", 8), ("F", 4), ("G", 2))),
        *(DynkinSpec(f, n, _lower_to_higher(f, n)) for f, n in (("A", 5), ("D", 6), ("E", 7))),
    )
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SCHEDULE_PARAMS), st.integers(0, 2**32 - 1), st.integers(2, 30))
def test_bare_row_schedule_matches_the_checked_chain(params, rng_seed, t):
    # the schedule walks unchecked rows and checks only M_t; the chain of
    # checked matrix_mutate steps must read the same rows and end at M_t
    key = keygen(rng_seed, params, t)
    initial, rows, final = crypto._schedule(params, key)
    matrix, expected = params.initial_matrix(), []
    for k in key.seq:
        expected.append(matrix.rows[k])
        matrix = matrix_mutate(matrix, k)
    assert initial == params.initial_matrix()
    assert rows == tuple(expected)
    assert final == matrix


@st.composite
def sign_skew_symmetric_7x7(draw):
    """Zero diagonal; b_ij and b_ji both zero or of opposite signs, in [-3, 3]."""
    rows = [[0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i + 1, 7):
            b_ij = draw(st.integers(-3, 3))
            b_ji = 0 if b_ij == 0 else draw(st.integers(1, 3)) * (-1 if b_ij > 0 else 1)
            rows[i][j], rows[j][i] = b_ij, b_ji
    return ExchangeMatrix(rows)


D7_KEY_60 = keygen(0, EX2, 60)
D7_RECORD_60 = encrypt(EX2, D7_KEY_60, encode_message("A", EX2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sign_skew_symmetric_7x7())
def test_tampered_matrix_fails_within_a_second(matrix):
    # a record with another matrix is walked step by step; outside the
    # 2-finite matrices that walk stops at once, so no record can make
    # decrypt run long
    ct = CiphertextSeed(D7_RECORD_60.values, matrix)
    start = time.perf_counter()
    with pytest.raises((CorruptOrWrongKeyError, DecryptionFailedError)):
        decrypt(EX2, D7_KEY_60, ct)
    assert time.perf_counter() - start < 1.0


class TestWireFormat:
    def test_byte_exact_round_trip_example1(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        blob = serialize_ciphertext(EX1, ct)
        restored = deserialize_ciphertext(blob, EX1)
        assert restored == ct
        assert serialize_ciphertext(EX1, restored) == blob

    def test_large_values_survive_exactly(self):
        ct = encrypt(EX2, EX2_KEY, encode_message(38927, EX2))
        blob = serialize_ciphertext(EX2, ct)
        restored = deserialize_ciphertext(blob, EX2)
        assert element_to_int(restored.values[3], EX2.field) == 12799379480831
        assert b"." not in blob  # digits only, no floats
        assert serialize_ciphertext(EX2, restored) == blob

    def test_truncated_payload(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        blob = serialize_ciphertext(EX1, ct)
        with pytest.raises(ParseError):
            deserialize_ciphertext(blob[: len(blob) // 2], EX1)

    def test_bad_version(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        blob = serialize_ciphertext(EX1, ct).replace(b'"v":1', b'"v":9')
        with pytest.raises(ParseError):
            deserialize_ciphertext(blob, EX1)

    def test_bad_digits(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        blob = serialize_ciphertext(EX1, ct)
        with pytest.raises(ParseError):
            deserialize_ciphertext(blob.replace(b"[1,1,0,1,0]", b"[1,1,0,1,7]"), EX1)

    def test_key_file_round_trip(self):
        blob = serialize_key(EX1_KEY)
        assert deserialize_key(blob) == EX1_KEY
        assert blob == b'{"k0":0,"seq":[1,4,0,3,1]}'

    def test_params_file_round_trip(self):
        blob = serialize_params(EX2)
        assert deserialize_params(blob) == EX2

    # an integer on the wire must be a JSON integer: bool, float and str
    # are rejected, never truncated or coerced

    @pytest.mark.parametrize(
        "blob",
        [
            b'{"k0": true, "seq": [1, 4, 0, 3, 1]}',
            b'{"k0": 0, "seq": [1.9, 4, 0, 3, 1]}',
            b'{"k0": 0, "seq": ["1", 4, 0, 3, 1]}',
            b'{"k0": 0.0, "seq": [1, 4, 0, 3, 1]}',
        ],
        ids=["k0-bool", "seq-float", "seq-str", "k0-float"],
    )
    def test_key_integers_are_strict(self, blob):
        with pytest.raises(ParseError):
            deserialize_key(blob)

    @pytest.mark.parametrize(
        "field,value",
        [("p", 2.0), ("r", True), ("f", [1, 0, 1, 0, 0, 1.0]), ("f", "101001")],
        ids=["p-float", "r-bool", "f-float", "f-str"],
    )
    def test_params_integers_are_strict(self, field, value):
        payload = json.loads(serialize_params(EX1))
        payload[field] = value
        with pytest.raises(ParseError):
            deserialize_params(json.dumps(payload).encode())

    @pytest.mark.parametrize("rank", [5.7, 5.0, "5", True])
    def test_diagram_rank_is_strict(self, rank):
        payload = json.loads(serialize_params(EX1))
        payload["diagram"]["rank"] = rank
        with pytest.raises(ParseError):
            deserialize_params(json.dumps(payload).encode())

    def test_params_orientation_must_direct_every_edge(self):
        payload = {
            "diagram": {"family": "A", "orientation": [[0, 1]], "rank": 3},
            "f": [3, 4, 0, 1], "p": 5, "r": 3,
        }
        with pytest.raises(
            ParseError, match="^orientation must direct every edge exactly once$"
        ):
            deserialize_params(json.dumps(payload).encode())

    @pytest.mark.parametrize(
        "header",
        [
            # the diagram's default orientation spelled out, and a modulus
            # coefficient not reduced mod p: each builds params equal to
            # EX1, but the header bytes differ
            {"diagram": {"family": "A", "rank": 5, "orientation": "default"}},
            {"f": [3, 0, 1, 0, 0, 1]},
        ],
        ids=["orientation-default", "f-unreduced"],
    )
    def test_header_must_equal_the_params_bytes(self, header):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        payload = json.loads(serialize_ciphertext(EX1, ct))
        payload.update(header)
        with pytest.raises(ParseError, match="^ciphertext params do not match"):
            deserialize_ciphertext(json.dumps(payload).encode(), EX1)

    def test_malformed_header_names_its_own_fault(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        payload = json.loads(serialize_ciphertext(EX1, ct))
        payload["p"] = 2.0
        with pytest.raises(ParseError, match=r"^p must be an integer, got 2\.0$"):
            deserialize_ciphertext(json.dumps(payload).encode(), EX1)

    def test_record_of_the_wrong_rank_is_a_parse_error(self):
        # an A5 header over a 3x3 matrix and three values is unreadable
        # input, not a decryption failure
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        payload = json.loads(serialize_ciphertext(EX1, ct))
        payload["matrix"] = [row[:3] for row in payload["matrix"][:3]]
        payload["values"] = payload["values"][:3]
        with pytest.raises(ParseError, match=r"^ciphertext rank 3 != field degree 5$"):
            deserialize_ciphertext(json.dumps(payload).encode(), EX1)

    def test_missing_fields_are_named(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        payload = json.loads(serialize_ciphertext(EX1, ct))
        del payload["values"], payload["diagram"]
        with pytest.raises(ParseError, match=r"^missing fields \['diagram', 'values'\]$"):
            deserialize_ciphertext(json.dumps(payload).encode(), EX1)

    def test_digit_array_one_digit_short(self):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        payload = json.loads(serialize_ciphertext(EX1, ct))
        payload["values"][2] = payload["values"][2][:-1]
        with pytest.raises(
            ParseError, match="^value digit arrays do not match the field degree$"
        ):
            deserialize_ciphertext(json.dumps(payload).encode(), EX1)

    def test_record_reads_with_its_own_header_as_params(self):
        ct = encrypt(EX2, EX2_KEY, encode_message(38927, EX2))
        blob = serialize_ciphertext(EX2, ct)
        assert deserialize_ciphertext(blob, deserialize_params(blob)) == ct

    @pytest.mark.parametrize(
        "reader",
        [
            deserialize_key,
            deserialize_params,
            partial(deserialize_ciphertext, params=EX1),
        ],
        ids=["key", "params", "ciphertext"],
    )
    def test_deep_nesting_is_a_parse_error(self, reader):
        with pytest.raises(ParseError, match="nested too deeply"):
            reader(b"[" * 100_000)

    @pytest.mark.parametrize(
        "reader,template",
        [
            (
                deserialize_params,
                b'{"p":%s,"r":5,"f":[1,0,1,0,0,1],"diagram":{"family":"A","rank":5}}',
            ),
            (
                partial(deserialize_ciphertext, params=EX1),
                b'{"v":1,"p":%s,"r":5,"f":[1,0,1,0,0,1],"diagram":{"family":"A","rank":5},'
                b'"matrix":[],"values":[]}',
            ),
            (deserialize_key, b'{"k0":%s,"seq":[1]}'),
        ],
        ids=["params", "record-header", "key"],
    )
    def test_nesting_just_inside_the_json_limit_is_a_parse_error(self, reader, template):
        # json.loads accepts these, and building from them can still run out
        # of stack; the depth where that happens moves with the caller's own
        for depth in range(900, 1000):
            with pytest.raises(ParseError):
                reader(template % (b"[" * depth + b"]" * depth))

    @pytest.mark.parametrize("reader", [deserialize_key, deserialize_params])
    def test_non_utf8_is_a_parse_error_with_position(self, reader):
        with pytest.raises(ParseError) as caught:
            reader(b'{"k0": \xff}')
        assert caught.value.position == 7

    @pytest.mark.parametrize("reader", [deserialize_key, deserialize_params])
    def test_payload_must_be_an_object(self, reader):
        with pytest.raises(ParseError, match="^payload is not an object$"):
            reader(b"[1]")

    def test_reducible_modulus_is_a_parse_error(self):
        payload = json.loads(serialize_params(EX1))
        payload["f"] = [1, 1, 0, 0, 0, 1]  # x^5 + x + 1 = (x^2+x+1)(x^3+x^2+1)
        with pytest.raises(ParseError, match="reducible"):
            deserialize_params(json.dumps(payload).encode())

    def test_diagram_must_be_an_object(self):
        payload = json.loads(serialize_params(EX1))
        payload["diagram"] = ["A", 5]
        with pytest.raises(ParseError):
            deserialize_params(json.dumps(payload).encode())

    @pytest.mark.parametrize(
        "path,value",
        [
            (("p",), 2.0),
            (("v",), True),
            (("diagram", "rank"), 5.0),
            (("matrix", 0, 1), -1.0),
            (("values", 0, 0), 1.9),
            (("values", 0, 0), True),
            (("values", 0, 0), "1"),
        ],
        ids=[
            "p-float", "v-bool", "rank-float", "matrix-float",
            "digit-float", "digit-bool", "digit-str",
        ],
    )
    def test_ciphertext_integers_are_strict(self, path, value):
        ct = encrypt(EX1, EX1_KEY, encode_message("F", EX1))
        payload = json.loads(serialize_ciphertext(EX1, ct))
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ParseError):
            deserialize_ciphertext(json.dumps(payload).encode(), EX1)
