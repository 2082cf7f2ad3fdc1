"""A complete cipher session: keygen, encrypt, ship, decrypt, tamper.

The sender hides the message at position k0 of the initial cluster and
applies the secret mutation sequence; the transmitted seed is the mutated
values plus the mutated matrix. The receiver applies the reversed
sequence and reads position k0 back. Every other position must return to
alpha^i exactly, which is what catches tampering and wrong keys.
"""

from clustercrypt import (
    CiphertextSeed,
    SecretKey,
    decode_message,
    decrypt,
    deserialize_ciphertext,
    element_to_int,
    encode_message,
    encrypt,
    keygen,
    serialize_ciphertext,
    validate_key,
)
from clustercrypt.errors import CorruptOrWrongKeyError
from clustercrypt.known_answers import EXAMPLE_1

# worked example 1: GF(2^5) with modulus 1 + x^2 + x^5, diagram A5
params, key = EXAMPLE_1.params, EXAMPLE_1.key
print("key: hide position", key.k0, "sequence", list(key.seq))
print("key valid:", validate_key(key, params.initial_matrix()) == ())

message = encode_message("F", params)
print("\nmessage 'F' encodes as", message, "=", element_to_int(message, params.field))

ct = encrypt(params, key, message)
ints = [element_to_int(v, params.field) for v in ct.values]
letters = [decode_message(v, params).letter for v in ct.values]
print("ciphertext values:", ints)
print("read as letters:  ", letters, " (an eavesdropper sees only these)")

blob = serialize_ciphertext(params, ct)
print(f"\nwire form ({len(blob)} bytes):")
print(" ", blob.decode()[:100], "...")

_, received = deserialize_ciphertext(blob)
recovered = decode_message(decrypt(params, key, received), params)
print("\nreceiver decrypts:", recovered.number, f"({recovered.letter})")

# flip one transmitted digit: the integrity positions give it away
values = [list(v) for v in received.values]
values[1][0] ^= 1
tampered = CiphertextSeed(tuple(tuple(v) for v in values), received.matrix)
try:
    decrypt(params, key, tampered)
except CorruptOrWrongKeyError as exc:
    print("tampered seed rejected:", exc)

# a wrong (but well-formed) key fails the same way
wrong = SecretKey(k0=0, seq=(1, 4, 0, 3, 2))
try:
    decrypt(params, wrong, received)
except CorruptOrWrongKeyError as exc:
    print("wrong key rejected:   ", exc)

# fresh random keys come from the deterministic sampler
fresh = keygen(rng_seed=2024, params=params, t=8)
print("\nfresh key from seed 2024:", fresh.k0, list(fresh.seq))
ct2 = encrypt(params, fresh, message)
print("same message, new key: ", [element_to_int(v, params.field) for v in ct2.values])
print("round trip:", decode_message(decrypt(params, fresh, ct2), params).letter)
