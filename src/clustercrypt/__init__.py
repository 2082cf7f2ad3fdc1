"""Mutation-based symmetric cipher over GF(p^r), plus analysis tooling.

Messages live in a finite field GF(p^r), get hidden at one position of a
cluster seed, and are scrambled by a secret sequence of seed mutations;
the reversed sequence recovers them. The analysis half enumerates
exchange graphs and reproduces key-recovery probability estimates.

The cipher is a research construction: see the probe report for what the
counting argument does (and does not) guarantee. Nothing here is
hardened against side channels.
"""

from .analysis import (
    ExchangeGraph,
    check_denominator_bijection,
    class_count_closed_form,
    cluster_variables,
    dfs_paths,
    enumerate_exchange_graph,
    enumerate_symbolic_seeds,
    key_recovery_probability,
    path_count,
    probability_closed_form,
    probability_report,
    verify_seed_list_a3,
)
from .cluster import (
    DynkinSpec,
    ExchangeMatrix,
    FiniteTypeResult,
    apply_sequence,
    cartan_counterpart,
    dynkin_exchange_matrix,
    is_finite_type,
    matrix_mutate,
    numeric_mutate,
    standard_cartan,
)
from .crypto import (
    DEFAULT_ALPHABET,
    Alphabet,
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
from .errors import ClusterCryptError
from .fields import (
    FieldParams,
    element_to_int,
    ext_add,
    ext_inv,
    ext_mul,
    ext_pow,
    fp_inv,
    int_to_element,
    is_irreducible,
    is_prime,
)
from .roots import (
    RootSystem,
    check_root_axioms,
    generate_root_system,
    symmetrizer,
)
from .symbolic import (
    Polynomial,
    RationalFunction,
    SymbolicSeed,
    apply_symbolic_sequence,
    initial_symbolic_seed,
    rf_mutate,
)

__all__ = [
    "Alphabet",
    "CiphertextSeed",
    "ClusterCryptError",
    "DEFAULT_ALPHABET",
    "DynkinSpec",
    "ExchangeGraph",
    "ExchangeMatrix",
    "FieldParams",
    "FiniteTypeResult",
    "Polynomial",
    "RationalFunction",
    "RootSystem",
    "SecretKey",
    "SymbolicSeed",
    "SystemParams",
    "apply_sequence",
    "apply_symbolic_sequence",
    "cartan_counterpart",
    "check_denominator_bijection",
    "check_root_axioms",
    "class_count_closed_form",
    "cluster_variables",
    "decode_message",
    "decrypt",
    "deserialize_ciphertext",
    "deserialize_key",
    "deserialize_params",
    "dfs_paths",
    "dynkin_exchange_matrix",
    "element_to_int",
    "encode_message",
    "encrypt",
    "enumerate_exchange_graph",
    "enumerate_symbolic_seeds",
    "ext_add",
    "ext_inv",
    "ext_mul",
    "ext_pow",
    "fp_inv",
    "generate_root_system",
    "initial_symbolic_seed",
    "int_to_element",
    "is_finite_type",
    "is_irreducible",
    "is_prime",
    "key_recovery_probability",
    "keygen",
    "matrix_mutate",
    "numeric_mutate",
    "path_count",
    "probability_closed_form",
    "probability_report",
    "rf_mutate",
    "serialize_ciphertext",
    "serialize_key",
    "serialize_params",
    "standard_cartan",
    "symmetrizer",
    "validate_key",
    "verify_seed_list_a3",
]

__version__ = "0.1.0"
