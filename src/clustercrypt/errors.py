"""Exception types shared across the package.

Verdict-style results (key-validation violation lists, finite-type
classifications, truncated path searches) are returned as values, not
raised; only genuine failures become exceptions.
"""


class ClusterCryptError(Exception):
    """Base class for all package errors."""


class NonInvertibleError(ClusterCryptError):
    """Attempted to invert zero (in Z_p or GF(p^r))."""


class InvalidPolynomialError(ClusterCryptError):
    """Polynomial argument malformed (wrong degree, bad coefficients)."""


class OutOfRangeError(ClusterCryptError):
    """Integer outside [0, p^r) passed to the element codec."""


class InvalidSpecError(ClusterCryptError):
    """Dynkin family/rank combination or orientation is not supported."""


class InvalidVertexError(ClusterCryptError):
    """Mutation vertex index outside [0, n)."""


class InvalidMatrixError(ClusterCryptError):
    """Matrix is not square / integer / sign-skew-symmetric."""


class MutationDivisionError(ClusterCryptError):
    """Numeric mutation tried to divide by a zero cluster value.

    Carries the vertex and (1-based) step number within a sequence;
    step is None for a single mutation outside a sequence.
    """

    def __init__(self, vertex, step=None):
        self.vertex = vertex
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"zero cluster value at vertex {vertex}{where}")


class NotDivisibleError(ClusterCryptError):
    """Divisor does not divide; in symbolic mutation, a bug (Laurent phenomenon)."""


class DegenerateSubstitutionError(ClusterCryptError):
    """Substitution made a denominator identically zero."""


class DenominatorVanishesError(ClusterCryptError):
    """Rational function evaluated at a zero of its denominator."""


class NotClusterShapedError(ClusterCryptError):
    """Denominator is not a monomial: no denominator vector or canonical key."""


class ZeroMessageError(ClusterCryptError):
    """The zero field element cannot be used as a message."""


class UnknownSymbolError(ClusterCryptError):
    """Letter not present in the alphabet table."""


class InfeasibleKeyError(ClusterCryptError):
    """No valid key of the requested length exists (or sampling gave up)."""


class InvalidKeyError(ClusterCryptError):
    """Secret key failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class EncryptionFailedError(ClusterCryptError):
    """Mutation chain hit a zero value while encrypting.

    No ciphertext from this chain could ever decrypt: re-key and retry.
    """

    def __init__(self, step, reason):
        self.step = step
        self.reason = reason
        super().__init__(
            f"encryption failed at step {step}: {reason}; choose a different key"
        )


class DecryptionFailedError(ClusterCryptError):
    """Reverse mutation chain hit a zero denominator."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"decryption failed at step {step}")


class CorruptOrWrongKeyError(ClusterCryptError):
    """Decryption finished but the integrity positions are wrong."""


class ParseError(ClusterCryptError):
    """Malformed serialized payload; carries a best-effort position."""

    def __init__(self, message, position=None):
        self.position = position
        where = f" (at {position})" if position is not None else ""
        super().__init__(f"{message}{where}")


class BudgetExceededError(ClusterCryptError):
    """Enumeration budget exhausted before the search closed."""


class NotFiniteTypeError(ClusterCryptError):
    """Operation requires a finite-type exchange matrix."""
