"""Exception types raised by the library."""

from __future__ import annotations


class BLHeckeError(Exception):
    """Base class for all library errors."""


class ValidationError(BLHeckeError):
    """A root datum or parameter set violates a structural invariant.

    ``code`` is one of the symbolic names below; ``args[0]`` is a message.
    """

    DIAGONAL_NOT_2 = "DiagonalNot2"
    SIGN_VIOLATION = "SignViolation"
    PAIRING_MISMATCH = "PairingMismatch"
    PARAMETER_CONSTRAINT = "ParameterConstraintViolation"
    PARAMETER_MODULUS = "ParameterModulusViolation"
    INDEPENDENCE = "IndependenceViolation"

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NotARealCoroot(BLHeckeError):
    """The given vector is not in the Weyl orbit of a simple coroot."""


class PoleAtCharacter(BLHeckeError):
    """A denominator factor vanishes at the character being evaluated."""

    def __init__(self, message: str, factor=None, word=None):
        super().__init__(message)
        self.factor = factor
        self.word = word


class IncompatibleData(BLHeckeError):
    """Operands belong to different root data, parameter sets or quadratic
    extensions Q(sqrt(d)) of the scalars."""


class WordNotReduced(BLHeckeError):
    """A supplied word over Coxeter generators is not reduced."""


class NotInBLH(BLHeckeError):
    """Element has non-polynomial coefficients."""


class DomainNotLowerSet(BLHeckeError):
    """Truncation domain is not closed under the Bruhat order."""


class NotInUC(BLHeckeError):
    """Character lies outside the regular locus (a zeta numerator vanishes)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInKTau(BLHeckeError):
    """Element does not decompose in the modified-intertwiner basis."""


class DecompositionFailure(BLHeckeError):
    """Basis decomposition produced a coefficient with a pole at tau."""


class NotInGenWeightSpace(BLHeckeError):
    """Nilpotency iteration failed to vanish within its bound."""


class NotInItgSpan(BLHeckeError):
    """Vector is not in the span of the computed module basis."""


class NotInRTau(BLHeckeError):
    """Element fails the R-group conditions at this character."""


class KacMoodyViolation(BLHeckeError):
    """A derived pairing matrix is not a Kac-Moody matrix (bug signal)."""


class ConfigError(BLHeckeError):
    """Malformed configuration input."""
