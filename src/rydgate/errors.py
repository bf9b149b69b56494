"""Exception and warning types shared across the package."""


class RydgateError(Exception):
    """Base class for all package errors."""


class Unconfined(RydgateError):
    """Trap parameters do not confine the ions (a secular radicand <= 0)."""


class ModeInstability(RydgateError):
    """A phonon Hessian has a non-positive eigenvalue (antitrapping too strong)."""


class NoRoot(RydgateError):
    """A bracketed root search found no sign change."""


class DomainError(RydgateError):
    """An argument lies outside the operation's domain."""


class ToleranceFailure(RydgateError):
    """The adaptive integrator could not meet the requested tolerances."""


class ParseError(RydgateError):
    """Config file is malformed (bad syntax or unparseable value)."""


class ValidationError(RydgateError):
    """Config contents are structurally valid but violate the schema."""


class TruncationWarning(UserWarning):
    """Fock truncation visibly degrades overlap-matrix unitarity.

    row_norm is the smallest bra row norm the message reports, unrounded.
    """

    def __init__(self, message, row_norm=None):
        super().__init__(message)
        self.row_norm = row_norm


class WeakDriveWarning(UserWarning):
    """The strong-drive assumption behind the pair-potential model is marginal."""
