"""Exception hierarchy shared by all simulator modules, and the domain-field check."""
import math
from dataclasses import fields


class RydfmError(Exception):
    """Base class for every error raised by this package."""


# --- configuration / input errors ------------------------------------------

class ParseError(RydfmError):
    """Scenario text could not be parsed; message carries the line number."""


class UnknownKeyError(ParseError):
    """A scenario section or key is not part of the documented grammar."""


class InvariantViolation(RydfmError, ValueError):
    """A domain-type invariant failed (bad sign, bad range, bad shape)."""


def require(obj, positive=(), nonnegative=()) -> None:
    """Raise InvariantViolation unless every `float` or `float | None` field of dataclass
    `obj` is finite or None, each in `positive` > 0 and each in `nonnegative` >= 0 (NaN fails)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float", "float | None") and value is not None and not math.isfinite(value):
            raise InvariantViolation(f"{f.name} must be finite, got {value!r}")
    for name in (*positive, *nonnegative):
        value, strict = getattr(obj, name), name in positive
        if value is not None and not (value > 0 or value == 0 and not strict):
            raise InvariantViolation(f"{name} must be {'>' if strict else '>='} 0, got {value!r}")


# --- numeric / physics errors ----------------------------------------------

class SingularSystemError(RydfmError):
    """The steady-state linear system is degenerate (e.g. all rates zero)."""


class NonConvergenceError(RydfmError):
    """An iterative result or a numerical self-check missed its tolerance."""


class TruncationError(RydfmError):
    """Sideband order cutoff loses more optical power than allowed."""


class OutOfGridError(RydfmError):
    """A sideband falls outside the scanned detuning grid."""


class EvenHarmonicError(RydfmError):
    """The residual-AM photocurrent formula only applies to odd harmonics."""


class UnsupportedKindError(RydfmError):
    """Requested noise kind is not one of the synthesizable power laws."""


class InsufficientDataError(RydfmError):
    """Too few averaging bins for the requested Allan sampling time."""


class KernelTooNarrowError(RydfmError):
    """Matched-filter kernel is narrower than two grid steps."""


class DomainError(RydfmError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ZeroResponsivityError(RydfmError):
    """The signal derivative vanishes; sensitivity is undefined."""


class UnstableLoopError(RydfmError):
    """Servo error amplitude grew by more than 10x; gains are unstable."""
