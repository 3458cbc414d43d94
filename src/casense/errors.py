"""Exception types raised across the toolkit, and one checking rule per kind of value."""

import math
import numbers
import typing

import numpy as np


class CasenseError(Exception):
    """Base class for all casense errors."""


class NonIntegerSpacingRatio(CasenseError):
    """High/low subcarrier spacing ratio is not an integer."""


class VelocityFusionConstraintViolated(CasenseError):
    """T_low * fc_low != T_high * fc_high; cross-band Doppler bins cannot align."""


class SchemeMismatch(CasenseError):
    """Configuration, band or matrix of the wrong aggregation scheme or pilot pattern."""


class EmptyScene(CasenseError):
    """Target scene contains no targets."""


class DimensionMismatch(CasenseError):
    """Vector length does not match the operator size."""


class SingularFisher(CasenseError):
    """Fisher information matrix is singular (degenerate grid)."""


class UnsupportedScheme(CasenseError):
    """Closed-form CRLB preconditions not met for this configuration."""


class InvalidConfig(CasenseError, ValueError):
    """Band or aggregation parameter is non-finite, out of range, or too small a grid."""


class PilotIntervalDoesNotDivide(InvalidConfig):
    """Pilot interval is not an integer >= 1, or does not divide N (comb) or M (block)."""


class InvalidSnrGrid(CasenseError, ValueError):
    """SNR grid text is malformed, non-finite, empty, or longer than the cap."""


class InvalidSolverOptions(CasenseError, ValueError):
    """Solver knob is non-finite, negative, or not a whole number of iterations >= 1."""


class InvalidTarget(CasenseError, ValueError):
    """Target range or velocity non-finite, range negative or beyond the span, or gain zero."""


class InvalidNoiseLevel(CasenseError, ValueError):
    """Noise std is NaN, infinite or negative (zero for a CRLB), or an SNR has no finite std."""


class NonFiniteSpectrum(CasenseError, ValueError):
    """Spectrum is empty or holds NaN or inf, so it has no meaningful peak."""


class VelocityAmbiguityWarning(UserWarning):
    """Target velocity exceeds the unambiguous Doppler span of a band."""


def check_integer(name: str, value, least: int, error: type[CasenseError]) -> None:
    """Raise error unless value is an integer (a bool is not) >= least."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise error(f"{name} {value!r} must be an integer >= {least}")


def check_real(name: str, value, error: type[CasenseError], sign: str = "") -> None:
    """Raise error unless value is one finite real number (a bool or an array is not), > 0 for
    sign "positive" and >= 0 for "nonnegative"."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not real or (sign == "positive" and value <= 0) or (sign == "nonnegative" and value < 0):
        raise error(f"{name} {value} must be a finite {sign + ' ' if sign else ''}real number")


def check_seed(name: str, value, error: type[CasenseError]) -> None:
    """Raise error unless value is a seed np.random.default_rng takes: None for fresh entropy,
    an integer >= 0 (a bool is not), a tuple, list or 1-d array of them, a SeedSequence, a
    BitGenerator or a Generator. Nested sequences, which numpy also takes, are rejected."""
    rng = np.random
    value = value.tolist() if isinstance(value, np.ndarray) and value.ndim == 1 else value
    if not isinstance(value, (type(None), rng.SeedSequence, rng.BitGenerator, rng.Generator)):
        for part in value if isinstance(value, (tuple, list)) else (value,):
            check_integer(name, part, 0, error)


def check_finite(name: str, array: np.ndarray, error: type[CasenseError]) -> None:
    """Raise error unless the numeric array is nonempty and holds only finite values."""
    if not (array.size and np.isfinite(array).all()):
        raise error(f"{name} must be a nonempty array of finite values")


def check_kind(name: str, value, kind, error: type[CasenseError]) -> None:
    """Raise error unless value is a kind (a type or a union of types); a bool is only a bool."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        names = " or ".join(k.__name__ for k in typing.get_args(kind) or (kind,))
        raise error(f"{name} {value!r} must be {names}, not {type(value).__name__}")
