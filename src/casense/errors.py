"""Exception types raised across the toolkit."""


class CasenseError(Exception):
    """Base class for all casense errors."""


class NonIntegerSpacingRatio(CasenseError):
    """High/low subcarrier spacing ratio is not an integer."""


class VelocityFusionConstraintViolated(CasenseError):
    """T_low * fc_low != T_high * fc_high; cross-band Doppler bins cannot align."""


class PilotIntervalDoesNotDivide(CasenseError):
    """Comb interval must divide N, block interval must divide M."""


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


class InvalidSnrGrid(CasenseError, ValueError):
    """SNR grid text is malformed, non-finite, empty, or longer than the cap."""


class InvalidSolverOptions(CasenseError, ValueError):
    """Solver knob is non-finite, negative, or not a whole number of iterations >= 1."""


class InvalidTarget(CasenseError, ValueError):
    """Target range or velocity non-finite, range negative or beyond the span, or gain zero."""


class InvalidNoiseLevel(CasenseError, ValueError):
    """Noise std is NaN, infinite or negative (zero for a CRLB), or an SNR has no finite std."""


class NonFiniteSpectrum(CasenseError, ValueError):
    """Spectrum holds NaN or inf, so it has no meaningful peak."""


class VelocityAmbiguityWarning(UserWarning):
    """Target velocity exceeds the unambiguous Doppler span of a band."""
