"""Exception types raised across the package."""


class PairspecError(Exception):
    """Base class for all package-specific errors."""


class SolverError(PairspecError):
    """A solve failed on valid input: exit 2, and a sweep point fails alone."""


class SingularMatrix(SolverError):
    """A pivot fell below tolerance during a direct linear solve."""


class NearSingularPencil(SolverError):
    """Some eigenvalue pair lambda_i(A) + lambda_j(B) is too close to zero."""

    def __init__(self, msg, pair=None, gap=None):
        super().__init__(msg)
        self.pair = pair
        self.gap = gap


class ConvergenceFailure(SolverError):
    """An iterative factorization failed to converge."""


class InvalidRange(PairspecError):
    """Frequency range is empty or inverted."""


class NonPositiveInput(PairspecError):
    """Unit conversion requires a strictly positive value."""


class DegenerateWidth(PairspecError):
    """A Gaussian width is not positive, or too narrow for the grid; the
    message starts with the width parameter's name."""


class ParseError(PairspecError):
    """Grid file is malformed."""


class NegativeIntensity(PairspecError):
    """Intensity grid contains a negative cell."""


class NonUniformAxis(PairspecError):
    """Grid axis is not strictly monotone with uniform spacing."""


class DegenerateState(PairspecError):
    """All-zero amplitude has no Schmidt decomposition."""


class SingularCovariance(SolverError):
    """Covariance matrix is not invertible."""


class NonPositiveDeterminant(SolverError):
    """Purity requires |det| > 0; carries the offending determinant."""

    def __init__(self, msg, determinant=None):
        super().__init__(msg)
        self.determinant = determinant


class StepOverflow(SolverError):
    """Integrator state norm exceeded the overflow limit (unstable generator)."""

    def __init__(self, msg, step=None, time=None):
        super().__init__(msg)
        self.step = step
        self.time = time


class NonConvergentIntegral(SolverError):
    """Time integral does not converge (generator not strictly stable)."""


class ConfigError(PairspecError):
    """Run configuration is missing, malformed, or inconsistent."""
