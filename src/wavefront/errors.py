"""Exception types shared across the package."""


class WavefrontError(Exception):
    """Base class for all package-specific errors."""


class OutOfStrip(WavefrontError):
    """Laplace-transform argument lies outside the open convergence strip."""


class EmptyStrip(WavefrontError):
    """Convolution factors have no common strip of convergence."""


class NoRoots(WavefrontError):
    """The characteristic function has no positive real zero (non-existence regime)."""


class StripTooNarrow(WavefrontError):
    """The convergence strip does not reach into the right half-line."""


class BracketFailure(WavefrontError):
    """A speed bracket does not straddle the sign change of the inner maximum."""


class HypothesisViolation(WavefrontError):
    """A model family's standing hypothesis fails for the given parameters."""


class ZeroSpeed(WavefrontError):
    """Stationary fronts (c = 0) are outside the supported scope."""


class NoWave(WavefrontError):
    """No semi-wavefront exists: chi has no positive zero, or the initial profile is zero."""


class MaxIterExceeded(WavefrontError):
    """Fixed-point iteration hit the iteration cap before meeting tolerance.

    Carries the best-effort profile in ``profile`` when one is available.
    """

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile


class NegativeValues(WavefrontError):
    """Iteration produced negative profile values (model outside assumptions)."""


class TailUnresolved(WavefrontError):
    """The left tail of a profile is not resolved well enough for fitting."""


class NonPositiveTail(WavefrontError):
    """A fitting window contains non-positive profile values."""


class NoCrossing(WavefrontError):
    """A profile never crosses the requested alignment level."""
