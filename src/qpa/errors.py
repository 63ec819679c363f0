"""Exception types raised by the qpa library."""


class QpaError(Exception):
    """Base class for all qpa errors."""


class UnsupportedOrder(QpaError):
    """root_of_unity called with an order that is neither a divisor of 65536 nor five times one."""


class UnsupportedLength(QpaError):
    """Transform input is not a vector or batch whose length is a power of
    two from 16 to 65536 or five times one from 80 to 40960."""


class LengthMismatch(QpaError):
    """Vector operands have different lengths."""


class OperandTooLarge(QpaError):
    """A gamma too wide for a given transform length, or a limb product too long."""


class AllOnesBlock(QpaError):
    """One or more raw input blocks equal 2^gamma - 1 and must be replaced.

    ``indices`` lists the offending block positions, 1-based.
    """

    def __init__(self, indices):
        self.indices = list(indices)
        super().__init__(f"all-ones blocks at positions {self.indices}")


class SeedTooShort(QpaError):
    """Seed sequence does not cover the requested pass index."""


class InvalidOutputLen(QpaError):
    """Tail hash output length outside [1, gamma)."""


class InvalidRatio(QpaError):
    """Output length is zero or exceeds the input length."""


class InvalidGamma(QpaError):
    """Exponent is not a known Mersenne-prime exponent, or no transform length sums one product exactly."""


class InvalidWorkers(QpaError):
    """Worker count is not a positive integer."""


class WorkerFailed(QpaError):
    """A worker process could not start, raised, exited non-zero or was killed."""


class TooLargeToEnumerate(QpaError):
    """Seed space too large for exhaustive enumeration."""


class TooManyBlocks(QpaError):
    """More input blocks than one pass can sum exactly in the transform."""
