"""Exception types raised by the qpa library."""


class QpaError(Exception):
    """Base class for all qpa errors."""


class UnsupportedOrder(QpaError):
    """root_of_unity called with an order that does not divide 65536."""


class UnsupportedLength(QpaError):
    """Transform length is not a supported power of 16."""


class LengthMismatch(QpaError):
    """Vector operands have different lengths."""


class OperandTooLarge(QpaError):
    """Big-integer operand exceeds the size the NTT multiplier supports."""


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
    """Exponent is not a known Mersenne-prime exponent or exceeds the transform."""


class InvalidWorkers(QpaError):
    """Worker count is not a positive integer."""


class WorkerFailed(QpaError):
    """A worker process raised, exited non-zero or sent back no result."""


class TooLargeToEnumerate(QpaError):
    """Seed space too large for exhaustive enumeration."""


class TooManyBlocks(QpaError):
    """More input blocks than one pass can sum exactly in the transform."""
