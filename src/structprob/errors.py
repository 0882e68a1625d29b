"""Exception types shared across the library."""


class StructProbError(Exception):
    """Base class for all library errors."""


class CapExceeded(StructProbError):
    """An output space is too large to enumerate under the configured cap."""


class WrongSpace(StructProbError):
    """A structure was passed to a space of a different kind."""


class ZeroInput(StructProbError):
    """Input feature vector has zero norm and cannot be normalized."""


class DimensionMismatch(StructProbError):
    """Vector dimensions are inconsistent."""


class InvalidEpsilon(StructProbError):
    """Error parameter outside the admissible range."""


class SamplerFailure(StructProbError):
    """A sampler could not produce a sample within its budget."""


class EpochBudgetExhausted(SamplerFailure):
    """A sampling request expected to make more than MAX_EXPECTED_PROPOSALS
    proposals (or chain steps), refused before its first draw.

    The message names the estimate.  The estimate does not depend on the
    random stream, so a retry would be refused as well.
    """


class TooFewRuns(StructProbError):
    """Not enough independent runs for the requested confidence boost."""


class InsufficientSamples(StructProbError):
    """Too few samples (or a support mismatch) for a statistical test."""
