"""Exception hierarchy for the engine.

Every error carries a human-readable message; errors raised while parsing
scenario files additionally carry a JSON-path-like location string.
"""


class DhqError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(DhqError):
    pass


class DegenerateSpan(DhqError):
    """Spanning vectors are linearly dependent at working tolerance."""


class NotHermitian(DhqError):
    pass


class GridTooLarge(DhqError):
    """A Gram matrix or grid would exceed `linalg.MAX_DENSE_ENTRIES`."""


class NotDecoherent(DhqError):
    """Probabilities requested for a set that fails the decoherence check.

    Carries the offending report so callers can inspect the interference.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class InvalidPartition(DhqError):
    pass


class NonCommutingSets(DhqError):
    """Refinement join rejected; carries the max commutator norm."""

    def __init__(self, message, max_commutator_norm):
        super().__init__(message)
        self.max_commutator_norm = max_commutator_norm


class ConditionOnNull(DhqError):
    """Conditioning data has probability below the conditioning floor."""


class EnvironmentTooLarge(DhqError):
    pass


class SuperluminalBoost(DhqError):
    pass


class ParseError(DhqError):
    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ValidationError(DhqError):
    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
