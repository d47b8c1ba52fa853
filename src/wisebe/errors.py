"""Exception types shared across the package."""


class WisebeError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyTranscript(WisebeError):
    """No tokens survived normalization."""


class AlignmentError(WisebeError):
    """Two segmentations do not come from the same token sequence.

    `position` is the first differing token index; `left` and `right`
    are the tokens found there (None on the shorter side).
    """

    def __init__(self, message, position=None, left=None, right=None):
        super().__init__(message)
        self.position = position
        self.left = left
        self.right = right


class NoBoundaries(WisebeError):
    """A reference marks no boundary at all, so recall-style ratios are undefined."""


class BadThreshold(WisebeError):
    """Consensus vote threshold outside the valid 1..m range."""


class DegenerateAgreement(WisebeError):
    """Chance-corrected agreement is undefined because expected agreement is 1."""


class ConstantSequence(WisebeError):
    """Correlation input has zero variance."""


class MissingReferences(WisebeError):
    """A document provides fewer than two reference segmentations."""


class DuplicateLabel(WisebeError):
    """Two references or two systems of one document, two documents of one
    corpus, or two keys of one object in a structured document share a name."""


class UnknownFormat(WisebeError):
    """Unsupported report format name."""


# Failures of the input or the environment: JSON on stderr, never a traceback.
USER_ERRORS = (WisebeError, ValueError, OSError)
