"""Exception hierarchy shared by all uapkit modules."""

import json


class UapkitError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(UapkitError, ValueError):
    """An argument violates a documented precondition (shape, range, emptiness)."""


class PreconditionError(UapkitError, ValueError):
    """A semantic precondition failed, e.g. the point is not correctly classified."""


class DegenerateEncodingError(UapkitError, ArithmeticError):
    """The pre-normalization encoder output was (numerically) zero."""


class IntegrityError(UapkitError, RuntimeError):
    """On-disk content does not match its recorded hash or framing."""


class CorruptDatasetError(UapkitError, RuntimeError):
    """Loaded dataset violates its structural invariants."""


class DegenerateDatasetError(UapkitError, RuntimeError):
    """Generated dataset failed the clean-retrieval floor check."""


# what reading a JSON manifest or sidecar with invalid text, a missing key or
# a wrongly typed field raises; loaders turn these into IntegrityError
MALFORMED_JSON_ERRORS = (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                         TypeError, AttributeError)
