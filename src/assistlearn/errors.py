"""Exception taxonomy for the collaborative-learning engine.

Every error raised by this package derives from :class:`AssistError` so callers
can catch one base type at a module boundary. Transport-level failures get
their own subtree under :class:`TransportError`.
"""


class AssistError(Exception):
    """Base class for all engine errors."""


# ---------------------------------------------------------------------------
# data handling
# ---------------------------------------------------------------------------

class MissingId(AssistError):
    """A requested sample id is absent from a partition."""


class UnknownColumn(AssistError):
    """A requested feature column does not exist."""


class OverlappingGroups(AssistError):
    """Column groups for a vertical split are not disjoint."""


class DuplicateId(AssistError):
    """A sample id occurs more than once."""


class MissingColumn(AssistError):
    """A CSV file lacks a required column."""


class NonNumericCell(AssistError):
    """A CSV feature/label cell could not be parsed as a number."""


# ---------------------------------------------------------------------------
# learners
# ---------------------------------------------------------------------------

class DimensionMismatch(AssistError):
    """Shapes of features, labels or model parameters are inconsistent."""


class NonFiniteLoss(AssistError):
    """Training diverged: loss or parameters stopped being finite."""


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

class CollationFailure(AssistError):
    """The orchestrator could not assemble a usable training id set."""


class StorageConflict(AssistError):
    """A (task, round) model slot was written twice."""


class UnknownRound(AssistError):
    """A request named a round with no recorded model or weights."""


class MissingTestRows(AssistError):
    """Prediction-time rows are absent from a module's partition."""


class ShapeMismatch(AssistError):
    """Exchanged arrays disagree on ids or width."""


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

class TransportError(AssistError):
    """Base class for wire-level failures."""


class NonFinitePayload(TransportError):
    """Payload contains NaN or infinity, which the wire format bans."""


class MalformedMessage(TransportError):
    """A line could not be parsed into a valid envelope."""


class UnsupportedVersion(TransportError):
    """Envelope version is not supported by this endpoint."""


class UnknownIdSet(TransportError):
    """An ``id_set`` names no id list that the peer holds for the task."""


class BindFailure(TransportError):
    """A server socket could not be bound."""


class RequestTimeout(TransportError):
    """A request did not complete within its deadline."""


class ConnectionRefused(TransportError):
    """The peer endpoint is not accepting connections."""
