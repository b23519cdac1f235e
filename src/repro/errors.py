"""The consolidated user-facing exception hierarchy.

Every error the library deliberately raises at its public boundaries derives
from :class:`ReproError`, so ``except repro.errors.ReproError`` catches all of
them. Each class additionally inherits the builtin exception callers written
against earlier revisions expect (``ValueError``, ``RuntimeError``,
``OSError``), so pre-existing ``except``/``pytest.raises`` code keeps working
unchanged.

These live at the package root because they cross layers: the format layer
raises :class:`IntegrityError` and :class:`CodecError`, the dataset layer
catches them to quarantine leaves and raises :class:`InvalidRequestError` for
malformed queries, and the serve layer raises :class:`AdmissionRejected` and
counts integrity failures in its metrics snapshot.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "IntegrityError",
    "LeafUnavailableError",
    "PublishError",
    "AdmissionRejected",
    "CodecError",
    "InvalidRequestError",
]


class ReproError(Exception):
    """Base class of every exception this library raises on purpose."""


class IntegrityError(ReproError, ValueError):
    """A BAT file (or one of its sections) failed a structural or checksum test.

    Subclasses :class:`ValueError` so callers written against the
    pre-checksum format (``except ValueError``, ``pytest.raises(ValueError)``)
    keep working unchanged.

    ``section`` names what failed (``"header"``, ``"dictionary"``,
    ``"treelet 3"``, ...) and ``path`` the offending file, when known.
    """

    def __init__(self, message: str, *, section: str | None = None, path: str | None = None):
        super().__init__(message)
        self.section = section
        self.path = path


class LeafUnavailableError(ReproError, RuntimeError):
    """A leaf file a query plan needs cannot be used (missing or corrupt).

    Raised at the dataset boundary instead of letting a bare
    ``FileNotFoundError`` or :class:`IntegrityError` escape from deep inside
    the reader, so the message names the leaf file, its index, and — when
    queried through a time series — the timestep.
    """

    def __init__(self, message: str, *, leaf_index: int | None = None,
                 path: str | None = None):
        super().__init__(message)
        self.leaf_index = leaf_index
        self.path = path


class PublishError(ReproError, OSError):
    """Atomic publication of a file failed after every retry attempt.

    The target path is left untouched: either the previous version is still
    in place or the file never existed. No partially written file is visible.
    """


class AdmissionRejected(ReproError, RuntimeError):
    """The serve-layer scheduler refused a request because a queue bound was hit.

    Carries no partial state: the request was never enqueued. Clients are
    expected to back off and retry. (Re-exported from ``repro.serve`` for
    compatibility with code that imported it from there.)
    """

    def __init__(self, reason: str, queue_depth: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.queue_depth = queue_depth


class CodecError(ReproError, ValueError):
    """A column codec failed: unknown codec id, malformed encoded bytes, or a
    configuration that the codec cannot honor (e.g. delta+bitpack on floats).

    ``codec`` names the codec involved and ``column`` the attribute column,
    when known.
    """

    def __init__(self, message: str, *, codec: str | None = None, column: str | None = None):
        super().__init__(message)
        self.codec = codec
        self.column = column


class InvalidRequestError(ReproError, ValueError):
    """A query request is malformed (bad quality range, unknown neighbor engine,
    unknown column, inverted filter bounds, ...).

    Subclasses :class:`ValueError` so existing callers that guarded query
    parameters with ``except ValueError`` keep working.
    """
