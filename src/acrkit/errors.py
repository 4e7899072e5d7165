"""Exception hierarchy shared across the toolkit.

Every exception carries a stable machine-readable ``code`` so callers (the
CLI in particular) can emit structured failure reports without parsing
message strings.
"""

from __future__ import annotations


class AcrError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class InvalidInputError(AcrError):
    code = "invalid-input"


class InvalidIntrinsicsError(AcrError):
    code = "invalid-intrinsics"


class InsufficientDataError(AcrError):
    code = "insufficient-data"


class DegenerateModelError(AcrError):
    code = "degenerate-model"


class DegenerateDirectionError(AcrError):
    code = "degenerate-direction"


class CheiralityError(AcrError):
    code = "cheirality-failure"


class AmbiguousNullspaceError(AcrError):
    code = "ambiguous-nullspace"


class MissingDepthError(AcrError):
    code = "missing-depth"


class EstimationFailureError(AcrError):
    code = "estimation-failure"


class DegenerateInitError(AcrError):
    code = "degenerate-init"


class InvalidSceneError(AcrError):
    code = "invalid-scene"


class EmptyObservationError(AcrError):
    code = "empty-observation"


class MissingInputError(AcrError):
    code = "missing-input"
