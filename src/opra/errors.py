"""Exception hierarchy for the opra package.

Every error raised on purpose by this package derives from OpraError, so
callers can catch one type at the boundary.  The split below mirrors the
pipeline stages: loading, parsing, validation, evaluation.
"""

from __future__ import annotations

from typing import Optional


class OpraError(Exception):
    """Base class for all errors raised by this package."""


# --- loading -----------------------------------------------------------------

class GraphLoadError(OpraError):
    """Malformed graph or data-graph file."""


class DuplicateEntryError(GraphLoadError):
    """The same tuple key appears twice in one labelling."""


class UnknownNodeError(GraphLoadError):
    """A node name that is not part of the graph."""


class NameCollisionError(GraphLoadError):
    """Reserved or duplicate node / labelling name."""


# --- parsing -----------------------------------------------------------------

class QuerySyntaxError(OpraError):
    """Syntax error with line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# --- validation --------------------------------------------------------------

class ValidationError(OpraError):
    """Base class for semantic errors found before evaluation."""


def check_int(what: str, value, least: Optional[int] = None) -> None:
    """Raise `ValidationError` unless value is an int, not a bool, and
    >= least where least is given."""
    if isinstance(value, int) and not isinstance(value, bool) \
            and (least is None or value >= least):
        return
    at_least = "" if least is None else f" >= {least}"
    raise ValidationError(f"{what} must be an int{at_least}, not {value!r}")


class UnknownLabellingError(ValidationError):
    pass


class ArityMismatchError(ValidationError):
    pass


class PositionVarOutOfRangeError(ValidationError):
    pass


class PositionVarOutsideRegexError(ValidationError):
    pass


class ForwardOntologyReferenceError(ValidationError):
    pass


class DuplicateLabellingNameError(ValidationError):
    pass


class UnknownVariableError(ValidationError):
    pass


class RecursionDepthExceededError(ValidationError):
    """A definition nests deeper than `MAX_EVAL_DEPTH`."""


# --- evaluation --------------------------------------------------------------

class EvalError(OpraError):
    """Base class for errors raised while evaluating a query."""


class IndeterminateSumError(EvalError):
    """POS_INF + NEG_INF occurred in a sum."""


class ResourceExceededError(EvalError):
    """The solver's visited-state budget ran out.

    Carries the number of expanded states so callers can reason about how
    far the search got before giving up.
    """

    def __init__(self, message: str, expanded: int):
        super().__init__(message)
        self.expanded = expanded


class EnumerationCapExceededError(EvalError):
    """The brute-force oracle hit its enumeration cap."""
