"""Error and diagnostic types shared across the toolchain."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from anka.location import SourceLocation


class AnkaError(Exception):
    """Base class for all errors raised by this package."""


class TableError(AnkaError):
    """Invalid table construction: arity or cell-type violation."""


class IncomparableError(AnkaError):
    """Two values have no defined ordering (cross-type comparison)."""


class InputError(AnkaError):
    """Input tables handed to a pipeline do not match its declarations."""


class ParseError(AnkaError):
    """A syntax error with a precise source position.

    ``expected`` lists token descriptions the parser would have accepted
    at the error location; empty for lexical errors.
    """

    def __init__(
        self,
        message: str,
        location: SourceLocation,
        expected: tuple[str, ...] = (),
    ) -> None:
        self.message = message
        self.location = location
        self.expected = expected
        super().__init__(f"{location}: {message}")

    def to_dict(self) -> dict:
        return {
            "message": self.message,
            "line": self.location.line,
            "column": self.location.column,
            "expected": list(self.expected),
        }


class ValidationKind(str, enum.Enum):
    """Classification of static-analysis diagnostics."""

    UNKNOWN_DATASET = "UnknownDataset"
    DUPLICATE_BINDING = "DuplicateBinding"
    UNKNOWN_COLUMN = "UnknownColumn"
    TYPE_MISMATCH = "TypeMismatch"
    SCHEMA_MISMATCH = "SchemaMismatch"
    OUTPUT_UNDEFINED = "OutputUndefined"


class ValidationError(NamedTuple):
    """A single static-analysis diagnostic. Not an exception: the
    validator collects these and returns them as a list."""

    kind: ValidationKind
    message: str
    location: SourceLocation

    def __str__(self) -> str:
        return f"{self.location}: {self.kind.value}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "message": self.message,
            "line": self.location.line,
            "column": self.location.column,
        }


class ExecutionError(AnkaError):
    """Runtime failure while executing a pipeline statement."""

    kind = "ExecutionError"

    def __init__(self, message: str, location: Optional[SourceLocation] = None) -> None:
        self.message = message
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")

    def at(self, location: SourceLocation) -> "ExecutionError":
        """Return a copy carrying ``location`` if none is attached yet,
        with every attribute of its own, such as an HttpError's status."""
        if self.location is not None:
            return self
        located = type(self).__new__(type(self))
        located.__dict__.update(self.__dict__)
        ExecutionError.__init__(located, self.message, location)
        return located


class DivisionByZero(ExecutionError):
    kind = "DivisionByZero"


class IoError(ExecutionError):
    kind = "IoError"


class HttpError(ExecutionError):
    kind = "HttpError"

    def __init__(
        self,
        message: str,
        location: Optional[SourceLocation] = None,
        status: Optional[int] = None,
    ) -> None:
        super().__init__(message, location)
        self.status = status


class ConversionError(ExecutionError):
    kind = "ConversionError"


class AssertionFailed(ExecutionError):
    kind = "AssertionFailed"
