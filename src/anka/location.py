"""Source positions used by tokens, AST nodes, and diagnostics."""

from __future__ import annotations


class SourceLocation:
    """A position in pipeline source text.

    ``line`` and ``column`` are 1-based, ``offset`` is a 0-based byte
    offset into the source. A location is immutable, and compares,
    hashes and prints by those three numbers alone.

    ``SourceLocation.deferred`` makes a location that holds a table (an
    object whose ``position(index)`` returns the three numbers; the
    parser's is its ``lexer.TokenStream``) and an index into it (a token
    index), and asks the table on the first read of any of them: the
    parser gives every node a location, and only diagnostics read one.
    """

    __slots__ = ("_line", "_column", "_offset", "_table", "_index")

    def __init__(self, line: int, column: int, offset: int = 0) -> None:
        self._line = line
        self._column = column
        self._offset = offset
        self._table = None

    @staticmethod
    def deferred(table, index: int) -> SourceLocation:
        loc = _new(SourceLocation)
        loc._table = table
        loc._index = index
        return loc

    def _resolve(self) -> tuple[int, int, int]:
        table = self._table
        if table is not None:
            self._line, self._column, self._offset = table.position(self._index)
            self._table = None
        return self._line, self._column, self._offset

    @property
    def line(self) -> int:
        return self._resolve()[0]

    @property
    def column(self) -> int:
        return self._resolve()[1]

    @property
    def offset(self) -> int:
        return self._resolve()[2]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SourceLocation:
            return NotImplemented
        return self._resolve() == other._resolve()

    def __hash__(self) -> int:
        return hash(self._resolve())

    def __repr__(self) -> str:
        line, column, offset = self._resolve()
        return f"SourceLocation(line={line!r}, column={column!r}, offset={offset!r})"

    def __str__(self) -> str:
        line, column, _ = self._resolve()
        return f"{line}:{column}"


_new = object.__new__

UNKNOWN_LOCATION = SourceLocation(line=1, column=1, offset=0)
