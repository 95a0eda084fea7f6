"""AST node types for pipelines, statements, and expressions.

Every node carries a SourceLocation, declared once on ``Node`` and
passed by keyword. Locations are excluded from equality so that a
formatted-and-reparsed tree compares equal to the original; all
semantic fields participate.

Each class declares its fields as annotations and behaves as a
``dataclass(frozen=True)`` would, without the code ``dataclass`` would
generate for it at import. ``Node`` defines equality, hashing, the repr
and the frozen ``__setattr__``/``__delattr__`` once. Each class's
``__init__`` has the dataclass signature (its fields in order,
``location`` and ``output_location`` by keyword) and sets each field
through ``object.__setattr__``; all of them are compiled from one source
in one ``exec``. ``dataclasses.fields``, ``replace`` and
``is_dataclass`` work on every class: ``_DataclassAttribute`` makes its
metadata on first read, so importing this module does not import
``dataclasses``, nor ``inspect`` and the rest of what that loads.

The 23 statement classes are not written out one by one: each is built
from its row of ``STATEMENT_FORMS``, whose form text spells the
statement's syntax and names its fields in order. ``grammar.STATEMENTS``
is the same rows with each slot kind resolved, so a statement's fields
and its form are declared once.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from typing import Any, Optional

from anka.location import SourceLocation
from anka.values import Schema, ValueType, format_cell


# The fields a node takes by keyword and equality leaves out.
_LOCATIONS = ("location", "output_location")


# Each node class's stand-in, made on the first read of its metadata.
_STAND_INS: dict[type, type] = {}


class _DataclassAttribute:
    """A node class's ``__dataclass_fields__`` or ``__dataclass_params__``,
    which ``dataclasses.fields``, ``replace`` and ``is_dataclass`` read.
    The first read of either for a class applies ``dataclass(init=False,
    eq=False, repr=False)`` to a stand-in class with the same annotations,
    its locations keyword-only and not compared, and reads it from there."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, node: Optional[Node], cls: type) -> object:
        stand_in = _STAND_INS.get(cls)
        if stand_in is None:
            from dataclasses import dataclass, field

            namespace = {name: field(compare=False, kw_only=True)
                         for name in _LOCATIONS if name in cls._field_names}
            namespace.update(
                __annotations__={name: hint for base in reversed(cls.__mro__)
                                 for name, hint in vars(base).get("__annotations__", {}).items()},
                __module__=cls.__module__, __doc__=cls.__doc__,
            )
            stand_in = dataclass(init=False, eq=False, repr=False)(
                type(cls.__name__, (), namespace))
            _STAND_INS[cls] = stand_in
        return getattr(stand_in, self.name)


class Node:
    """A syntax tree node. Two nodes are equal when they are of the same
    class and their compared fields, all but the locations, are equal."""

    location: SourceLocation

    # The class's field names in order, and the ones equality compares.
    _field_names = ("location",)
    _compared_names = ()
    __match_args__ = ()
    __dataclass_fields__ = _DataclassAttribute()
    __dataclass_params__ = _DataclassAttribute()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._field_names += tuple(vars(cls).get("__annotations__", ()))
        cls._compared_names = cls.__match_args__ = tuple(
            name for name in cls._field_names if name not in _LOCATIONS)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared_names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{self.__class__.__qualname__}({shown})"


# --- Expressions -----------------------------------------------------------


class Expr(Node):
    """An expression, evaluated per row."""


class Literal(Expr):
    """A constant of one of the six value types."""

    # not Union[...]: the UNION statement's class is this module's Union
    value: int | str | Decimal | bool | datetime.date | datetime.datetime
    type: ValueType


class ColumnRef(Expr):
    """The value of a column in the current row."""

    name: str


class BinaryOp(Expr):
    """Arithmetic: + - * /"""

    op: str
    left: Expr
    right: Expr


class Comparison(Expr):
    """Relational: > >= < <= == !="""

    op: str
    left: Expr
    right: Expr


class BoolOp(Expr):
    """AND / OR, short-circuiting, left-associative."""

    op: str
    left: Expr
    right: Expr


class Not(Expr):
    """Boolean negation."""

    operand: Expr


class Neg(Expr):
    """Unary arithmetic negation."""

    operand: Expr


class Call(Expr):
    """Builtin function application, e.g. CONCAT(a, ", ")."""

    name: str
    args: tuple[Expr, ...]


# --- Statements ------------------------------------------------------------


class Statement(Node):
    """A statement in a STEP or a block."""


class AggregateSpec(Node):
    """One COMPUTE entry: fn(arg) AS alias. COUNT takes no argument."""

    fn: str
    arg: Optional[str]
    alias: str


def _statement(keyword: str, name: str, form: str) -> tuple[type, tuple]:
    """The class and form parts of one statement row. The class's fields
    are the form's ``field:kind`` words in order, each annotated ``Any``,
    which ``typing.get_type_hints`` resolves."""
    parts = tuple(tuple(word.split(":")) if ":" in word else word for word in form.split())
    cls = globals()[name] = type(name, (Statement,), {
        "__annotations__": {part[0]: Any for part in parts if isinstance(part, tuple)},
        "__doc__": f"{keyword} {form}",
        "__module__": __name__,
    })
    return cls, parts


# Keyword -> (statement class, form parts), from one row per statement,
# control flow included: (keyword, class name, form after the keyword).
# In a form, ``field:kind`` is the class's next field, filled from a slot
# of that kind (``grammar.SLOTS``); any other word is a keyword or an
# operator that must appear as written. Each form part is that word, or
# a (field, kind) pair.
STATEMENT_FORMS = {
    keyword: _statement(keyword, name, form) for keyword, name, form in [
        ("FILTER", "Filter", "source:dataset WHERE predicate:expression INTO target:target"),
        ("SELECT", "Select", "source:dataset COLUMNS columns:columns INTO target:target"),
        ("DISTINCT", "Distinct", "source:dataset INTO target:target"),
        ("MAP", "Map",
         "source:dataset WITH column:new_column => expr:expression INTO target:target"),
        ("RENAME", "Rename",
         "source:dataset COLUMN old_name:column TO new_name:new_column INTO target:target"),
        ("DROP", "Drop", "source:dataset COLUMN column:column INTO target:target"),
        ("ADD_COLUMN", "AddColumn",
         "source:dataset WITH column:new_column = value:literal INTO target:target"),
        ("AGGREGATE", "Aggregate",
         "source:dataset group_by:group_by COMPUTE computes:computes INTO target:target"),
        ("SORT", "Sort",
         "source:dataset BY column:column descending:direction INTO target:target"),
        ("LIMIT", "Limit", "source:dataset TO count:count INTO target:target"),
        ("SKIP", "Skip", "source:dataset FIRST count:count INTO target:target"),
        ("SLICE", "Slice", "source:dataset FROM start:count TO stop:count INTO target:target"),
        ("JOIN", "Join",
         "left:dataset WITH right:dataset ON left_key:column == right_key:column "
         "INTO target:target"),
        ("LEFT_JOIN", "LeftJoin",
         "left:dataset WITH right:dataset ON left_key:column == right_key:column "
         "INTO target:target"),
        ("UNION", "Union", "left:dataset WITH right:dataset INTO target:target"),
        ("READ", "Read", "path:path AS format:format schema:table INTO target:target"),
        ("WRITE", "Write", "source:dataset TO path:path AS format:format"),
        ("FETCH", "Fetch", "url:url schema:table INTO target:target"),
        ("POST", "Post", "source:dataset TO url:url"),
        ("IF", "If", "condition:expression THEN then_body:block else_body:else END_IF"),
        ("FOR_EACH", "ForEach", "var:row IN source:dataset DO body:block END_FOR"),
        ("WHILE", "While", "condition:expression DO body:block END_WHILE"),
        ("TRY", "Try", "body:block ON_ERROR handler:block END_TRY"),
    ]
}


# --- Pipeline --------------------------------------------------------------


class InputDecl(Node):
    """INPUT name: TABLE[...], a dataset the caller passes in."""

    name: str
    schema: Schema


class Step(Node):
    """STEP name: the statements of one named step, in order."""

    name: str
    body: tuple[Statement, ...]


class Pipeline(Node):
    """PIPELINE name: its inputs, steps and OUTPUT dataset."""

    name: str
    inputs: tuple[InputDecl, ...]
    steps: tuple[Step, ...]
    output: str
    output_location: SourceLocation


def _compile_inits(classes: list[type]) -> None:
    """Give each class the ``__init__`` that ``dataclass(frozen=True)``
    would generate, all compiled from one source in one ``exec``."""
    source = []
    for cls in classes:
        names = cls._field_names
        params = [*cls._compared_names, "*", *(name for name in names if name in _LOCATIONS)]
        sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        source.append(f"def {cls.__name__}(self, {', '.join(params)}):{sets}")
    namespace = {"__name__": __name__, "_set": object.__setattr__}
    exec("\n".join(source), namespace)
    for cls in classes:
        init = namespace[cls.__name__]
        init.__name__, init.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"
        cls.__init__ = init


_compile_inits([cls for cls in globals().values()
                if isinstance(cls, type) and issubclass(cls, Node)])


def statement_target(stmt: Statement) -> Optional[str]:
    """INTO target of a data-producing statement, else None."""
    return getattr(stmt, "target", None)


# --- Machine-readable dump -------------------------------------------------


def ast_to_dict(node: object) -> object:
    """Convert an AST into JSON-serializable dictionaries.

    Nodes become {"node": <ClassName>, ...fields...}; locations become
    {"line", "column", "offset"}; schemas become ordered field lists;
    literal payloads use their canonical text form alongside the type.
    """
    if isinstance(node, Literal):
        return {
            "node": "Literal",
            "type": node.type.value,
            "value": node.value if isinstance(node.value, (int, str)) else format_cell(node.value),
            "location": ast_to_dict(node.location),
        }
    if isinstance(node, Node):
        out: dict[str, object] = {"node": type(node).__name__}
        for name in node._field_names:
            if name != "location":
                out[name] = ast_to_dict(getattr(node, name))
        out["location"] = ast_to_dict(node.location)
        return out
    if isinstance(node, SourceLocation):
        return {"line": node.line, "column": node.column, "offset": node.offset}
    if isinstance(node, Schema):
        return [{"name": f.name, "type": f.type.value} for f in node.fields]
    if isinstance(node, tuple):
        return [ast_to_dict(item) for item in node]
    return node
