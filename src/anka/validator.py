"""Static analysis: name resolution, binding uniqueness, schema
inference through every operation, and expression type checking.

Validation walks statements in textual order and collects every
diagnostic instead of stopping at the first. Bindings whose schema
could not be inferred are poisoned; later references to them are not
re-reported, which keeps error lists proportional to actual defects.

Scoping rules for control flow:

* IF: a dataset bound inside a branch is visible afterwards only when
  both branches bind it with the same schema.
* TRY: same intersection rule for the body and the ON_ERROR handler,
  since either side may be the one that ran.
* FOR_EACH / WHILE: bindings are loop-local and never escape; each
  iteration starts from a fresh copy of the loop body's scope.
* IF and WHILE conditions are scalar: column references in them are
  legal only inside a FOR_EACH body, where they resolve against the
  iterated dataset's row.

The walk also finds, for each top-level statement, the bound names it is
the last to read or bind: live-variable analysis over the statement list
(Aho, Lam, Sethi and Ullman, "Compilers", 2nd ed., section 9.2.5). A read
or bind anywhere inside a control statement counts against that whole
top-level statement, so a name stays live through it. The interpreter
releases each such name once its statement has run.
"""

from __future__ import annotations

from typing import Optional

from anka import ast_nodes as ast
from anka.builtins import AGGREGATES, BUILTINS
from anka.errors import AnkaError, ValidationError, ValidationKind
from anka.grammar import FORMATS, NODE_KEYWORDS
from anka.location import SourceLocation
from anka.parser import MAX_NESTING_DEPTH
from anka.values import NUMERIC_TYPES, Field, Schema, ValueType, cell_matches, clip_text

_MEMO = "_validation"

# A scope: each visible dataset name with its schema, None when
# inference failed and the name is poisoned.
Env = dict[str, Optional[Schema]]


class ValidationResult:
    """Outcome of ``validate``: the final bindings, the diagnostics, and
    the schemas and types each statement resolved, which the interpreter
    runs on.

    ``environment`` maps each name visible after the last statement to
    its schema, with None for a poisoned one, in the order they were bound.
    ``sources`` maps a statement that reads datasets to their schemas, in
    the order it names them; ``outputs`` maps a data statement to the
    schema it binds; ``types`` maps each arithmetic node (``BinaryOp`` and
    ``Neg``) to its result type, which picks its kernel; ``dies`` maps a
    top-level statement to the INTO names it is the last to read or bind,
    in the order they were first seen. Input names and the OUTPUT name
    never die, and the last statement has no entry, since the end of the
    run releases every name. All four are keyed by ``id(node)``, not by
    the node: nodes that compare equal (locations take no part in
    equality) can see different schemas, as the same text in a TRY body
    and in its handler can.
    """

    def __init__(
        self,
        environment: Env,
        errors: list[ValidationError],
        output_schema: Optional[Schema],
        sources: dict[int, list[Optional[Schema]]],
        outputs: dict[int, Optional[Schema]],
        types: dict[int, ValueType],
        dies: dict[int, tuple[str, ...]],
    ) -> None:
        self.environment = environment
        self.errors = errors
        self.output_schema = output_schema
        self.sources = sources
        self.outputs = outputs
        self.types = types
        self.dies = dies

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({shown})"

    @property
    def ok(self) -> bool:
        return not self.errors


class ValidationException(AnkaError):
    """Raised by ``typecheck_expr`` and by ``run_pipeline`` on a pipeline
    that does not validate; ``validate`` itself never raises."""

    def __init__(self, errors: list[ValidationError]) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in errors))


def validate(pipeline: ast.Pipeline) -> ValidationResult:
    """Check a parsed pipeline. Returns the final environment together
    with all diagnostics found; an empty error list means well-typed.

    The result is kept on the pipeline object, outside its node
    fields, so equality and ``ast_to_dict`` never see it; validating the
    same object again, as ``run_pipeline`` does, returns the same result.
    """
    memo = pipeline.__dict__.get(_MEMO)
    if memo is not None:
        return memo
    checker = _Checker()
    env: Env = {}
    for decl in pipeline.inputs:
        if decl.name in env:
            checker.error(
                ValidationKind.DUPLICATE_BINDING,
                f"input '{decl.name}' is declared twice",
                decl.location,
            )
            continue
        env[decl.name] = decl.schema

    for step in pipeline.steps:
        for stmt in step.body:
            checker.top = stmt
            env = checker.check_statement(stmt, env, row_schema=None)

    output_schema: Optional[Schema] = None
    if pipeline.output not in env:
        checker.error(
            ValidationKind.OUTPUT_UNDEFINED,
            f"OUTPUT names '{pipeline.output}', which is never bound",
            pipeline.output_location,
        )
    else:
        output_schema = env[pipeline.output]

    last = checker.last
    last.pop(pipeline.output, None)
    for decl in pipeline.inputs:
        last.pop(decl.name, None)
    dies: dict[int, tuple[str, ...]] = {}
    for name, stmt in last.items():
        if stmt is not checker.top:  # the end of the run releases the rest
            key = id(stmt)
            dies[key] = dies.get(key, ()) + (name,)
    result = ValidationResult(
        env,
        checker.errors,
        output_schema,
        checker.sources,
        checker.outputs,
        checker.types,
        dies,
    )
    pipeline.__dict__[_MEMO] = result
    return result


def typecheck_expr(expr: ast.Expr, schema: Optional[Schema]) -> ValueType:
    """Type of an expression against a row schema (None outside row
    scope). Raises ValidationException on any diagnostic."""
    checker = _Checker()
    result = checker.typecheck(expr, schema, 0)
    if checker.errors:
        raise ValidationException(checker.errors)
    assert result is not None
    return result


class _Checker:
    def __init__(self) -> None:
        self.errors: list[ValidationError] = []
        self.sources: dict[int, list[Optional[Schema]]] = {}
        self.outputs: dict[int, Optional[Schema]] = {}
        self.types: dict[int, ValueType] = {}
        # the top-level statement being checked, and the last one to
        # read or bind each name
        self.top: Optional[ast.Statement] = None
        self.last: dict[str, Optional[ast.Statement]] = {}
        # statements around the one being checked; with the expression
        # nodes above a node, the levels the parser bounds
        self.level = 0
        self.too_deep = False

    def error(self, kind: ValidationKind, message: str, location: SourceLocation) -> None:
        self.errors.append(ValidationError(kind, message, location))

    def _too_deep(self, location: SourceLocation) -> None:
        """A node nested past ``MAX_NESTING_DEPTH`` levels, as only the
        AST API can build: it is not descended into, which keeps the walk
        within the stack. The first such node is reported."""
        if not self.too_deep:
            self.too_deep = True
            self.error(ValidationKind.TYPE_MISMATCH, "nesting too deep", location)

    # -- statement walking --------------------------------------------------

    def check_block(
        self,
        body: tuple[ast.Statement, ...],
        env: Env,
        row_schema: Optional[Schema],
    ) -> Env:
        """Check ``body`` in order. Its bindings are written into ``env``,
        which the caller hands over: a branch or loop body gets a copy."""
        self.level += 1
        for stmt in body:
            env = self.check_statement(stmt, env, row_schema)
        self.level -= 1
        return env

    def check_statement(
        self,
        stmt: ast.Statement,
        env: Env,
        row_schema: Optional[Schema],
    ) -> Env:
        control = _CONTROL.get(type(stmt))
        if self.level >= MAX_NESTING_DEPTH:
            self._too_deep(stmt.location)
            if control is not None:
                return env
            schema = None
        elif control is not None:
            return control(self, stmt, env, row_schema)
        else:
            schema = self.infer(stmt, env)
        target = ast.statement_target(stmt)
        if target is None:  # WRITE and POST bind nothing
            return env
        self.outputs[id(stmt)] = schema
        self.last[target] = self.top
        if target in env:
            self.error(
                ValidationKind.DUPLICATE_BINDING,
                f"'{target}' is already bound and cannot be rebound",
                stmt.location,
            )
            return env
        env[target] = schema
        return env

    def _check_if(self, stmt: ast.If, env: Env, row_schema: Optional[Schema]) -> Env:
        self._check_condition(stmt.condition, row_schema, "IF")
        then_env = self.check_block(stmt.then_body, dict(env), row_schema)
        else_env = self.check_block(stmt.else_body, dict(env), row_schema)
        return self._merge_branches(stmt, env, then_env, else_env, "the IF branches")

    def _check_try(self, stmt: ast.Try, env: Env, row_schema: Optional[Schema]) -> Env:
        body_env = self.check_block(stmt.body, dict(env), row_schema)
        handler_env = self.check_block(stmt.handler, dict(env), row_schema)
        return self._merge_branches(stmt, env, body_env, handler_env, "TRY and ON_ERROR")

    def _merge_branches(
        self,
        stmt: ast.Statement,
        env: Env,
        first: Env,
        second: Env,
        where: str,
    ) -> Env:
        """Bindings after one of two branches ran: a name both bind is
        bound after them, with no schema where the two disagree or where
        either branch left it poisoned, whichever branch comes first."""
        merged = dict(env)
        for name, schema in first.items():
            if name in env or name not in second:
                continue
            other = second[name]
            if schema != other:
                if schema is not None and other is not None:
                    self.error(
                        ValidationKind.SCHEMA_MISMATCH,
                        f"'{name}' is bound with different schemas in {where}",
                        stmt.location,
                    )
                schema = None
            merged[name] = schema
        return merged

    def _check_for_each(self, stmt: ast.ForEach, env: Env, row_schema: Optional[Schema]) -> Env:
        source_schema = self._resolve(stmt, stmt.source, env)
        self.check_block(stmt.body, dict(env), source_schema)
        return env

    def _check_while(self, stmt: ast.While, env: Env, row_schema: Optional[Schema]) -> Env:
        self._check_condition(stmt.condition, row_schema, "WHILE")
        self.check_block(stmt.body, dict(env), row_schema)
        return env

    def _check_condition(
        self, condition: ast.Expr, row_schema: Optional[Schema], construct: str
    ) -> None:
        ctype = self.typecheck(condition, row_schema, self.level + 1)
        if ctype is not None and ctype is not ValueType.BOOL:
            self.error(
                ValidationKind.TYPE_MISMATCH,
                f"{construct} condition must be BOOL, got {ctype.value}",
                condition.location,
            )

    def _resolve(self, stmt: ast.Statement, name: str, env: Env) -> Optional[Schema]:
        """Schema of a dataset ``stmt`` reads, recorded as its next source."""
        self.last[name] = self.top
        schema = None
        if name in env:
            schema = env[name]
        else:
            self.error(
                ValidationKind.UNKNOWN_DATASET,
                f"unknown dataset '{name}'",
                stmt.location,
            )
        self.sources.setdefault(id(stmt), []).append(schema)
        return schema

    # -- per-statement schema inference --------------------------------------

    def infer(self, stmt: ast.Statement, env: Env) -> Optional[Schema]:
        """Schema a data, WRITE or POST statement yields, by its rule in
        ``_RULES`` applied to the schemas of the datasets it reads; None
        when any is unknown, ``stmt`` is no statement of the language or one
        of its typed fields holds a value of another Python type."""
        rule, fields, typed = _RULES.get(type(stmt), (None, (), ()))
        if rule is None:
            self.error(ValidationKind.TYPE_MISMATCH,
                       f"unknown statement {type(stmt).__name__}", stmt.location)
            return None
        if isinstance(stmt, (ast.Read, ast.Write)) and stmt.format not in FORMATS.values():
            self.error(ValidationKind.TYPE_MISMATCH,
                       f"unknown table format {clip_text(repr(stmt.format))}", stmt.location)
        ok = True
        for field, expected in typed:
            value = getattr(stmt, field)
            if type(value) is not expected:
                ok = False
                self.error(ValidationKind.TYPE_MISMATCH,
                           f"{NODE_KEYWORDS[type(stmt)]} {field} must be {expected.__name__}, "
                           f"got {clip_text(repr(value))}", stmt.location)
        sources = [self._resolve(stmt, getattr(stmt, field), env) for field in fields]
        if not ok or any(schema is None for schema in sources):
            return None
        return rule(self, stmt, *sources)

    def _known(self, schema: Schema, name: str, source: str, location: SourceLocation) -> bool:
        if schema.has(name):
            return True
        self.error(
            ValidationKind.UNKNOWN_COLUMN,
            f"unknown column '{name}' in '{source}'",
            location,
        )
        return False

    def _columns(
        self, stmt, schema: Schema, names: tuple[str, ...], verb: str, taken: set[str]
    ) -> tuple[list[Field], bool]:
        """The fields of ``names``, each known and not yet in ``taken``, and
        whether every name was."""
        fields = []
        ok = True
        for name in names:
            if not self._known(schema, name, stmt.source, stmt.location):
                ok = False
            elif name in taken:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"column '{name}' {verb} twice",
                    stmt.location,
                )
                ok = False
            else:
                taken.add(name)
                fields.append(schema.fields[schema.index_of(name)])
        return fields, ok

    def _non_negative(self, stmt, what: str, shown: object, *counts: int) -> None:
        if min(counts) < 0:
            self.error(
                ValidationKind.TYPE_MISMATCH,
                f"{NODE_KEYWORDS[type(stmt)]} {what} must be non-negative, got {shown}",
                stmt.location,
            )

    def _declared(self, stmt) -> Schema:
        return stmt.schema

    def _same(self, stmt, schema: Schema) -> Schema:
        return schema

    def _filter(self, stmt: ast.Filter, schema: Schema) -> Schema:
        self._check_condition(stmt.predicate, schema, "WHERE")
        return schema

    def _sort(self, stmt: ast.Sort, schema: Schema) -> Schema:
        self._known(schema, stmt.column, stmt.source, stmt.location)
        return schema

    def _limit(self, stmt, schema: Schema) -> Schema:
        self._non_negative(stmt, "count", stmt.count, stmt.count)
        return schema

    def _slice(self, stmt: ast.Slice, schema: Schema) -> Schema:
        shown = f"FROM {stmt.start} TO {stmt.stop}"
        self._non_negative(stmt, "bounds", shown, stmt.start, stmt.stop)
        return schema

    def _select(self, stmt: ast.Select, schema: Schema) -> Optional[Schema]:
        fields, ok = self._columns(stmt, schema, stmt.columns, "selected", set())
        return self._output_schema(stmt, fields) if ok else None

    def _append(self, stmt, schema: Schema) -> Optional[Schema]:
        """MAP and ADD_COLUMN: one new column after the source's."""
        if schema.has(stmt.column):
            self.error(
                ValidationKind.SCHEMA_MISMATCH,
                f"{NODE_KEYWORDS[type(stmt)]} cannot overwrite existing column '{stmt.column}'",
                stmt.location,
            )
            return None
        value = stmt.expr if isinstance(stmt, ast.Map) else stmt.value
        vtype = self.typecheck(value, schema, self.level + 1)
        if vtype is None:
            return None
        return schema.with_field(Field(stmt.column, vtype))

    def _rename(self, stmt: ast.Rename, schema: Schema) -> Optional[Schema]:
        if not self._known(schema, stmt.old_name, stmt.source, stmt.location):
            return None
        if stmt.new_name != stmt.old_name and schema.has(stmt.new_name):
            self.error(
                ValidationKind.SCHEMA_MISMATCH,
                f"cannot rename to '{stmt.new_name}': column already exists",
                stmt.location,
            )
            return None
        return schema.renamed(stmt.old_name, stmt.new_name)

    def _drop(self, stmt: ast.Drop, schema: Schema) -> Optional[Schema]:
        if not self._known(schema, stmt.column, stmt.source, stmt.location):
            return None
        if len(schema) == 1:
            self.error(
                ValidationKind.SCHEMA_MISMATCH,
                "cannot drop the only column of a table",
                stmt.location,
            )
            return None
        return schema.without(stmt.column)

    def _aggregate(self, stmt: ast.Aggregate, schema: Schema) -> Optional[Schema]:
        taken: set[str] = set()
        fields, ok = self._columns(stmt, schema, stmt.group_by, "grouped", taken)
        for spec in stmt.computes:
            result_type = self._aggregate_result_type(spec, schema, stmt.source)
            if result_type is None:
                ok = False
            elif spec.alias in taken:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"duplicate aggregate output column '{spec.alias}'",
                    spec.location,
                )
                ok = False
            else:
                taken.add(spec.alias)
                fields.append(Field(spec.alias, result_type))
        return self._output_schema(stmt, fields) if ok else None

    def _output_schema(self, stmt, fields: list[Field]) -> Optional[Schema]:
        """The schema of SELECT's or AGGREGATE's ``fields``; only the AST
        API can build one that names no column."""
        if not fields:
            self.error(
                ValidationKind.SCHEMA_MISMATCH,
                f"{NODE_KEYWORDS[type(stmt)]} yields no column",
                stmt.location,
            )
            return None
        return Schema(fields)

    def _aggregate_result_type(
        self, spec: ast.AggregateSpec, schema: Schema, source: str
    ) -> Optional[ValueType]:
        given = 0 if spec.arg is None else 1
        function = self._signature(AGGREGATES, "aggregate function", spec.fn, given, spec.location)
        if function is None:
            return None
        if not given:
            return function.result
        if not self._known(schema, spec.arg, source, spec.location):
            return None
        arg_type = schema.type_of(spec.arg)
        (allowed,) = function.params
        if arg_type not in allowed:
            message = (f"{spec.fn} requires a numeric column, '{spec.arg}' is {arg_type.value}"
                       if allowed is NUMERIC_TYPES
                       else f"{spec.fn} cannot aggregate a {arg_type.value} column")
            self.error(ValidationKind.TYPE_MISMATCH, message, spec.location)
            return None
        return function.result or arg_type

    def _join(self, stmt, left: Schema, right: Schema) -> Optional[Schema]:
        # both keys are checked, so both can be reported
        ok = self._known(left, stmt.left_key, stmt.left, stmt.location)
        if not self._known(right, stmt.right_key, stmt.right, stmt.location) or not ok:
            return None
        lt = left.type_of(stmt.left_key)
        rt = right.type_of(stmt.right_key)
        if lt is not rt and not (lt in NUMERIC_TYPES and rt in NUMERIC_TYPES):
            self.error(
                ValidationKind.TYPE_MISMATCH,
                f"join keys have incomparable types {lt.value} and {rt.value}",
                stmt.location,
            )
            return None
        fields = list(left.fields)
        for f in right.fields:
            if f.name == stmt.right_key:
                continue
            if left.has(f.name):
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"join would duplicate column name '{f.name}'",
                    stmt.location,
                )
                ok = False
                continue
            fields.append(f)
        return Schema(fields) if ok else None

    def _union(self, stmt: ast.Union, left: Schema, right: Schema) -> Optional[Schema]:
        if left != right:
            self.error(
                ValidationKind.SCHEMA_MISMATCH,
                f"UNION requires identical schemas, got {left!r} and {right!r}",
                stmt.location,
            )
            return None
        return left

    # -- expression typing ----------------------------------------------------

    def typecheck(
        self, expr: ast.Expr, schema: Optional[Schema], depth: int
    ) -> Optional[ValueType]:
        """Type of ``expr``, which sits under ``depth`` levels:
        enclosing statements and expression nodes."""
        if depth >= MAX_NESTING_DEPTH:
            self._too_deep(expr.location)
            return None
        depth += 1
        if isinstance(expr, ast.Literal):
            # only the AST API can build a literal that its type does not hold
            if expr.value is None or not cell_matches(expr.value, expr.type):
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"literal {clip_text(repr(expr.value))} is not of type {expr.type.value}",
                    expr.location,
                )
                return None
            return expr.type
        if isinstance(expr, ast.ColumnRef):
            if schema is None:
                self.error(
                    ValidationKind.UNKNOWN_COLUMN,
                    f"column '{expr.name}' referenced outside row scope",
                    expr.location,
                )
                return None
            if not schema.has(expr.name):
                self.error(
                    ValidationKind.UNKNOWN_COLUMN,
                    f"unknown column '{expr.name}'",
                    expr.location,
                )
                return None
            return schema.type_of(expr.name)
        if isinstance(expr, ast.Neg):
            inner = self.typecheck(expr.operand, schema, depth)
            if inner is None:
                return None
            if inner not in NUMERIC_TYPES:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"unary '-' requires INT or DECIMAL, got {inner.value}",
                    expr.location,
                )
                return None
            self.types[id(expr)] = inner
            return inner
        if isinstance(expr, ast.BinaryOp):
            left = self.typecheck(expr.left, schema, depth)
            right = self.typecheck(expr.right, schema, depth)
            if left is None or right is None:
                return None
            if left not in NUMERIC_TYPES or right not in NUMERIC_TYPES:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"'{expr.op}' requires numeric operands, "
                    f"got {left.value} and {right.value}",
                    expr.location,
                )
                return None
            both_int = left is ValueType.INT and right is ValueType.INT
            result = ValueType.INT if both_int else ValueType.DECIMAL
            self.types[id(expr)] = result
            return result
        if isinstance(expr, ast.Comparison):
            left = self.typecheck(expr.left, schema, depth)
            right = self.typecheck(expr.right, schema, depth)
            if left is None or right is None:
                return None
            comparable = left is right or {left, right} <= NUMERIC_TYPES
            if not comparable:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"cannot compare {left.value} with {right.value}",
                    expr.location,
                )
                return None
            return ValueType.BOOL
        if isinstance(expr, ast.BoolOp):
            ok = True
            for side in (expr.left, expr.right):
                stype = self.typecheck(side, schema, depth)
                if stype is None:
                    ok = False
                elif stype is not ValueType.BOOL:
                    self.error(
                        ValidationKind.TYPE_MISMATCH,
                        f"{expr.op} requires BOOL operands, got {stype.value}",
                        side.location,
                    )
                    ok = False
            return ValueType.BOOL if ok else None
        if isinstance(expr, ast.Not):
            inner = self.typecheck(expr.operand, schema, depth)
            if inner is None:
                return None
            if inner is not ValueType.BOOL:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"NOT requires a BOOL operand, got {inner.value}",
                    expr.location,
                )
                return None
            return ValueType.BOOL
        if isinstance(expr, ast.Call):
            return self._typecheck_call(expr, schema, depth)
        # only the AST API can build a node that is no expression of the language
        self.error(ValidationKind.TYPE_MISMATCH,
                   f"unknown expression {type(expr).__name__}", expr.location)
        return None

    def _signature(self, functions: dict, what: str, name: str, given: int,
                   location: SourceLocation):
        """``name``'s row in ``functions`` if it takes ``given`` arguments;
        else None, with an unknown ``what`` or a wrong count reported."""
        function = functions.get(name)
        if function is not None and len(function.params) == given:
            return function
        message = (f"unknown {what} '{name}'" if function is None
                   else f"{name} takes {len(function.params)} argument(s), got {given}")
        self.error(ValidationKind.TYPE_MISMATCH, message, location)
        return None

    def _typecheck_call(
        self, expr: ast.Call, schema: Optional[Schema], depth: int
    ) -> Optional[ValueType]:
        builtin = self._signature(BUILTINS, "function", expr.name, len(expr.args), expr.location)
        if builtin is None:
            if expr.name not in BUILTINS:  # an unknown function's arguments are typed still
                for arg in expr.args:
                    self.typecheck(arg, schema, depth)
            return None
        ok = True
        for arg, allowed in zip(expr.args, builtin.params):
            atype = self.typecheck(arg, schema, depth)
            if atype is None:
                ok = False
                continue
            if allowed is not None and atype not in allowed:
                names = "/".join(sorted(t.value for t in allowed))
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"{expr.name} expects {names}, got {atype.value}",
                    arg.location,
                )
                ok = False
        return builtin.result if ok else None


_CONTROL = {
    ast.If: _Checker._check_if,
    ast.ForEach: _Checker._check_for_each,
    ast.While: _Checker._check_while,
    ast.Try: _Checker._check_try,
}


# The Python type a statement field filled from a slot of each of these
# kinds must hold: the parser gives it no other, but the AST API can.
# ``type(value) is int`` also keeps a bool out of a count.
_SLOT_TYPES = {"count": int, "direction": bool, "literal": ast.Literal}


def _form_fields(node: type) -> list[tuple[str, str]]:
    """A statement's (field, slot kind) pairs, in the order of its form."""
    return [part for part in ast.STATEMENT_FORMS[NODE_KEYWORDS[node]][1]
            if isinstance(part, tuple)]


# Each data, WRITE or POST statement's rule, with the fields it reads
# datasets from and its fields that must hold one Python type, with it.
_RULES = {node: (
    rule,
    tuple(field for field, kind in _form_fields(node) if kind == "dataset"),
    tuple((field, _SLOT_TYPES[kind]) for field, kind in _form_fields(node) if kind in _SLOT_TYPES),
) for node, rule in {
    ast.Read: _Checker._declared,
    ast.Fetch: _Checker._declared,
    ast.Filter: _Checker._filter,
    ast.Distinct: _Checker._same,
    ast.Sort: _Checker._sort,
    ast.Limit: _Checker._limit,
    ast.Skip: _Checker._limit,
    ast.Slice: _Checker._slice,
    ast.Select: _Checker._select,
    ast.Map: _Checker._append,
    ast.AddColumn: _Checker._append,
    ast.Rename: _Checker._rename,
    ast.Drop: _Checker._drop,
    ast.Aggregate: _Checker._aggregate,
    ast.Join: _Checker._join,
    ast.LeftJoin: _Checker._join,
    ast.Union: _Checker._union,
    ast.Write: _Checker._same,
    ast.Post: _Checker._same,
}.items()}
