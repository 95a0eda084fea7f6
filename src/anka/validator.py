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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from anka import ast_nodes as ast
from anka.builtins import BUILTINS
from anka.errors import AnkaError, ValidationError, ValidationKind
from anka.location import SourceLocation
from anka.values import NUMERIC_TYPES, Field, Schema, ValueType

_MINMAX_TYPES = NUMERIC_TYPES | {ValueType.STRING, ValueType.DATE, ValueType.DATETIME}

_MEMO = "_validation"

PROVENANCE_INPUT = "INPUT"
PROVENANCE_INTO = "INTO"


@dataclass(frozen=True)
class Binding:
    """A dataset visible in the environment; schema is None when
    inference failed and the binding is poisoned."""

    schema: Optional[Schema]
    provenance: str
    location: SourceLocation


class ValidationResult:
    """Outcome of ``validate``: the final bindings, the diagnostics, and
    the schemas each statement resolved, which the interpreter runs on.

    ``sources`` maps a statement that reads datasets to their schemas, in
    the order it names them; ``outputs`` maps a data statement to the
    schema it binds. Both are keyed by ``id(stmt)``, not by the statement:
    statements that compare equal (locations take no part in equality)
    can see different schemas, as the same text in a TRY body and in its
    handler can.
    """

    def __init__(
        self,
        environment: dict[str, Binding],
        errors: list[ValidationError],
        output_schema: Optional[Schema],
        sources: dict[int, list[Optional[Schema]]],
        outputs: dict[int, Optional[Schema]],
    ) -> None:
        self.environment = environment
        self.errors = errors
        self.output_schema = output_schema
        self.sources = sources
        self.outputs = outputs

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

    The result is kept on the pipeline object, outside its dataclass
    fields, so equality and ``ast_to_dict`` never see it; validating the
    same object again, as ``run_pipeline`` does, returns the same result.
    """
    memo = pipeline.__dict__.get(_MEMO)
    if memo is not None:
        return memo
    checker = _Checker()
    env: dict[str, Binding] = {}
    for decl in pipeline.inputs:
        if decl.name in env:
            checker.error(
                ValidationKind.DUPLICATE_BINDING,
                f"input '{decl.name}' is declared twice",
                decl.location,
            )
            continue
        env[decl.name] = Binding(decl.schema, PROVENANCE_INPUT, decl.location)

    for step in pipeline.steps:
        env = checker.check_block(step.body, env, row_schema=None)

    output_schema: Optional[Schema] = None
    if pipeline.output not in env:
        checker.error(
            ValidationKind.OUTPUT_UNDEFINED,
            f"OUTPUT names '{pipeline.output}', which is never bound",
            pipeline.output_location,
        )
    else:
        output_schema = env[pipeline.output].schema

    result = ValidationResult(
        env, checker.errors, output_schema, checker.sources, checker.outputs
    )
    pipeline.__dict__[_MEMO] = result
    return result


def typecheck_expr(expr: ast.Expr, schema: Optional[Schema]) -> ValueType:
    """Type of an expression against a row schema (None outside row
    scope). Raises ValidationException on any diagnostic."""
    checker = _Checker()
    result = checker.typecheck(expr, schema)
    if checker.errors:
        raise ValidationException(checker.errors)
    assert result is not None
    return result


class _Checker:
    def __init__(self) -> None:
        self.errors: list[ValidationError] = []
        self.sources: dict[int, list[Optional[Schema]]] = {}
        self.outputs: dict[int, Optional[Schema]] = {}

    def error(self, kind: ValidationKind, message: str, location: SourceLocation) -> None:
        self.errors.append(ValidationError(kind, message, location))

    # -- statement walking --------------------------------------------------

    def check_block(
        self,
        body: tuple[ast.Statement, ...],
        env: dict[str, Binding],
        row_schema: Optional[Schema],
    ) -> dict[str, Binding]:
        for stmt in body:
            env = self.check_statement(stmt, env, row_schema)
        return env

    def check_statement(
        self,
        stmt: ast.Statement,
        env: dict[str, Binding],
        row_schema: Optional[Schema],
    ) -> dict[str, Binding]:
        if isinstance(stmt, ast.If):
            return self._check_if(stmt, env, row_schema)
        if isinstance(stmt, ast.ForEach):
            return self._check_for_each(stmt, env, row_schema)
        if isinstance(stmt, ast.While):
            return self._check_while(stmt, env, row_schema)
        if isinstance(stmt, ast.Try):
            return self._check_try(stmt, env, row_schema)
        if isinstance(stmt, (ast.Write, ast.Post)):
            self._resolve(stmt, stmt.source, env)
            return env

        schema = self.infer(stmt, env)
        self.outputs[id(stmt)] = schema
        target = ast.statement_target(stmt)
        assert target is not None
        if target in env:
            self.error(
                ValidationKind.DUPLICATE_BINDING,
                f"'{target}' is already bound and cannot be rebound",
                stmt.location,
            )
            return env
        env = dict(env)
        env[target] = Binding(schema, PROVENANCE_INTO, stmt.location)
        return env

    def _check_if(
        self, stmt: ast.If, env: dict[str, Binding], row_schema: Optional[Schema]
    ) -> dict[str, Binding]:
        self._check_condition(stmt.condition, row_schema, "IF")
        then_env = self.check_block(stmt.then_body, dict(env), row_schema)
        else_env = self.check_block(stmt.else_body, dict(env), row_schema)
        return self._merge_branches(stmt, env, then_env, else_env, "the IF branches")

    def _check_try(
        self, stmt: ast.Try, env: dict[str, Binding], row_schema: Optional[Schema]
    ) -> dict[str, Binding]:
        body_env = self.check_block(stmt.body, dict(env), row_schema)
        handler_env = self.check_block(stmt.handler, dict(env), row_schema)
        return self._merge_branches(stmt, env, body_env, handler_env, "TRY and ON_ERROR")

    def _merge_branches(
        self,
        stmt: ast.Statement,
        env: dict[str, Binding],
        first: dict[str, Binding],
        second: dict[str, Binding],
        where: str,
    ) -> dict[str, Binding]:
        """Bindings after one of two branches ran: a name both bind is
        bound after them, with no schema where the two disagree."""
        merged = dict(env)
        for name, binding in first.items():
            if name in env or name not in second:
                continue
            other = second[name]
            if binding.schema != other.schema and None not in (
                binding.schema,
                other.schema,
            ):
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"'{name}' is bound with different schemas in {where}",
                    stmt.location,
                )
                merged[name] = Binding(None, PROVENANCE_INTO, binding.location)
            else:
                merged[name] = binding
        return merged

    def _check_for_each(
        self, stmt: ast.ForEach, env: dict[str, Binding], row_schema: Optional[Schema]
    ) -> dict[str, Binding]:
        source_schema = self._resolve(stmt, stmt.source, env)
        self.check_block(stmt.body, dict(env), source_schema)
        return env

    def _check_while(
        self, stmt: ast.While, env: dict[str, Binding], row_schema: Optional[Schema]
    ) -> dict[str, Binding]:
        self._check_condition(stmt.condition, row_schema, "WHILE")
        self.check_block(stmt.body, dict(env), row_schema)
        return env

    def _check_condition(
        self, condition: ast.Expr, row_schema: Optional[Schema], construct: str
    ) -> None:
        ctype = self.typecheck(condition, row_schema)
        if ctype is not None and ctype is not ValueType.BOOL:
            self.error(
                ValidationKind.TYPE_MISMATCH,
                f"{construct} condition must be BOOL, got {ctype.value}",
                condition.location,
            )

    def _resolve(
        self, stmt: ast.Statement, name: str, env: dict[str, Binding]
    ) -> Optional[Schema]:
        """Schema of a dataset ``stmt`` reads, recorded as its next source."""
        schema = None
        if name in env:
            schema = env[name].schema
        else:
            self.error(
                ValidationKind.UNKNOWN_DATASET,
                f"unknown dataset '{name}'",
                stmt.location,
            )
        self.sources.setdefault(id(stmt), []).append(schema)
        return schema

    # -- per-statement schema inference --------------------------------------

    def infer(self, stmt: ast.Statement, env: dict[str, Binding]) -> Optional[Schema]:
        if isinstance(stmt, (ast.Read, ast.Fetch)):
            return stmt.schema
        if isinstance(stmt, (ast.Join, ast.LeftJoin)):
            return self._infer_join(stmt, env)
        if isinstance(stmt, ast.Union):
            left = self._resolve(stmt, stmt.left, env)
            right = self._resolve(stmt, stmt.right, env)
            if left is None or right is None:
                return None
            if left != right:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"UNION requires identical schemas, got {left!r} and {right!r}",
                    stmt.location,
                )
                return None
            return left

        schema = self._resolve(stmt, stmt.source, env)
        if schema is None:
            return None
        if isinstance(stmt, ast.Filter):
            ptype = self.typecheck(stmt.predicate, schema)
            if ptype is not None and ptype is not ValueType.BOOL:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"WHERE condition must be BOOL, got {ptype.value}",
                    stmt.predicate.location,
                )
            return schema

        if isinstance(stmt, (ast.Distinct, ast.Sort, ast.Limit, ast.Skip, ast.Slice)):
            if isinstance(stmt, ast.Sort) and not schema.has(stmt.column):
                self.error(
                    ValidationKind.UNKNOWN_COLUMN,
                    f"unknown column '{stmt.column}' in '{stmt.source}'",
                    stmt.location,
                )
            if isinstance(stmt, ast.Limit) and stmt.count < 0:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"LIMIT count must be non-negative, got {stmt.count}",
                    stmt.location,
                )
            if isinstance(stmt, ast.Skip) and stmt.count < 0:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"SKIP count must be non-negative, got {stmt.count}",
                    stmt.location,
                )
            if isinstance(stmt, ast.Slice) and (stmt.start < 0 or stmt.stop < 0):
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    "SLICE bounds must be non-negative, "
                    f"got FROM {stmt.start} TO {stmt.stop}",
                    stmt.location,
                )
            return schema

        if isinstance(stmt, ast.Select):
            fields = []
            seen = set()
            ok = True
            for name in stmt.columns:
                if not schema.has(name):
                    self.error(
                        ValidationKind.UNKNOWN_COLUMN,
                        f"unknown column '{name}' in '{stmt.source}'",
                        stmt.location,
                    )
                    ok = False
                    continue
                if name in seen:
                    self.error(
                        ValidationKind.SCHEMA_MISMATCH,
                        f"column '{name}' selected twice",
                        stmt.location,
                    )
                    ok = False
                    continue
                seen.add(name)
                fields.append(Field(name, schema.type_of(name)))
            return Schema(fields) if ok and fields else None

        if isinstance(stmt, ast.Map):
            if schema.has(stmt.column):
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"MAP cannot overwrite existing column '{stmt.column}'",
                    stmt.location,
                )
                return None
            etype = self.typecheck(stmt.expr, schema)
            if etype is None:
                return None
            return Schema(tuple(schema.fields) + (Field(stmt.column, etype),))

        if isinstance(stmt, ast.Rename):
            if not schema.has(stmt.old_name):
                self.error(
                    ValidationKind.UNKNOWN_COLUMN,
                    f"unknown column '{stmt.old_name}' in '{stmt.source}'",
                    stmt.location,
                )
                return None
            if stmt.new_name != stmt.old_name and schema.has(stmt.new_name):
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"cannot rename to '{stmt.new_name}': column already exists",
                    stmt.location,
                )
                return None
            return Schema(
                Field(stmt.new_name, f.type) if f.name == stmt.old_name else f
                for f in schema.fields
            )

        if isinstance(stmt, ast.Drop):
            if not schema.has(stmt.column):
                self.error(
                    ValidationKind.UNKNOWN_COLUMN,
                    f"unknown column '{stmt.column}' in '{stmt.source}'",
                    stmt.location,
                )
                return None
            if len(schema) == 1:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    "cannot drop the only column of a table",
                    stmt.location,
                )
                return None
            return Schema(f for f in schema.fields if f.name != stmt.column)

        if isinstance(stmt, ast.AddColumn):
            if schema.has(stmt.column):
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"ADD_COLUMN cannot overwrite existing column '{stmt.column}'",
                    stmt.location,
                )
                return None
            return Schema(
                tuple(schema.fields) + (Field(stmt.column, stmt.value.type),)
            )

        if isinstance(stmt, ast.Aggregate):
            return self._infer_aggregate(stmt, schema)
        raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _infer_aggregate(self, stmt: ast.Aggregate, schema: Schema) -> Optional[Schema]:
        fields: list[Field] = []
        taken: set[str] = set()
        ok = True
        for name in stmt.group_by:
            if not schema.has(name):
                self.error(
                    ValidationKind.UNKNOWN_COLUMN,
                    f"unknown column '{name}' in '{stmt.source}'",
                    stmt.location,
                )
                ok = False
                continue
            if name in taken:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"column '{name}' grouped twice",
                    stmt.location,
                )
                ok = False
                continue
            taken.add(name)
            fields.append(Field(name, schema.type_of(name)))
        for spec in stmt.computes:
            result_type = self._aggregate_result_type(spec, schema, stmt.source)
            if result_type is None:
                ok = False
                continue
            if spec.alias in taken:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"duplicate aggregate output column '{spec.alias}'",
                    spec.location,
                )
                ok = False
                continue
            taken.add(spec.alias)
            fields.append(Field(spec.alias, result_type))
        return Schema(fields) if ok and fields else None

    def _aggregate_result_type(
        self, spec: ast.AggregateSpec, schema: Schema, source: str
    ) -> Optional[ValueType]:
        if spec.fn == "COUNT":
            return ValueType.INT
        assert spec.arg is not None
        if not schema.has(spec.arg):
            self.error(
                ValidationKind.UNKNOWN_COLUMN,
                f"unknown column '{spec.arg}' in '{source}'",
                spec.location,
            )
            return None
        arg_type = schema.type_of(spec.arg)
        if spec.fn in ("SUM", "AVG"):
            if arg_type not in NUMERIC_TYPES:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"{spec.fn} requires a numeric column, "
                    f"'{spec.arg}' is {arg_type.value}",
                    spec.location,
                )
                return None
            return ValueType.DECIMAL if spec.fn == "AVG" else arg_type
        if spec.fn in ("MIN", "MAX"):
            if arg_type not in _MINMAX_TYPES:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"{spec.fn} cannot aggregate a {arg_type.value} column",
                    spec.location,
                )
                return None
            return arg_type
        raise AssertionError(f"unhandled aggregate {spec.fn}")

    def _infer_join(self, stmt, env: dict[str, Binding]) -> Optional[Schema]:
        left = self._resolve(stmt, stmt.left, env)
        right = self._resolve(stmt, stmt.right, env)
        if left is None or right is None:
            return None
        ok = True
        if not left.has(stmt.left_key):
            self.error(
                ValidationKind.UNKNOWN_COLUMN,
                f"unknown column '{stmt.left_key}' in '{stmt.left}'",
                stmt.location,
            )
            ok = False
        if not right.has(stmt.right_key):
            self.error(
                ValidationKind.UNKNOWN_COLUMN,
                f"unknown column '{stmt.right_key}' in '{stmt.right}'",
                stmt.location,
            )
            ok = False
        if not ok:
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
        left_names = set(left.names())
        for f in right.fields:
            if f.name == stmt.right_key:
                continue
            if f.name in left_names:
                self.error(
                    ValidationKind.SCHEMA_MISMATCH,
                    f"join would duplicate column name '{f.name}'",
                    stmt.location,
                )
                ok = False
                continue
            fields.append(f)
        return Schema(fields) if ok else None

    # -- expression typing ----------------------------------------------------

    def typecheck(
        self, expr: ast.Expr, schema: Optional[Schema]
    ) -> Optional[ValueType]:
        if isinstance(expr, ast.Literal):
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
            inner = self.typecheck(expr.operand, schema)
            if inner is None:
                return None
            if inner not in NUMERIC_TYPES:
                self.error(
                    ValidationKind.TYPE_MISMATCH,
                    f"unary '-' requires INT or DECIMAL, got {inner.value}",
                    expr.location,
                )
                return None
            return inner
        if isinstance(expr, ast.BinaryOp):
            left = self.typecheck(expr.left, schema)
            right = self.typecheck(expr.right, schema)
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
            if left is ValueType.INT and right is ValueType.INT:
                return ValueType.INT
            return ValueType.DECIMAL
        if isinstance(expr, ast.Comparison):
            left = self.typecheck(expr.left, schema)
            right = self.typecheck(expr.right, schema)
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
                stype = self.typecheck(side, schema)
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
            inner = self.typecheck(expr.operand, schema)
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
            return self._typecheck_call(expr, schema)
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _typecheck_call(
        self, expr: ast.Call, schema: Optional[Schema]
    ) -> Optional[ValueType]:
        builtin = BUILTINS.get(expr.name)
        if builtin is None:
            self.error(
                ValidationKind.TYPE_MISMATCH,
                f"unknown function '{expr.name}'",
                expr.location,
            )
            for arg in expr.args:
                self.typecheck(arg, schema)
            return None
        if len(expr.args) != builtin.arity:
            self.error(
                ValidationKind.TYPE_MISMATCH,
                f"{expr.name} takes {builtin.arity} argument(s), "
                f"got {len(expr.args)}",
                expr.location,
            )
            return None
        ok = True
        for arg, allowed in zip(expr.args, builtin.params):
            atype = self.typecheck(arg, schema)
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
