"""Errors, schemas, tables and parsed pipelines survive ``pickle`` and
``copy``: each comes back equal, with every attribute a caller reads. A
pipeline that was validated and run comes back with its fields only,
and runs again."""

import copy
import pickle
import random

import pytest

from anka.errors import (
    AnkaError,
    AssertionFailed,
    ConversionError,
    DivisionByZero,
    ExecutionError,
    HttpError,
    InputError,
    IoError,
    ParseError,
    TableError,
    ValidationError,
    ValidationKind,
)
from anka.interpreter import run_pipeline
from anka.location import SourceLocation
from anka.parser import parse
from anka.validator import ValidationException, validate
from anka.values import Field, Schema, Table, ValueType, make_table

import fuzzing
from builders import schema_of
from generators import rand_table

ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
LOC = SourceLocation(3, 7, 41)


def _parse_error() -> ParseError:
    with pytest.raises(ParseError) as err:
        parse("PIPELINE p:\n  STEP")
    return err.value


ERRORS = {
    "parse": lambda: ParseError("bad", LOC, ("x",)),
    "parse_unexpected": lambda: ParseError("bad", LOC),
    "parse_deferred": _parse_error,
    "execution": lambda: ExecutionError("failed"),
    "execution_located": lambda: ExecutionError("failed", LOC),
    "division": lambda: DivisionByZero("division by zero", LOC),
    "division_at": lambda: DivisionByZero("division by zero").at(LOC),
    "io": lambda: IoError("sandboxed: cannot read 'x'"),
    "http": lambda: HttpError("GET 'u' returned status 404", LOC, 404),
    "http_at": lambda: HttpError("POST 'u' returned status 500", status=500).at(LOC),
    "conversion": lambda: ConversionError("cannot convert", LOC),
    "assertion": lambda: AssertionFailed("execution time limit exceeded"),
    "table": lambda: TableError("schema must have at least one field"),
    "input": lambda: InputError("missing input table 't'"),
    "validation": lambda: ValidationException(
        [ValidationError(ValidationKind.UNKNOWN_COLUMN, "no column 'z'", LOC)]
    ),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("make", ERRORS.values(), ids=ERRORS)
def test_errors_survive_a_round_trip(make, trip):
    error = make()
    back = ROUND_TRIPS[trip](error)
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    for name in ("message", "location", "expected", "status", "errors"):
        assert getattr(back, name, None) == getattr(error, name, None), name


def test_located_errors_show_their_location_first():
    assert str(ERRORS["parse"]()) == "3:7: bad"
    assert str(ERRORS["execution"]()) == "failed"
    assert str(ERRORS["division_at"]()) == "3:7: division by zero"
    http = ERRORS["http_at"]()
    assert (str(http), http.status) == ("3:7: POST 'u' returned status 500", 500)
    assert str(ERRORS["validation"]()) == "3:7: UnknownColumn: no column 'z'"


def _values():
    schema = schema_of(("a", ValueType.INT), ("s", ValueType.STRING))
    pipeline = parse(fuzzing.corpus_sources()[1])
    assert pipeline.inputs  # an INPUT declares a Schema
    return {
        "schema": schema,
        "derived_schema": schema.renamed("a", "b").with_field(Field("c", ValueType.BOOL)),
        "table": make_table(schema, [(1, "x"), (None, None)]),
        "pipeline": pipeline,
    }


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("name", ["schema", "derived_schema", "table", "pipeline"])
def test_schemas_tables_and_pipelines_survive_a_round_trip(name, trip):
    value = _values()[name]
    back = ROUND_TRIPS[trip](value)
    assert type(back) is type(value)
    assert back == value
    assert repr(back) == repr(value)
    if isinstance(value, Schema):
        assert back.index_of("s") == value.index_of("s")
        with pytest.raises(AttributeError, match="immutable"):
            back.fields = ()
    if isinstance(value, Table):
        assert back.rows == value.rows and back.schema == value.schema


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_a_validated_and_run_pipeline_runs_again_after_a_round_trip(trip):
    rng = random.Random(31)
    ran = 0
    for source in fuzzing.corpus_sources():
        pipeline = parse(source)
        if not validate(pipeline).ok:
            continue
        inputs = {decl.name: rand_table(rng, decl.schema) for decl in pipeline.inputs}
        before = ROUND_TRIPS[trip](pipeline)  # validated, not yet run
        try:
            expected = run_pipeline(pipeline, inputs)
        except AnkaError:  # such as a READ in the sandbox
            continue
        after = ROUND_TRIPS[trip](pipeline)  # validated and run
        for back in (before, after):
            assert back == pipeline
            assert sorted(vars(back)) == sorted(pipeline._field_names)
            table = run_pipeline(back, inputs)
            assert (table.schema, table.rows) == (expected.schema, expected.rows)
        ran += 1
    assert ran >= 20
