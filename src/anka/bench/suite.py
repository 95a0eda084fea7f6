"""Task-suite definition and loading.

A suite is a single JSON document:

    {
      "name": "my-suite",
      "tasks": [
        {
          "id": "filter_big_orders",
          "category": "filter",
          "description": "Keep orders with amount above 100.",
          "order_insensitive": false,
          "inputs": {"orders": [{"name": "amount", "type": "DECIMAL"}]},
          "tests": [
            {
              "inputs": {"orders": [{"amount": "150.00"}]},
              "expected": {
                "schema": [{"name": "amount", "type": "DECIMAL"}],
                "rows": [{"amount": "150.00"}]
              }
            }
          ]
        }
      ]
    }

Inline tables are arrays of objects; DECIMAL cells may be numbers or
strings (strings keep trailing zeros explicit). ``order_insensitive``
is optional and defaults to false.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Union

from anka.errors import AnkaError, ConversionError, TableError
from anka.io_adapters import decode_json, json_rows_to_table
from anka.values import Field, Schema, Table, ValueType

CATEGORIES = (
    "filter",
    "map",
    "aggregate",
    "strings",
    "multi_step",
    "finance",
    "hard",
    "adversarial",
)


class SuiteError(AnkaError):
    """The suite document is malformed or internally inconsistent."""


class TestCase(NamedTuple):
    __test__ = False  # not a pytest class, despite the name

    inputs: dict[str, Table]
    expected: Table


class TaskSpec(NamedTuple):
    id: str
    category: str
    description: str
    input_schemas: dict[str, Schema]
    tests: tuple[TestCase, ...]
    order_insensitive: bool = False


def load_suite(path: Union[str, Path]) -> list[TaskSpec]:
    """Load and fully validate a task suite document."""
    try:
        doc = decode_json(Path(path).read_bytes())
    except ConversionError as exc:
        raise SuiteError(f"suite {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("tasks"), list):
        raise SuiteError(f"suite {path}: expected an object with a 'tasks' array")
    tasks = [
        _parse_task(entry, index) for index, entry in enumerate(doc["tasks"])
    ]
    if not tasks:
        raise SuiteError("suite must contain at least one task")
    seen = set()
    for task in tasks:
        if task.id in seen:
            raise SuiteError(f"duplicate task id '{task.id}'")
        seen.add(task.id)
    return tasks


def _parse_task(entry, index: int) -> TaskSpec:
    if not isinstance(entry, dict):
        raise SuiteError(f"task #{index}: expected an object")
    task_id = entry.get("id")
    if not isinstance(task_id, str) or not task_id:
        raise SuiteError(f"task #{index}: missing or invalid 'id'")
    category = entry.get("category")
    if category not in CATEGORIES:
        raise SuiteError(
            f"task '{task_id}': category {category!r} is not one of {CATEGORIES}"
        )
    description = entry.get("description")
    if not isinstance(description, str) or not description:
        raise SuiteError(f"task '{task_id}': missing 'description'")
    order_insensitive = entry.get("order_insensitive", False)
    if not isinstance(order_insensitive, bool):
        raise SuiteError(f"task '{task_id}': 'order_insensitive' must be a boolean")

    inputs_spec = entry.get("inputs")
    if not isinstance(inputs_spec, dict) or not inputs_spec:
        raise SuiteError(f"task '{task_id}': 'inputs' must map names to schemas")
    input_schemas = {
        name: _parse_schema(spec, f"task '{task_id}': input '{name}'")
        for name, spec in inputs_spec.items()
    }

    tests_spec = entry.get("tests")
    if not isinstance(tests_spec, list) or not tests_spec:
        raise SuiteError(f"task '{task_id}': at least one test is required")
    tests = tuple(
        _parse_test(test, input_schemas, task_id, t) for t, test in enumerate(tests_spec)
    )
    return TaskSpec(
        id=task_id,
        category=category,
        description=description,
        input_schemas=input_schemas,
        tests=tests,
        order_insensitive=order_insensitive,
    )


def _parse_schema(spec, context: str) -> Schema:
    if not isinstance(spec, list) or not spec:
        raise SuiteError(f"{context}: schema must be a non-empty field list")
    fields = []
    for item in spec:
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("name"), str)
            or not isinstance(item.get("type"), str)
        ):
            raise SuiteError(f"{context}: each field needs 'name' and 'type'")
        try:
            fields.append(Field(item["name"], ValueType(item["type"])))
        except ValueError:
            raise SuiteError(
                f"{context}: unknown type {item['type']!r} for field {item['name']!r}"
            ) from None
    try:
        return Schema(fields)
    except TableError as exc:
        raise SuiteError(f"{context}: {exc}") from None


def _parse_test(
    test, input_schemas: dict[str, Schema], task_id: str, test_index: int
) -> TestCase:
    context = f"task '{task_id}', test #{test_index}"
    if not isinstance(test, dict):
        raise SuiteError(f"{context}: expected an object")
    inputs_spec = test.get("inputs")
    if not isinstance(inputs_spec, dict):
        raise SuiteError(f"{context}: 'inputs' must map names to row arrays")
    if set(inputs_spec) != set(input_schemas):
        raise SuiteError(
            f"{context}: test inputs {sorted(inputs_spec)} do not match "
            f"declared inputs {sorted(input_schemas)}"
        )
    inputs = {}
    for name, rows in inputs_spec.items():
        if not isinstance(rows, list):
            raise SuiteError(f"{context}: input '{name}' must be an array of objects")
        try:
            inputs[name] = json_rows_to_table(rows, input_schemas[name])
        except ConversionError as exc:
            raise SuiteError(f"{context}: input '{name}': {exc}") from None

    expected_spec = test.get("expected")
    if not isinstance(expected_spec, dict):
        raise SuiteError(f"{context}: 'expected' must carry 'schema' and 'rows'")
    schema = _parse_schema(expected_spec.get("schema"), f"{context}: expected schema")
    rows = expected_spec.get("rows")
    if not isinstance(rows, list):
        raise SuiteError(f"{context}: expected 'rows' must be an array of objects")
    try:
        expected = json_rows_to_table(rows, schema)
    except ConversionError as exc:
        raise SuiteError(f"{context}: expected table: {exc}") from None
    return TestCase(inputs=inputs, expected=expected)
