"""Recompute the expected outputs of the shipped fixture suite.

Runs each task's candidate, ``candidates/<id>/sample_1.anka``, on every
test's inputs and rewrites only that test's ``expected`` block in
``src/anka/bench/fixture/suite.json``. Descriptions, inputs, candidates
and the ``broken/`` variants are only read. Review the new expected
tables with ``git diff`` before committing:

    python3 tools/refresh_fixture.py
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":  # run from a checkout: the package is in src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from anka.bench import fixture_dir, load_suite
from anka.interpreter import run_pipeline
from anka.io_adapters import table_to_json
from anka.parser import parse


def refreshed(root: Path) -> str:
    """The text of ``root/suite.json`` with every expected block rerun."""
    path = root / "suite.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for entry, task in zip(doc["tasks"], load_suite(path)):
        candidate = root / "candidates" / task.id / "sample_1.anka"
        pipeline = parse(candidate.read_text(encoding="utf-8"))
        for test, case in zip(entry["tests"], task.tests):
            output = run_pipeline(pipeline, case.inputs)
            rows = json.loads(table_to_json(output), parse_float=str)
            if task.order_insensitive:
                rows.sort(key=lambda row: sorted(row.items()))
            schema = [{"name": f.name, "type": f.type.value} for f in output.schema.fields]
            test["expected"] = {"schema": schema, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    suite = fixture_dir() / "suite.json"
    suite.write_text(refreshed(fixture_dir()), encoding="utf-8")
