"""End-to-end CLI behavior: every documented exit code path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anka
from anka.bench import fixture_dir
from anka.cli import main
from anka.io_adapters import table_from_json, table_to_json
from anka.values import ValueType

from builders import schema_of

VALID = """\
PIPELINE double_up:
  INPUT rows: TABLE[v: INT]
  STEP extend:
    MAP rows WITH doubled => v * 2 INTO result
  OUTPUT result
"""

SYNTAX_ERROR = "PIPELINE p:\n STEP s:\n  FILTER t WHERE v > 0\n OUTPUT t"

BAD_TYPES = """\
PIPELINE p:
  INPUT rows: TABLE[v: INT]
  STEP s:
    FILTER rows WHERE missing > 0 INTO result
  OUTPUT result
"""

DIVIDES = """\
PIPELINE p:
  INPUT rows: TABLE[v: INT]
  STEP s:
    MAP rows WITH bad => v / 0 INTO result
  OUTPUT result
"""

READS_FILE = """\
PIPELINE p:
  STEP s:
    READ "{path}" AS JSON TABLE[v: INT] INTO result
  OUTPUT result
"""


@pytest.fixture
def pipeline_file(tmp_path):
    def write(source: str, name="pipeline.anka") -> str:
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def rows_json(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text('[{"v": 1}, {"v": 2}]', encoding="utf-8")
    return str(path)


class TestParseCommand:
    def test_valid_file_exit_zero(self, pipeline_file, capsys):
        assert main(["parse", pipeline_file(VALID)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_syntax_error_exit_one_with_location(self, pipeline_file, capsys):
        assert main(["parse", pipeline_file(SYNTAX_ERROR)]) == 1
        err = capsys.readouterr().err
        assert "4:2" in err  # the OUTPUT token found where INTO was expected

    def test_missing_file_exit_two(self, capsys):
        assert main(["parse", "/nonexistent/none.anka"]) == 2

    def test_ast_dump_is_json(self, pipeline_file, capsys):
        assert main(["parse", "--ast", pipeline_file(VALID)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["node"] == "Pipeline"
        assert doc["name"] == "double_up"
        assert doc["steps"][0]["body"][0]["node"] == "Map"
        assert doc["location"] == {"line": 1, "column": 1, "offset": 0}

    def test_json_diagnostics(self, pipeline_file, capsys):
        assert main(["parse", "--json-diagnostics", pipeline_file(SYNTAX_ERROR)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["line"] == 4 and "INTO" in doc[0]["expected"]

    def test_json_diagnostics_of_a_valid_file(self, pipeline_file, capsys):
        assert main(["parse", "--json-diagnostics", pipeline_file(VALID)]) == 0
        assert json.loads(capsys.readouterr().out) == []



class TestCheckCommand:
    def test_valid_prints_output_schema(self, pipeline_file, capsys):
        assert main(["check", pipeline_file(VALID)]) == 0
        out = capsys.readouterr().out
        assert "TABLE[v: INT, doubled: INT]" in out

    def test_validation_error_exit_one(self, pipeline_file, capsys):
        assert main(["check", pipeline_file(BAD_TYPES)]) == 1
        assert "UnknownColumn" in capsys.readouterr().err

    def test_syntax_error_exit_one(self, pipeline_file, capsys):
        assert main(["check", pipeline_file(SYNTAX_ERROR)]) == 1
        assert "4:2" in capsys.readouterr().err

    def test_json_diagnostics_list(self, pipeline_file, capsys):
        assert main(["check", "--json-diagnostics", pipeline_file(BAD_TYPES)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["kind"] == "UnknownColumn"
        assert doc[0]["line"] == 4

    def test_duplicate_into_exit_one(self, pipeline_file, capsys):
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: INT]\n STEP s:\n"
            "  DISTINCT t INTO r\n  DISTINCT t INTO r\n OUTPUT r"
        )
        assert main(["check", pipeline_file(source)]) == 1


class TestRunCommand:
    def test_run_writes_json_to_stdout(self, pipeline_file, rows_json, capsys):
        code = main(["run", pipeline_file(VALID), "--input", f"rows={rows_json}"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == [{"v": 1, "doubled": 2}, {"v": 2, "doubled": 4}]

    def test_run_output_file_format_by_extension(self, pipeline_file, rows_json, tmp_path):
        out_csv = tmp_path / "out.csv"
        code = main(
            ["run", pipeline_file(VALID), "--input", f"rows={rows_json}",
             "--output", str(out_csv)]
        )
        assert code == 0
        assert out_csv.read_bytes() == b"v,doubled\r\n1,2\r\n2,4\r\n"

    def test_missing_input_binding_exit_two(self, pipeline_file, capsys):
        assert main(["run", pipeline_file(VALID)]) == 2
        assert "rows" in capsys.readouterr().err

    def test_unknown_binding_exit_two(self, pipeline_file, rows_json, capsys):
        code = main(
            ["run", pipeline_file(VALID), "--input", f"rows={rows_json}",
             "--input", f"ghost={rows_json}"]
        )
        assert code == 2

    def test_malformed_input_file_exit_two(self, pipeline_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"v": "nope"}]')
        assert main(["run", pipeline_file(VALID), "--input", f"rows={bad}"]) == 2

    def test_parse_error_exit_one(self, pipeline_file):
        assert main(["run", pipeline_file(SYNTAX_ERROR)]) == 1

    def test_validate_error_exit_one(self, pipeline_file, rows_json):
        assert main(["run", pipeline_file(BAD_TYPES), "--input", f"rows={rows_json}"]) == 1

    def test_runtime_error_exit_three(self, pipeline_file, rows_json, capsys):
        assert main(["run", pipeline_file(DIVIDES), "--input", f"rows={rows_json}"]) == 3
        assert "DivisionByZero" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [None, "out.json", "out.csv"])
    def test_unencodable_output_exit_three(self, pipeline_file, tmp_path, capsys, output):
        # a JSON escape admits a lone surrogate, which UTF-8 cannot encode
        rows = tmp_path / "rows.json"
        rows.write_text('[{"a": "\\ud800x"}]', encoding="utf-8")
        source = (
            "PIPELINE p:\n INPUT rows: TABLE[a: STRING]\n STEP s:\n"
            "  FILTER rows WHERE a != \"\" INTO r\n OUTPUT r"
        )
        args = ["run", pipeline_file(source), "--input", f"rows={rows}"]
        if output:
            args += ["--output", str(tmp_path / output)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ConversionError: cannot encode '\\ud800' as UTF-8\n"
        assert not (tmp_path / (output or "out.json")).exists()

    def test_non_ascii_stdout_under_ascii_locale(self, pipeline_file, tmp_path):
        rows = tmp_path / "rows.json"
        rows.write_bytes('[{"a": "éx"}]'.encode("utf-8"))
        source = (
            "PIPELINE p:\n INPUT t: TABLE[a: STRING]\n STEP s:\n"
            "  DISTINCT t INTO u\n OUTPUT u"
        )
        env = dict(os.environ, PYTHONIOENCODING="ascii",
                   PYTHONPATH=str(Path(anka.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "anka.cli", "run", pipeline_file(source),
             "--input", f"t={rows}"],
            capture_output=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        expected = table_from_json(rows.read_bytes(), schema_of(("a", ValueType.STRING)))
        assert done.stdout == table_to_json(expected)

    def test_csv_input_binding(self, pipeline_file, tmp_path, capsys):
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text("v\n3\n")
        code = main(["run", pipeline_file(VALID), "--input", f"rows={rows_csv}"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == [{"v": 3, "doubled": 6}]

    def test_pipeline_reading_files_without_sandbox(self, pipeline_file, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text('[{"v": 9}]')
        source = READS_FILE.format(path=data)
        assert main(["run", pipeline_file(source)]) == 0
        assert json.loads(capsys.readouterr().out) == [{"v": 9}]

    def test_sandbox_flag_blocks_pipeline_io(self, pipeline_file, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_text('[{"v": 9}]')
        source = READS_FILE.format(path=data)
        assert main(["run", pipeline_file(source), "--sandbox"]) == 3
        assert "sandboxed" in capsys.readouterr().err

    def test_repeated_input_binding_exit_two(self, pipeline_file, rows_json, tmp_path, capsys):
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text("v\n3\n")
        code = main(["run", pipeline_file(VALID), "--input", f"rows={rows_csv}",
                     "--input", f"rows={rows_json}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --input 'rows' is given more than once\n"
        assert captured.out == ""

    def test_csv_suffix_in_any_case(self, pipeline_file, tmp_path, capsys):
        rows_csv = tmp_path / "ROWS.CSV"
        rows_csv.write_text("v\n3\n")
        out_csv = tmp_path / "Out.Csv"
        code = main(["run", pipeline_file(VALID), "--input", f"rows={rows_csv}",
                     "--output", str(out_csv)])
        assert code == 0
        assert out_csv.read_bytes() == b"v,doubled\r\n3,6\r\n"

    def test_bad_input_syntax_exit_two(self, pipeline_file, capsys):
        assert main(["run", pipeline_file(VALID), "--input", "rowsnopath"]) == 2

    def test_unwritable_output_exit_two(self, pipeline_file, rows_json, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out.json")
        code = main(["run", pipeline_file(VALID), "--input", f"rows={rows_json}",
                     "--output", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out!r}: ")
        assert captured.out == ""


class TestBenchCommand:
    def test_fixture_bench_run(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "bench",
                str(fixture_dir() / "suite.json"),
                str(fixture_dir() / "candidates"),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "| **Overall** | 16 | 100.0% | 100.0% | 100.0% | 100.0% |" in table
        doc = json.loads(report_path.read_text())
        assert doc["overall"]["task_accuracy"] == 1.0

    def test_empty_candidates_dir_all_zero(self, tmp_path, capsys):
        empty = tmp_path / "candidates"
        empty.mkdir()
        report_path = tmp_path / "report.json"
        code = main(
            ["bench", str(fixture_dir() / "suite.json"), str(empty),
             "--report", str(report_path)]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["overall"] == {
            "tasks": 16,
            "samples": 0,
            "parse_rate": 0.0,
            "execution_rate": 0.0,
            "correctness_rate": 0.0,
            "task_accuracy": 0.0,
        }
        assert all(t["no_samples"] for t in doc["tasks"])

    def test_unwritable_report_exit_two(self, tmp_path, capsys):
        report_path = str(tmp_path / "missing" / "r.json")
        code = main(
            ["bench", str(fixture_dir() / "suite.json"), str(fixture_dir() / "candidates"),
             "--report", report_path]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {report_path!r}: ")
        assert captured.out == ""

    def test_unreadable_suite_exit_two(self, tmp_path):
        assert main(["bench", "/nonexistent/suite.json", str(tmp_path)]) == 2

    def test_malformed_suite_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "suite.json"
        bad.write_text('{"tasks": []}')
        assert main(["bench", str(bad), str(tmp_path)]) == 2

    def test_missing_candidate_dir_exit_two(self, tmp_path):
        code = main(
            ["bench", str(fixture_dir() / "suite.json"), str(tmp_path / "nope")]
        )
        assert code == 2

    @pytest.mark.parametrize("option", ["--order-insensitive", "--sandbox", "--no-sandbox"])
    def test_scoring_options_are_refused(self, pipeline_file, tmp_path, capsys, option):
        # a suite is scored one way: always sandboxed, row order per task
        with pytest.raises(SystemExit) as stop:
            main(["bench", str(fixture_dir() / "suite.json"),
                  str(fixture_dir() / "candidates"), option])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        # while `anka run --sandbox` still denies a pipeline's I/O
        data = tmp_path / "data.json"
        data.write_text('[{"v": 9}]')
        assert main(["run", pipeline_file(READS_FILE.format(path=data)), "--sandbox"]) == 3
        assert "sandboxed" in capsys.readouterr().err

    def test_unreadable_candidate_exit_two(self, tmp_path, capsys):
        # a directory named like a sample cannot be read as one
        (tmp_path / "filter_high_value" / "s1.anka").mkdir(parents=True)
        code = main(["bench", str(fixture_dir() / "suite.json"), str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "s1.anka" in captured.err
        assert captured.out == ""

    def test_jobs_must_be_positive(self, tmp_path):
        code = main(
            ["bench", str(fixture_dir() / "suite.json"), str(tmp_path), "--jobs", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
    def test_sample_timeout_must_be_finite_and_positive(self, tmp_path, capsys, timeout):
        # nan and inf would switch the per-sample deadline off, and 0 or
        # less would fail every sample
        code = main(
            [
                "bench",
                str(fixture_dir() / "suite.json"),
                str(fixture_dir() / "candidates"),
                "--sample-timeout",
                timeout,
            ]
        )
        assert code == 2
        assert "--sample-timeout" in capsys.readouterr().err
