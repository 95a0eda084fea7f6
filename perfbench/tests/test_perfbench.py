"""Tests of the benchmark itself: its references, its correctness gate,
its tracing and its contract. Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import anka.parser
from anka.bench import evaluate_sample

from perfbench import calibrate, fixture_set, longpipe, rows, runner, tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())["metrics"]


def tiny_rows(seed=7):
    return rows.setup(seed, fact_rows=400, dim_rows=30, return_rows=60, target_rows=12)


def test_rows_references_agree_with_anka_on_a_tiny_seed():
    r = rows.run_round(tiny_rows())
    assert r.errors == []
    assert (r.attempted, r.failed) == (4, 0)


def test_rows_gate_counts_a_wrong_output_and_goes_on():
    state = tiny_rows()
    state.pipelines[0].expected[0]["total"] += Decimal("0.01")
    r = rows.run_round(state)
    assert (r.attempted, r.failed) == (4, 1)
    assert r.errors[0].startswith("enrich:")


def test_long_pipeline_reference_agrees_with_anka_on_a_tiny_seed():
    state = longpipe.setup(7, statements=60, rows=4)
    r = longpipe.run_round(state)
    assert r.errors == []
    assert (r.attempted, r.failed) == (1, 0)


def test_long_pipeline_shape_does_not_depend_on_the_seed():
    def shape(seed):
        source, _, _, out_schema, out_rows = longpipe.generate(seed, 200)
        kinds = [line.split()[0] for line in source.splitlines() if line.startswith("    ")]
        return tuple(kinds), len(out_schema), len(out_rows)

    assert len({shape(seed) for seed in (1, 2, 3)}) == 1


def test_flag_prediction_rule_holds_over_the_fixture_and_its_copies():
    state = fixture_set.setup(3, parallel=False, copies=2)
    assert len(state.samples) == 80
    for s in state.samples:
        result = evaluate_sample(s.task, s.source, sample_name=s.name)
        assert (result.parse, result.execute, result.correct) == s.flags, s.name
    assert fixture_set.score_round(state).failed == 0


def test_copies_never_share_a_source_text():
    sources = [s.source for s in fixture_set.setup(4, parallel=False, copies=3).samples]
    assert len(set(sources)) == len(sources)


def test_run_suite_report_is_byte_identical_traced_and_untraced():
    state = fixture_set.setup(5, parallel=False, copies=1)
    original = anka.parser.tokenize
    plain = fixture_set.score_round(state).outputs
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = fixture_set.score_round(state).outputs
    assert traced == plain
    assert any(s.name == "lexer" for s in tracer.spans)
    assert anka.parser.tokenize is original


def test_clock_scales_laps_by_the_host_probe(monkeypatch):
    plain = calibrate.Clock(probing=False)
    time.sleep(0.01)
    assert plain.lap() == plain.wall > 0 and plain.factor == 1.0
    monkeypatch.setattr(calibrate, "probe", lambda threads=1: calibrate.REFERENCE_S * 2)
    slow = calibrate.Clock()
    time.sleep(0.01)
    assert slow.lap() == pytest.approx(slow.wall / 2) and slow.factor == 0.5


def test_workload_names_agree():
    from perfbench import run

    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(runner.WORKLOADS) == names


def test_jobs_never_exceed_nproc():
    nproc = len(os.sched_getaffinity(0))
    assert 1 <= fixture_set.job_count() <= nproc
    assert fixture_set.setup(1, parallel=True, copies=1).jobs <= nproc


def test_traced_round_reports_every_per_layer_metric():
    state = longpipe.setup(2, statements=40, rows=4)
    tracer = tracing.Tracer()
    with tracer.installed():
        longpipe.run_round(state)
    summary = tracing.summarize(tracer.take())
    metrics = tracing.layer_metrics(summary)
    assert tracer.missing == []
    assert set(metrics) | {"bench.suite.load_s", "trace.overhead_pct"} == {
        m["name"] for m in SPEC["per_layer"]
    }
    assert metrics["parser.statements"] == metrics["validator.statements"] == 40
    assert 0 < summary["parser"]["self_s"] < summary["parser"]["s"]


def test_layer_map_covers_every_per_layer_metric():
    assert [m["name"] for m in LAYERS] == [m["name"] for m in SPEC["per_layer"]]
    assert [m["unit"] for m in LAYERS] == [m["unit"] for m in SPEC["per_layer"]]
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for m in LAYERS:
        assert runner.layer_unit(m["name"]) == m["unit"]
        for ref in m["moves"] + m["no_change"]:
            assert ref["workload"] in workloads and ref["metric"] in end_to_end, m["name"]


def test_untraced_run_prints_every_end_to_end_metric():
    result, meta = runner.run("long_pipeline", 1, 0.01, False, import_s=0.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["seed"] == 1 and meta["sizes"]["statements"] == 500


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_rows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
