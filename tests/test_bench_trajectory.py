"""tools/bench_trajectory.py over the committed trajectory points and
over made-up ones."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS = [ROOT / "BENCH_0011-64dce5f-serial-scoring.json",
          ROOT / "BENCH_0012-73aa2eb-dead-bindings.json"]

_spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _table(text: str, workload: str) -> list[str]:
    lines = text.splitlines()
    start = lines.index(workload) + 1
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


def test_committed_points(capsys):
    assert trajectory.main([str(p) for p in reversed(POINTS)]) == 0
    out = capsys.readouterr().out
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("bench_fixture", "bench_parallel", "run_rows", "long_pipeline"):
        table = _table(out, workload)
        # files are read in name order, whatever order they are given in
        assert table[0].split() == ["metric", "unit", "0011-64dce5f-serial-scoring",
                                    "0012-73aa2eb-dead-bindings"]
        assert [line.split()[0] for line in table[1:9]] == [
            spec["name"] for spec in benchmark["end_to_end"]
        ]
    medians = [json.loads(p.read_text())["workloads"]["run_rows"]["metrics"]["rows_per_s"]["median"]
               for p in POINTS]
    row = next(line for line in _table(out, "run_rows") if line.split()[0] == "rows_per_s")
    assert row.split()[2:] == [f"{m:,.0f}" for m in medians]
    # the one move past its bound: the released bindings' run time
    assert "  run_p50_ms: 0011-64dce5f-serial-scoring -> 0012-73aa2eb-dead-bindings " \
        "-29.5% (better; bound 25%)" in _table(out, "long_pipeline")
    assert _table(out, "run_rows")[-1] == "  no move beyond its bound"


def _point(path: Path, run_p50: float, rows_per_s: float) -> Path:
    metrics = {"run_p50_ms": {"median": run_p50}, "rows_per_s": {"median": rows_per_s}}
    path.write_text(json.dumps({"workloads": {"run_rows": {"metrics": metrics}}}))
    return path


def test_flags_only_moves_past_the_bound(tmp_path, capsys):
    points = [
        _point(tmp_path / "BENCH_0001-a.json", 100.0, 1000.0),
        _point(tmp_path / "BENCH_0002-b.json", 130.0, 1100.0),  # run 30% slower
        _point(tmp_path / "BENCH_0003-c.json", 120.0, 1400.0),  # rows 27% faster
    ]
    assert trajectory.main([str(p) for p in points]) == 0
    out = capsys.readouterr().out
    table = _table(out, "run_rows")
    # in the order of BENCHMARK.json's metrics
    assert table[-2:] == [
        "  rows_per_s: 0002-b -> 0003-c +27.3% (better; bound 25%)",
        "  run_p50_ms: 0001-a -> 0002-b +30.0% (worse; bound 25%)",
    ]
    assert out.splitlines()[0] == "run_rows"  # workloads no point has are left out
