"""Print the benchmark trajectory from the committed BENCH files.

    python3 tools/bench_trajectory.py [BENCH_FILE ...]

With no arguments it reads every ``BENCH_*.json`` at the repository root,
in name order. For each workload it prints a table with one row per
end-to-end metric of ``BENCHMARK.json`` and one column per file, holding
the metric's median over that file's seeds. Below each table, it lists
every move between neighbouring files that is larger than the metric's
bound in ``BENCHMARK.json``, marked better or worse by the metric's
direction. Standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> list[tuple[str, dict]]:
    """Each file's label (its name without ``BENCH_`` and ``.json``) and
    its workloads."""
    return [
        (path.name.removeprefix("BENCH_").removesuffix(".json"),
         json.loads(path.read_text())["workloads"])
        for path in paths
    ]


def medians(points: list[tuple[str, dict]], workload: str, metric: str) -> list:
    """The metric's median in each point, None where a point lacks it."""
    values = []
    for _, workloads in points:
        entry = workloads.get(workload, {}).get("metrics", {}).get(metric)
        values.append(None if entry is None else entry["median"])
    return values


def moves(labels: list[str], values: list, spec: dict) -> list[str]:
    """A line for each move between neighbouring points past the bound."""
    lines = []
    pairs = [(label, value) for label, value in zip(labels, values) if value is not None]
    for (before, old), (after, new) in zip(pairs, pairs[1:]):
        if not old:
            continue
        change = (new - old) / old
        if abs(change) > spec["bound"]:
            better = (change < 0) == (spec["better"] == "lower")
            lines.append(
                f"  {spec['name']}: {before} -> {after} {change:+.1%} "
                f"({'better' if better else 'worse'}; bound {spec['bound']:.0%})"
            )
    return lines


def _shown(value) -> str:
    if value is None:
        return "-"
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def render(points: list[tuple[str, dict]], benchmark: dict) -> str:
    labels = [label for label, _ in points]
    names = [w["name"] for w in benchmark["workloads"]]
    names += sorted({w for _, ws in points for w in ws} - set(names))
    out = []
    for workload in names:
        if not any(workload in ws for _, ws in points):
            continue
        rows = [["metric", "unit", *labels]]
        flagged = []
        for spec in benchmark["end_to_end"]:
            values = medians(points, workload, spec["name"])
            if all(v is None for v in values):
                continue
            rows.append([spec["name"], spec["unit"], *map(_shown, values)])
            flagged += moves(labels, values, spec)
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        out.append(workload)
        out += ["  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                for row in rows]
        out += flagged or ["  no move beyond its bound"]
        out.append("")
    return "\n".join(out).rstrip("\n")


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json files", file=sys.stderr)
        return 1
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(render(load(sorted(paths, key=lambda p: p.name)), benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
