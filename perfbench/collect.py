"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                 [--seconds S] [--out FILE]

Runs are sequential, one process at a time. For every workload and
metric the summary gives the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, which is the spread the
end-to-end bounds in ``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "system": platform.platform(),
            "python": platform.python_version()}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", type=seed_range)
    p.add_argument("--seconds", default=spec["run_seconds"], type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    # Seeds in the outer loop, so a slow spell of the machine spreads over
    # every workload instead of landing on one.
    workloads = args.workloads.split(",")
    runs: dict = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, args.seconds, args.trace))

    summary = {}
    for workload, done in runs.items():
        per_metric: dict = {}
        units = {}
        for _, result in done:
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        failures = sum(result["failed"] for _, result in done)
        rows = {name: {**summarise(values), "unit": units[name]}
                for name, values in per_metric.items()}
        meta = done[0][0]
        summary[workload] = {"failed": failures, "attempted": sum(r["attempted"] for _, r in done),
                             "meta": meta, "metrics": rows}
        print(f"{workload}: failed={failures} sizes={meta['sizes']}")
        for name, row in rows.items():
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else ("  ok" if row["spread"] < bound / 3 else "  WIDE")
            print(f"  {name:40s} {row['median']:14.4f} {row['unit']:6s} "
                  f"spread {row['spread']:.3f}" + (f" bound {bound}{flag}" if bound else ""))
    if args.out:
        doc = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
               "trace": args.trace, "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
