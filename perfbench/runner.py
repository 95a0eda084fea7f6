"""Runs one workload for a fixed time and reports its metrics.

A run sets up the workload several times (reporting the median), runs
one warm-up round, then runs rounds until ``seconds`` have passed. The
host's speed is probed before and after every set-up and between the
phases of every round, and an untraced run reports the end-to-end
metrics with their times scaled to the reference speed (see
``calibrate``). A traced run does not probe: it alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing
overhead. Every round's outputs are checked against the
benchmark's own references and must equal the first round's.
"""

from __future__ import annotations

import gc
import json
from array import array
import os
import platform
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from perfbench import calibrate, fixture_set, longpipe, rows
from perfbench.measure import Round, peak_rss_mb, quantile
from perfbench.tracing import Tracer, layer_metrics, summarize

SETUP_REPEATS = 5
MIN_ROUNDS = 3
ROOT = Path(__file__).resolve().parent.parent


def _bench(parallel: bool):
    return lambda seed: fixture_set.setup(seed, parallel=parallel)


# name -> (setup, measured round, round used by traced runs)
WORKLOADS = {
    "bench_fixture": (_bench(False), fixture_set.run_round, fixture_set.score_round),
    "bench_parallel": (_bench(True), fixture_set.run_round, fixture_set.score_round),
    "run_rows": (rows.setup, rows.run_round, rows.run_round),
    "long_pipeline": (longpipe.setup, longpipe.run_round, longpipe.run_round),
}

E2E_UNITS = {
    "setup_s": "s", "samples_per_s": "1/s", "rows_per_s": "1/s",
    "sample_p50_ms": "ms", "sample_p99_ms": "ms", "compile_p50_ms": "ms",
    "run_p50_ms": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def git_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Tally:
    """Attempted and failed operations, plus the first error messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.outputs = None

    def add(self, r: Round) -> None:
        """Count the round, then drop its outputs and pack its timings, so
        the rounds a run keeps do not grow its peak memory."""
        self.attempted += r.attempted
        self.failed += r.failed
        if self.outputs is None:
            self.outputs = r.outputs
        elif r.outputs != self.outputs:
            self.failed += 1
            r.errors.append("outputs differ from the first round's")
        self.errors.extend(r.errors[: max(0, 5 - len(self.errors))])
        r.outputs, r.errors, r.report = [], [], None
        r.latencies, r.compiles, r.runs = (array("d", v) for v in (r.latencies, r.compiles, r.runs))


def end_to_end(measured: list[Round], setup_s: float) -> dict:
    peak_rss = peak_rss_mb()  # before the pooled lists below add to it
    timed = [r for r in measured if r.wall_s > 0] or [Round(1.0, 0, 0, 0, 0, [], [])]
    latencies = [x for r in timed for x in r.latencies] or [0.0]
    compiles = [x for r in timed for x in r.compiles] or [0.0]
    runs = [x for r in timed for x in r.runs] or [0.0]
    # Throughput of the median round: a round the host's speed probes
    # misjudged moves a sum over the run, but not its median.
    wall = median(r.wall_s for r in timed)
    return {
        "setup_s": setup_s,
        "samples_per_s": median(r.units for r in timed) / wall,
        "rows_per_s": median(r.rows for r in timed) / wall,
        "sample_p50_ms": median(latencies) * 1000,
        "sample_p99_ms": quantile(latencies, 99) * 1000,
        "compile_p50_ms": median(compiles) * 1000,
        "run_p50_ms": median(runs) * 1000,
        "peak_rss_mb": peak_rss,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float):
    """Return (result object, metadata) for one run."""
    setup, measured_round, traced_round = WORKLOADS[workload]
    tracer = Tracer()
    clock = calibrate.Clock()
    import_s *= calibrate.scale(clock.speed, clock.speed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        clock.lap()
        if trace:
            with tracer.installed():
                state = setup(seed)
        else:
            state = setup(seed)
        setup_times.append(clock.lap())
    loads = [s.duration for s in tracer.take() if s.name == "bench.suite.load"]
    # Keep the benchmark's own inputs and references out of the program's
    # garbage collections, and start every round from a collected heap, as
    # a fresh process would.
    gc.collect()
    gc.freeze()

    tally = Tally()
    tally.add((traced_round if trace else measured_round)(state))  # warm-up
    measured, plain_walls, traced_walls, layers = [], [], [], []
    deadline = perf_counter() + seconds
    while len(measured) + len(layers) < MIN_ROUNDS or perf_counter() < deadline:
        gc.collect()
        if not trace:
            r = measured_round(state, clock)
            tally.add(r)
            measured.append(r)
            continue
        plain = traced_round(state)
        tally.add(plain)
        gc.collect()
        with tracer.installed():
            r = traced_round(state)
        spans = tracer.take()
        jobs = getattr(state, "jobs", 1)
        layers.append(layer_metrics(summarize(spans), r.report, r.wall_s, jobs))
        tally.add(r)
        plain_walls.append(plain.wall_s)
        traced_walls.append(r.wall_s)
        last_spans = spans

    if trace:
        metrics = {name: median(m[name] for m in layers) for name in layers[0]}
        metrics["bench.suite.load_s"] = median(loads) if loads else 0.0
        metrics["trace.overhead_pct"] = (median(traced_walls) / median(plain_walls) - 1) * 100
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(measured, import_s + median(setup_times))
        units = E2E_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "sizes": state.sizes(),
        "rounds": len(measured) or len(layers),
        "seconds": seconds,
        "setup_repeats": SETUP_REPEATS,
        "host_scale": clock.scaled / clock.wall if clock.wall else None,
        "failed_share": tally.failed / tally.attempted if tally.attempted else 1.0,
        "errors": tally.errors,
    }
    if trace:
        meta["unhooked"] = tracer.missing
        meta["trace_file"] = str(write_trace(workload, seed, meta, last_spans))
    return result, meta


def write_trace(workload: str, seed: int, meta: dict, spans) -> Path:
    """Write the last traced round's spans, summed by name, under the
    checkout's ``.bench_build`` directory."""
    out = ROOT / ".bench_build" / "perfbench" / f"{workload}-seed{seed}-trace.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"meta": meta, "spans": summarize(spans)}, indent=2) + "\n")
    return out.relative_to(ROOT)


def main(args, import_s: float) -> int:
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for error in meta["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0
