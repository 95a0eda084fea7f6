"""Count the garbage collections that start in each phase of perfbench rounds.

    python3 tools/gc_phases.py --workload long_pipeline --seed 11 [--rounds 10] [--root DIR]

Sets one workload up and runs its measured round from ``perfbench`` as
``perfbench/run.py`` does: the set-up heap collected and frozen, one
warm-up round without a clock, then ``--rounds`` rounds, each from a
collected heap, timed by one probing clock. The rounds run unmodified;
the clock is perfbench's own, and each of its laps starts the next phase:

- ``long_pipeline``: compile, run, encode;
- ``run_rows``: decode, then compile, run and encode per pipeline;
- ``bench_fixture``, ``bench_parallel``: score, then latencies per chunk.

The host-speed probes inside each lap are the phase ``probe``, and what
a round does before its first lap and after its last is ``other``. A
``gc.callbacks`` hook counts the collections of generation 0, 1 and 2
that start in each phase, summed over the rounds. ``--root`` names the
checkout whose ``src`` and ``perfbench`` are measured (default: this
one), so two commits can be compared with the same tool. The last line
of standard output is the result as JSON. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bench_fixture", "bench_parallel", "run_rows", "long_pipeline")
PHASES = ("decode", "score", "compile", "run", "encode", "latencies", "probe", "other")


def lap_phases(workload: str, state) -> list[str]:
    """The phase each lap of one measured round starts, in order."""
    if workload == "long_pipeline":
        return ["compile", "run", "encode"]
    if workload == "run_rows":
        return ["decode"] + ["compile", "run", "encode"] * len(state.pipelines)
    from perfbench import fixture_set

    chunks = -(-len(state.samples) // fixture_set.CHUNK)
    return ["score"] + ["latencies"] * chunks


def count(workload: str, seed: int, rounds: int) -> dict[str, list[int]]:
    """Collections per phase and generation over ``rounds`` rounds."""
    from perfbench import calibrate, runner

    setup, measured_round, _ = runner.WORKLOADS[workload]

    class PhaseClock(calibrate.Clock):
        """perfbench's clock, naming the phase each lap starts."""

        def start_round(self, names: list[str]) -> None:
            self.names = iter(names)
            self.phase = "other"

        def lap(self, then: int = 1) -> float:
            self.phase = "probe"
            elapsed = super().lap(then)
            self.phase = next(self.names, "other")
            return elapsed

    state = setup(seed)
    gc.collect()
    gc.freeze()
    measured_round(state)  # warm-up
    counts = {phase: [0, 0, 0] for phase in PHASES}
    clock = PhaseClock()
    counting = False

    def on_collection(event: str, info: dict) -> None:
        if counting and event == "start":
            counts[clock.phase][info["generation"]] += 1

    gc.callbacks.append(on_collection)
    try:
        for _ in range(rounds):
            gc.collect()
            clock.start_round(lap_phases(workload, state))
            counting = True
            measured_round(state, clock)
            counting = False
    finally:
        gc.callbacks.remove(on_collection)
        gc.unfreeze()
    return {phase: gens for phase, gens in counts.items() if any(gens)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--root", type=Path, default=ROOT)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    phases = count(args.workload, args.seed, args.rounds)
    for phase, (gen0, gen1, gen2) in phases.items():
        print(f"{phase:>10}  gen0 {gen0:5d}  gen1 {gen1:4d}  gen2 {gen2:3d}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": args.rounds, "phases": phases}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
