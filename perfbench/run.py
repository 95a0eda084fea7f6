"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program under test is imported from
the checkout's ``src`` directory; without it the benchmark exits with
code 2 and prints no result. The last line of standard output is the
result object; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("bench_fixture", "bench_parallel", "run_rows", "long_pipeline")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anka" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'anka'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    start = perf_counter()
    import anka.bench

    import_s = perf_counter() - start
    if Path(anka.bench.__file__).resolve().parent.parent != SRC / "anka":
        print(f"perfbench: imported anka from {anka.bench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import runner

    return runner.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
