"""tools/gc_phases.py runs perfbench's measured round and counts the
garbage collections in each phase."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_counts_collections_per_phase_of_one_round():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gc_phases.py"),
         "--workload", "long_pipeline", "--seed", "3", "--rounds", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["workload"], result["seed"], result["rounds"]) == ("long_pipeline", 3, 2)
    phases = result["phases"]
    assert set(phases) <= {"compile", "run", "encode", "probe", "other"}
    assert all(len(gens) == 3 and min(gens) >= 0 for gens in phases.values())
    # parsing a 500-statement program allocates enough to collect
    assert phases["compile"][0] >= 2
