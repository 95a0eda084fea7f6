"""What one round of a workload reports, and the statistics over rounds."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field


@dataclass
class Round:
    """One timed pass over a workload's inputs.

    ``units`` is the number of scored units and ``rows`` the input rows
    processed in ``wall_s``. A unit is a candidate on the bench workloads
    and the whole round elsewhere; ``latencies``, ``compiles`` and ``runs``
    hold per-unit seconds. ``outputs`` are the encoded results, which must
    not differ between rounds, traced or not. ``report`` is the bench
    workloads' ``run_suite`` report. Times are at the reference host
    speed when the round was given a probing ``calibrate.Clock``.
    """

    wall_s: float
    units: int
    rows: int
    attempted: int
    failed: int
    outputs: list
    errors: list
    latencies: list = field(default_factory=list)
    compiles: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    report: object = None


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
