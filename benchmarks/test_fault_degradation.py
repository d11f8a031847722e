"""Robustness benchmark: graceful degradation under single faults.

Injects one random hardware fault per case across a registry subset and
pins the headline robustness guarantee: at least 80% of single-fault
cases recover or degrade (the schedule-repair path finds a working
remapping), and **no** case ever miscompiles — a fault may honestly
defeat the mapper, but it must never produce silently wrong output.
"""

import json

from conftest import SCHED_ITERS, run_once

from repro.faults import run_campaign

CASES = 15
WORKLOADS = ("mm", "md", "join", "conv", "histogram")
SEED = 2026

#: The pinned floor: single faults must be survivable this often.
RECOVERY_FLOOR = 0.80


def test_single_fault_degradation(benchmark):
    summary = run_once(
        benchmark, run_campaign,
        workloads=WORKLOADS,
        cases=CASES,
        seed=SEED,
        max_faults=1,
        sched_iters=SCHED_ITERS,
    )

    counts = summary.counts
    survivable = counts.get("recovered", 0) + counts.get("degraded", 0)
    print(json.dumps({
        "cases": summary.cases,
        "counts": dict(sorted(counts.items())),
        "survival_rate": survivable / summary.cases,
        "curve": summary.curve_rows(),
    }, indent=2))

    assert summary.cases == CASES
    # A fault must never cause a silent miscompile.
    assert counts.get("miscompiled", 0) == 0, counts
    # ...and the repair path keeps >=80% of single-fault cases alive.
    assert survivable / summary.cases >= RECOVERY_FLOOR, counts
