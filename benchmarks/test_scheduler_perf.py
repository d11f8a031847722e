"""Microbenchmark: incremental schedule-cost evaluation (PR 2).

Runs 200 forced scheduler iterations of a two-region scope on the
Figure 14 initial mesh (``topologies.dse_initial()``) and checks — via
the scheduler's own telemetry counters — that the incremental
bookkeeping performs at least 3x fewer from-scratch recomputations than
the pre-incremental evaluator, which re-derived every utilization table
(pe_load, port_load, link_load, link_values, per-PE issue cost, route
length) and re-timed every region on each objective evaluation. The
counter snapshot is also written as a JSONL run log and read back.
"""

import json

from conftest import run_once

from repro.adg import topologies
from repro.ir import ConfigScope, Dfg, LinearStream, OffloadRegion
from repro.ir.stream import StreamDirection
from repro.scheduler import SpatialScheduler
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry

#: Utilization tables the pre-incremental evaluator derived from scratch
#: per evaluation (pe_load, port_load, link_load, link_values, per-PE
#: issue cost, route length); regions re-timed per evaluation add R more.
TABLES_PER_EVAL = 6

ITERS = 200


def _dot_region(name, unroll):
    dfg = Dfg(name)
    a = dfg.add_input("a", lanes=unroll)
    b = dfg.add_input("b", lanes=unroll)
    products = [
        dfg.add_instr("mul", [(a, i), (b, i)]) for i in range(unroll)
    ]
    total = products[0]
    for product in products[1:]:
        total = dfg.add_instr("add", [total, product])
    acc = dfg.add_instr("acc", [total], reduction=True)
    dfg.add_output("c", acc)
    return OffloadRegion(
        name, dfg,
        input_streams={
            "a": LinearStream("A", length=16),
            "b": LinearStream("B", length=16),
        },
        output_streams={
            "c": LinearStream("C", direction=StreamDirection.WRITE,
                              length=1),
        },
    )


def _scope():
    return ConfigScope(
        "perf", regions=[_dot_region("r0", 4), _dot_region("r1", 2)]
    )


def test_scheduler_incremental_recompute_ratio(benchmark, tmp_path):
    adg = topologies.dse_initial()
    telemetry = Telemetry()
    scope = _scope()
    regions = len(scope.regions)

    def run():
        # patience >= max_iters forces the full iteration budget even
        # after the mapping settles, so the counters measure a fixed
        # amount of search work.
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("sched-perf"), max_iters=ITERS,
            patience=ITERS, telemetry=telemetry,
        )
        return scheduler.schedule(scope)

    sched, cost = run_once(benchmark, run)
    assert cost.is_legal, cost
    counters = telemetry.counters
    assert counters["sched_iterations"] == ITERS

    evaluations = counters["sched_evaluations"]
    assert evaluations > ITERS  # candidate moves evaluate many times/iter
    old_world = (TABLES_PER_EVAL + regions) * evaluations
    new_world = (
        counters.get("timing_region_recomputes", 0)
        + counters.get("sched_load_rebuilds", 0)
    )
    print(f"\nevaluations={evaluations}  "
          f"from-scratch: old~{old_world}  new={new_world}  "
          f"ratio={old_world / max(new_world, 1):.1f}x")
    assert old_world >= 3 * new_world
    assert counters.get("timing_region_cache_hits", 0) > 0

    # Counter snapshot as a JSONL run log, read back.
    out = str(tmp_path / "scheduler-perf.jsonl")
    with Telemetry(jsonl_path=out) as log:
        log.event({"type": "scheduler_perf", "iterations": ITERS,
                   "regions": regions, "counters": dict(counters)})
        log.event({"type": "scheduler_perf_timings", "timings": {
            name: slot["seconds"]
            for name, slot in telemetry.timings.items()
        }})
    with open(out) as handle:
        records = [json.loads(line) for line in handle]
    assert records[0]["counters"]["sched_evaluations"] == evaluations
