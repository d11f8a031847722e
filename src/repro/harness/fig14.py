"""Figure 14: automated design-space exploration trajectories.

Three DSE runs from the same initial hardware (the full-capability 5x4
mesh) against the MachSuite, DenseNN, and SparseCNN workload sets. The
paper reports mean 42% area savings and ~12x objective improvement over
the initial hardware.
"""

from repro.adg import topologies
from repro.dse import DesignSpaceExplorer
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

DEFAULT_SETS = {
    "machsuite": ("mm", "md", "ellpack"),
    "densenn": ("conv", "pool", "classifier"),
    "sparsecnn": ("spmm_outer", "resparsify"),
}


def run(workload_sets=None, scale=0.05, dse_iters=15, sched_iters=50,
        seed=0, workers=1, batch=None, telemetry_out=None,
        fidelity=None, surrogate_top=None, surrogate_widen=8,
        recalibrate_every=16):
    """Returns ``(rows, summary)``: one row per evaluated candidate per
    set. ``workers``/``batch`` parallelize candidate evaluation (the
    trajectory stays seed-deterministic); ``telemetry_out`` appends the
    JSONL run log of every set's exploration. ``fidelity`` and the
    ``surrogate_*``/``recalibrate_every`` knobs select the explorer's
    multi-fidelity funnel (fidelity=None means ``multi``)."""
    workload_sets = workload_sets or DEFAULT_SETS
    rows = []
    per_set = {}
    throughput = {
        "wall_seconds": 0.0,
        "candidates_evaluated": 0,
        "candidates_considered": 0,
    }
    telemetry = Telemetry(jsonl_path=telemetry_out)
    resolved_fidelity = None
    surrogate_stats = {}
    for set_name, names in workload_sets.items():
        kernels = [make_kernel(name, scale) for name in names]
        telemetry.event({"type": "set", "set": set_name,
                         "workloads": list(names)})
        explorer = DesignSpaceExplorer(
            kernels,
            topologies.dse_initial(),
            rng=DeterministicRng(("fig14", set_name, seed)),
            sched_iters=sched_iters,
            workers=workers,
            batch=batch,
            telemetry=telemetry,
            fidelity=fidelity,
            surrogate_top=surrogate_top,
            surrogate_widen=surrogate_widen,
            recalibrate_every=recalibrate_every,
        )
        resolved_fidelity = explorer.fidelity
        evaluated_before = telemetry.counters.get(
            "candidates_evaluated", 0
        )
        considered_before = telemetry.counters.get(
            "candidates_considered", 0
        )
        result = explorer.run(max_iters=dse_iters)
        throughput["wall_seconds"] += result.telemetry["wall_seconds"]
        throughput["candidates_evaluated"] += (
            telemetry.counters.get("candidates_evaluated", 0)
            - evaluated_before
        )
        throughput["candidates_considered"] += (
            telemetry.counters.get("candidates_considered", 0)
            - considered_before
        )
        if explorer.surrogate is not None:
            surrogate_stats[set_name] = explorer.surrogate.stats()
        for entry in result.history:
            rows.append({
                "set": set_name,
                "iteration": entry.iteration,
                "candidate": entry.candidate,
                "area_mm2": entry.area_mm2,
                "power_mw": entry.power_mw,
                "objective": (
                    entry.objective
                    if entry.objective != float("-inf") else 0.0
                ),
                "accepted": entry.accepted,
            })
        per_set[set_name] = {
            "area_saving": result.area_saving(),
            "objective_improvement": result.objective_improvement(),
            "final_area": result.final_area,
            "initial_area": result.initial_area,
        }
    telemetry.close()
    savings = [v["area_saving"] for v in per_set.values()]
    improvements = [v["objective_improvement"] for v in per_set.values()]
    wall = throughput["wall_seconds"]
    # Scheduler-level telemetry (incremental-evaluation effectiveness):
    # evaluations vs timing-cache hits vs from-scratch recomputations.
    scheduler_counters = {
        name: value for name, value in telemetry.counters.items()
        if name.startswith(("sched_", "timing_"))
    }
    summary = {
        "per_set": per_set,
        "mean_area_saving": sum(savings) / len(savings),
        "mean_objective_improvement": (
            sum(improvements) / len(improvements)
        ),
        "throughput": {
            "workers": workers,
            "fidelity": resolved_fidelity,
            "wall_seconds": wall,
            "candidates_evaluated": throughput["candidates_evaluated"],
            "candidates_considered": throughput["candidates_considered"],
            "candidates_per_sec": (
                throughput["candidates_evaluated"] / wall
                if wall > 0 else 0.0
            ),
            "considered_per_sec": (
                throughput["candidates_considered"] / wall
                if wall > 0 else 0.0
            ),
        },
        "surrogate": surrogate_stats,
        "counters": dict(telemetry.counters),
        "scheduler": scheduler_counters,
    }
    return rows, summary
