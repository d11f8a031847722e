"""Section VIII-B performance-model validation.

Compiles each workload, simulates it cycle-level, and compares the
analytical model's cycle estimate against the simulation (the paper
reports mean 7% error, max 30%, worst on stencil-3d because the model
misses control-instruction pressure).

The comparison is per *launch*: kernels modeling a repeated factorization
step (``frequency > 1``) are evaluated with frequency forced to 1 so
model and simulator describe the same work.
"""

from repro.adg import topologies
from repro.compiler.pipeline import compile_kernel
from repro.errors import CompilationError, SimulationError
from repro.estimation.perf_model import PerformanceModel
from repro.harness.compile_cache import cached_compile
from repro.scheduler.router import RoutingGraph
from repro.scheduler.timing import compute_timing
from repro.sim import simulate
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

DEFAULT_KERNELS = (
    "mm", "md", "ellpack", "crs", "stencil2d", "stencil3d",
    "histogram", "join", "qr", "chol", "fft", "classifier", "pool",
)


def run(kernel_names=DEFAULT_KERNELS, preset="softbrain", scale=0.1,
        sched_iters=150, telemetry_out=None):
    adg = topologies.PRESETS[preset]()
    model = PerformanceModel()
    telemetry = Telemetry(jsonl_path=telemetry_out)
    rows = []
    for name in kernel_names:
        row = {"workload": name}
        try:
            workload = make_kernel(name, scale)
            compiled = cached_compile(
                adg, ("modelval", name, scale, sched_iters),
                lambda: compile_kernel(
                    workload, adg,
                    rng=DeterministicRng(("modelval", name)),
                    max_iters=sched_iters,
                ),
                telemetry=telemetry,
            )
            if not compiled.ok:
                raise CompilationError("no legal mapping")
            # Per-launch basis: neutralize frequency extrapolation.
            for region in compiled.scope.regions:
                region.frequency = 1.0
            timing = compute_timing(
                compiled.schedule, RoutingGraph(adg)
            )
            estimate = model.estimate(
                compiled.scope, compiled.schedule, timing
            )
            memory = workload.make_memory()
            compiled.scope.bind_constants(memory)
            sim = simulate(adg, compiled, memory, telemetry=telemetry)
            row["model_cycles"] = estimate.cycles
            row["sim_cycles"] = sim.cycles
            row["error_pct"] = 100.0 * abs(
                estimate.cycles - sim.cycles
            ) / sim.cycles
            telemetry.event({
                "type": "kernel", "workload": name,
                "model_cycles": estimate.cycles,
                "sim_cycles": sim.cycles,
            })
        except (CompilationError, SimulationError) as exc:
            row["error"] = str(exc)[:60]
        rows.append(row)
    errors = [row["error_pct"] for row in rows if "error_pct" in row]
    summary = {
        "kernels": len(rows),
        "mean_error_pct": sum(errors) / len(errors) if errors else 0.0,
        "max_error_pct": max(errors) if errors else 0.0,
        "counters": dict(telemetry.counters),
    }
    telemetry.event({"type": "summary",
                     "counters": dict(telemetry.counters)})
    telemetry.close()
    return rows, summary
