"""Figure 10: compiler versus manually tuned performance.

For every (accelerator, workload) pair, compile with the modular
compiler, build the manually tuned implementation, simulate both on the
cycle-level simulator, and report ``manual_cycles / compiled_cycles``
(1.0 = parity; the paper reports the compiler at ~80-89% of manual,
with fft the 2x outlier).
"""

import math

from repro.adg import topologies
from repro.baselines.manual import manual_compile
from repro.compiler.pipeline import compile_kernel
from repro.errors import CompilationError, SimulationError
from repro.harness.compile_cache import cached_compile
from repro.sim import simulate
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel
from repro.workloads.spec import WORKLOAD_DOMAINS

#: Table I workloads (MachSuite + Sparse + DSP + PolyBench).
TABLE1_KERNELS = (
    WORKLOAD_DOMAINS["machsuite"]
    + WORKLOAD_DOMAINS["sparse"]
    + WORKLOAD_DOMAINS["dsp"]
    + WORKLOAD_DOMAINS["polybench"]
)

#: The five target accelerators (Section VII). MAERI's tree only hosts
#: fp multiply/accumulate dataflows, so it gets the dense subset, as in
#: the paper's usage of it for GEMM-like kernels.
DEFAULT_MATRIX = {
    "softbrain": list(TABLE1_KERNELS),
    "triggered": ["mm", "join", "histogram", "qr"],
    "spu": ["md", "join", "histogram", "crs", "ellpack"],
    "revel": ["qr", "chol", "fft", "mm"],
}


def run(matrix=None, scale=0.1, sched_iters=150, manual_iters=300,
        verbose=False, telemetry_out=None):
    """Returns ``(rows, summary)``.

    Each row: accelerator, workload, compiled/manual simulated cycles,
    and ``relative`` = compiled performance as a fraction of manual
    (manual/compiled cycle ratio, capped at 1.25 to mirror the paper's
    presentation where the compiler occasionally wins).

    ``telemetry_out`` appends a JSONL run log with per-pair events and
    the aggregate ``sim_*`` / ``compile_cache_*`` counters.
    """
    matrix = matrix or DEFAULT_MATRIX
    telemetry = Telemetry(jsonl_path=telemetry_out)
    rows = []
    for accel_name, kernel_names in matrix.items():
        adg = topologies.PRESETS[accel_name]()
        for name in kernel_names:
            row = {"accel": accel_name, "workload": name}
            try:
                workload = make_kernel(name, scale)
                compiled = cached_compile(
                    adg, ("fig10", name, scale, sched_iters),
                    lambda: compile_kernel(
                        workload, adg,
                        rng=DeterministicRng(("fig10", accel_name, name)),
                        max_iters=sched_iters,
                    ),
                    telemetry=telemetry,
                )
                if not compiled.ok:
                    raise CompilationError("no legal mapping")
                manual = manual_compile(
                    name, adg, accel_name=accel_name, scale=scale,
                    sched_iters=manual_iters,
                )
                compiled_memory = workload.make_memory()
                compiled.scope.bind_constants(compiled_memory)
                manual_memory = manual.workload.make_memory()
                manual.scope.bind_constants(manual_memory)
                sim_compiled = simulate(
                    adg, compiled, compiled_memory, telemetry=telemetry,
                )
                sim_manual = simulate(
                    adg, manual, manual_memory, telemetry=telemetry,
                )
                row["compiled_cycles"] = sim_compiled.cycles
                row["manual_cycles"] = sim_manual.cycles
                row["relative"] = sim_manual.cycles / sim_compiled.cycles
                telemetry.event({
                    "type": "pair", "accel": accel_name,
                    "workload": name,
                    "compiled_cycles": sim_compiled.cycles,
                    "manual_cycles": sim_manual.cycles,
                })
            except (CompilationError, SimulationError) as exc:
                row["error"] = str(exc)[:60]
            rows.append(row)
            if verbose and "relative" in row:
                print(f"  {accel_name}/{name}: {row['relative']:.2f}")
    ratios = [row["relative"] for row in rows if "relative" in row]
    capped = [min(r, 1.25) for r in ratios]
    summary = {
        "pairs": len(rows),
        "succeeded": len(ratios),
        "mean_relative": (
            math.exp(sum(math.log(max(r, 1e-9)) for r in capped)
                     / len(capped)) if capped else 0.0
        ),
        "min_relative": min(ratios) if ratios else 0.0,
        "fft_outlier": min(
            (r["relative"] for r in rows
             if r.get("workload") == "fft" and "relative" in r),
            default=None,
        ),
        "counters": dict(telemetry.counters),
    }
    telemetry.event({"type": "summary",
                     "counters": dict(telemetry.counters)})
    telemetry.close()
    return rows, summary
