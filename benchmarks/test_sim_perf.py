"""Microbenchmark: event-driven cycle-skipping simulation (PR 3).

Simulates a fixed slice of the Figure 10 workload set with both replay
engines and checks — via the simulator's own ``sim_*`` telemetry — that
the event engine executes at least 5x fewer cycle-steps than the
stepped oracle while producing bit-identical results. The counter
snapshot is also written as a JSONL run log and read back.
"""

import json

from conftest import SCALE, run_once

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.harness.compile_cache import cached_compile
from repro.sim import SIM_ENGINES, simulate
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel

#: Figure 10 softbrain workloads with long-running inner loops — the
#: simulation-bound end of the matrix, where the stepped loop spends
#: its time.
WORKLOADS = ("mm", "histogram", "pb_2mm", "pb_3mm", "fft", "stencil2d")

SCHED_ITERS = 80


def _compile_set():
    adg = topologies.softbrain()
    compiled = {}
    for name in WORKLOADS:
        result = cached_compile(
            adg, ("sim-perf", name, SCALE, SCHED_ITERS),
            lambda: compile_kernel(
                make_kernel(name, SCALE), adg,
                rng=DeterministicRng(("sim-perf", name)),
                max_iters=SCHED_ITERS, attempts=3,
            ),
        )
        assert result.ok, name
        compiled[name] = result
    return adg, compiled


def _simulate_all(adg, compiled, engine, telemetry):
    results = {}
    for name, result in compiled.items():
        workload = make_kernel(name, SCALE)
        memory = workload.make_memory()
        result.scope.bind_constants(memory)
        results[name] = simulate(
            adg, result, memory, engine=engine, telemetry=telemetry,
        )
    return results


def test_event_engine_step_reduction(benchmark, tmp_path):
    adg, compiled = _compile_set()
    telemetries = {engine: Telemetry() for engine in SIM_ENGINES}

    results = {
        "stepped": _simulate_all(
            adg, compiled, "stepped", telemetries["stepped"]
        ),
    }
    # Benchmark the event engine (the new default); the oracle pass
    # above provides the baseline counters.
    results["event"] = run_once(
        benchmark, _simulate_all, adg=adg, compiled=compiled,
        engine="event", telemetry=telemetries["event"],
    )

    for name in WORKLOADS:
        stepped, event = results["stepped"][name], results["event"][name]
        assert (
            (stepped.cycles, stepped.region_cycles, stepped.memory_busy,
             stepped.instances, stepped.config_cycles)
            == (event.cycles, event.region_cycles, event.memory_busy,
                event.instances, event.config_cycles)
        ), name

    stepped_steps = telemetries["stepped"].counters["sim_steps_executed"]
    event_steps = telemetries["event"].counters["sim_steps_executed"]
    skipped = telemetries["event"].counters["sim_cycles_skipped"]
    print(f"\ncycle-steps: stepped={stepped_steps}  event={event_steps}  "
          f"skipped={skipped}  "
          f"reduction={stepped_steps / max(event_steps, 1):.1f}x")
    assert stepped_steps == telemetries[
        "stepped"
    ].counters["sim_cycles_modeled"]
    assert event_steps + skipped == stepped_steps
    assert stepped_steps >= 5 * event_steps
    assert telemetries["event"].counters["sim_bulk_fire_events"] > 0

    # Counter snapshot as a JSONL run log, read back.
    out = str(tmp_path / "sim-perf.jsonl")
    with Telemetry(jsonl_path=out) as log:
        log.event({
            "type": "sim_perf",
            "workloads": list(WORKLOADS),
            "scale": SCALE,
            "counters": {
                engine: dict(telemetries[engine].counters)
                for engine in SIM_ENGINES
            },
        })
    with open(out) as handle:
        records = [json.loads(line) for line in handle]
    assert (records[0]["counters"]["event"]["sim_steps_executed"]
            == event_steps)
