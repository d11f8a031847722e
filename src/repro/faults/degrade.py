"""Repair-based graceful degradation of a compiled workload.

Given a workload compiled for a healthy ADG and a set of injected
hardware faults, the degradation engine answers: *does the accelerator
still work, and at what cost?*  The pipeline is the DSAGEN repair path
(Section V-A) turned into a user-facing robustness guarantee:

1. clone the healthy schedule and :func:`strip_invalid` every mapping
   entry that touched broken hardware;
2. :func:`repair_schedule` remaps around the faults (falling back to a
   full re-compile when repair cannot recover a legal mapping);
3. lint the result with the cross-layer verifier
   (``allow_partial=False`` — a "repaired" schedule must be complete);
4. re-simulate on the faulted ADG and compare against the pure-Python
   reference output;
5. classify: ``recovered`` (correct, within :data:`RECOVERED_SLOWDOWN`
   of baseline cycles), ``degraded`` (correct but slower),
   ``unmappable`` (repair *and* remap honestly gave up), or
   ``miscompiled`` (the toolchain claimed success but lied — a bug,
   serialized to a standalone repro file in the fuzz repro format).

Cases are pure functions of ``(seed, index)``: the :class:`FaultCase`
spec carries the workload name, preset, scale and the serialized fault
list, so a repro file replays bit-identically anywhere.
"""

import copy
import json
import math
import os
from dataclasses import dataclass, field

from repro.adg import topologies
from repro.adg.serialize import load_adg
from repro.compiler import compile_kernel
from repro.compiler.codegen import generate_control_program
from repro.errors import CompilationError, SimulationError
from repro.faults.models import (
    FAULT_KINDS,
    FaultSpec,
    apply_faults,
    draw_faults,
)
from repro.scheduler.repair import repair_schedule, strip_invalid
from repro.sim import simulate
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.verify import lint_schedule
from repro.workloads import kernel as make_kernel

#: Repro-file schema version (independent of the fuzz repro version).
FAULT_REPRO_VERSION = 1

#: Simulated-cycle ratio under which a faulted run counts as recovered.
RECOVERED_SLOWDOWN = 1.05

#: Outcome taxonomy, from best to worst.
STATUSES = ("recovered", "degraded", "unmappable", "miscompiled")


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

@dataclass
class WorkloadBaseline:
    """A workload compiled and simulated on the healthy ADG."""

    workload: str
    kernel: object
    adg: object
    compiled: object
    baseline_cycles: int


def _resolve_adg(preset):
    if preset.endswith(".json"):
        return load_adg(preset)
    return topologies.PRESETS[preset]()


def prepare_baseline(workload, preset="softbrain", scale=0.05,
                     sched_iters=120, seed=0, telemetry=None):
    """Compile ``workload`` on the healthy preset and pin its simulated
    cycle count. Raises :class:`CompilationError` when the healthy ADG
    cannot host the workload (a campaign-configuration error, not a
    fault outcome)."""
    adg = _resolve_adg(preset)
    kern = make_kernel(workload, scale)
    compiled = compile_kernel(
        kern, adg, rng=DeterministicRng((seed, "baseline", workload)),
        max_iters=sched_iters, telemetry=telemetry,
    )
    if not compiled.ok:
        raise CompilationError(
            f"baseline compile failed for {workload!r} on {preset!r}"
        )
    memory = kern.make_memory()
    compiled.scope.bind_constants(memory)
    sim = simulate(adg, compiled, memory)
    return WorkloadBaseline(
        workload=workload, kernel=kern, adg=adg, compiled=compiled,
        baseline_cycles=sim.cycles,
    )


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

@dataclass
class FaultCase:
    """One fault-injection case (JSON-serializable, pure in seed/index)."""

    seed: int
    index: int
    workload: str = "mm"
    preset: str = "softbrain"
    scale: float = 0.05
    faults: list = field(default_factory=list)  # [FaultSpec.to_dict()]

    @property
    def name(self):
        return f"fault-{self.seed}-{self.index}"

    def fault_specs(self):
        return [FaultSpec.from_dict(record) for record in self.faults]

    def to_dict(self):
        return {
            "seed": self.seed,
            "index": self.index,
            "workload": self.workload,
            "preset": self.preset,
            "scale": self.scale,
            "faults": [dict(record) for record in self.faults],
        }

    @classmethod
    def from_dict(cls, record):
        return cls(
            seed=record["seed"],
            index=record["index"],
            workload=record.get("workload", "mm"),
            preset=record.get("preset", "softbrain"),
            scale=record.get("scale", 0.05),
            faults=[dict(item) for item in record.get("faults", [])],
        )


def generate_case(seed, index, workloads=("mm",), preset="softbrain",
                  scale=0.05, max_faults=3, kinds=None, adg=None):
    """Draw case ``index`` of campaign ``seed`` — deterministic in
    ``(seed, index)`` alone."""
    rng = DeterministicRng((seed, "fault-case", index))
    workload = rng.choice(sorted(workloads))
    count = rng.randint(1, max(1, max_faults))
    base = adg if adg is not None else _resolve_adg(preset)
    faults = draw_faults(base, rng.fork("draw"), count, kinds=kinds)
    return FaultCase(
        seed=seed, index=index, workload=workload, preset=preset,
        scale=scale, faults=[fault.to_dict() for fault in faults],
    )


# ---------------------------------------------------------------------------
# Degradation engine
# ---------------------------------------------------------------------------

@dataclass
class DegradeOutcome:
    """Classification of one faulted run."""

    status: str                      # one of STATUSES
    workload: str = ""
    fault_count: int = 0
    faults: list = field(default_factory=list)   # human descriptions
    slowdown: float = 0.0            # cycles / baseline (0 when unmappable)
    cycles: int = 0
    baseline_cycles: int = 0
    stripped_entries: int = 0        # mapping state lost to the faults
    repair_iterations: int = 0       # scheduler effort spent repairing
    remap_used: bool = False         # repair failed, full recompile rescued
    detail: str = ""                 # lint codes / error text

    def to_dict(self):
        return {
            "status": self.status,
            "workload": self.workload,
            "fault_count": self.fault_count,
            "faults": list(self.faults),
            "slowdown": self.slowdown,
            "cycles": self.cycles,
            "baseline_cycles": self.baseline_cycles,
            "stripped_entries": self.stripped_entries,
            "repair_iterations": self.repair_iterations,
            "remap_used": self.remap_used,
            "detail": self.detail,
        }

    def describe(self):
        tail = ""
        if self.status in ("recovered", "degraded"):
            tail = f" slowdown={self.slowdown:.2f}x"
        elif self.detail:
            tail = f" ({self.detail[:60]})"
        via = " via-remap" if self.remap_used else ""
        return (f"{self.status}{tail}{via} "
                f"[{'; '.join(self.faults) or 'no faults'}]")


def _memories_for(baseline, scope):
    memory = baseline.kernel.make_memory()
    scope.bind_constants(memory)
    reference = copy.deepcopy(memory)
    baseline.kernel.reference(reference)
    return memory, reference


def _outputs_match(memory, reference):
    return all(
        all(math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
            for a, b in zip(memory[array], reference[array]))
        for array in memory
    )


def degrade(baseline, faults, rng=None, sched_iters=120,
            remap_rescue=True, telemetry=None, mode="repair",
            sim_engine=None):
    """Inject ``faults`` into ``baseline``'s ADG, repair, verify, and
    re-simulate. Returns a :class:`DegradeOutcome`; never raises for a
    fault-induced failure (that is the ``unmappable`` outcome).

    ``mode="remap"`` skips the repair path entirely and recovers by
    recompiling from scratch (requires ``remap_rescue``) — the control
    arm for measuring what schedule repair buys under faults.
    ``sim_engine`` picks the replay engine (``None`` = session default)."""
    if rng is None:
        rng = DeterministicRng("degrade")
    telemetry = telemetry if telemetry is not None else Telemetry()
    outcome = DegradeOutcome(
        status="unmappable",
        workload=baseline.workload,
        fault_count=len(faults),
        faults=[fault.describe() for fault in faults],
        baseline_cycles=baseline.baseline_cycles,
    )

    faulted = baseline.adg.clone()
    apply_faults(faulted, faults)

    repaired = None
    cost = None
    if mode == "repair":
        schedule = baseline.compiled.schedule.clone()
        outcome.stripped_entries = strip_invalid(schedule, faulted)

        repair_meter = Telemetry()
        try:
            with telemetry.timer("faults/repair"):
                repaired, cost = repair_schedule(
                    schedule, faulted, rng=rng.fork("repair"),
                    max_iters=sched_iters, telemetry=repair_meter,
                )
        except CompilationError as exc:
            outcome.detail = f"repair: {exc}"
        outcome.repair_iterations = repair_meter.counters.get(
            "sched_iterations", 0
        )
        telemetry.incr("fault_repair_iterations",
                       outcome.repair_iterations)

    program = None
    if repaired is not None and cost.is_legal:
        report = lint_schedule(repaired, faulted, allow_partial=False)
        if report.errors:
            outcome.status = "miscompiled"
            outcome.detail = "lint after repair: " + ",".join(
                sorted(report.codes())
            )
            return outcome
        try:
            program = generate_control_program(repaired.scope, repaired)
        except Exception as exc:  # codegen on a lint-clean schedule
            outcome.status = "miscompiled"
            outcome.detail = f"codegen after repair: {exc}"
            return outcome
    elif remap_rescue:
        # Honest failure path: repair could not recover a legal mapping,
        # so pay for a full re-compile on the faulted hardware.
        telemetry.incr("fault_full_remaps")
        with telemetry.timer("faults/remap"):
            recompiled = compile_kernel(
                baseline.kernel, faulted, rng=rng.fork("remap"),
                max_iters=sched_iters,
            )
        telemetry.incr("fault_remap_iterations", recompiled.sched_effort)
        if not recompiled.ok:
            outcome.detail = outcome.detail or "remap found no legal mapping"
            return outcome
        outcome.remap_used = True
        repaired = recompiled.schedule
        report = lint_schedule(repaired, faulted, allow_partial=False)
        if report.errors:
            outcome.status = "miscompiled"
            outcome.detail = "lint after remap: " + ",".join(
                sorted(report.codes())
            )
            return outcome
        program = recompiled.program
    else:
        outcome.detail = outcome.detail or "repair found no legal mapping"
        return outcome

    faulted_compiled = copy.copy(baseline.compiled)
    faulted_compiled.schedule = repaired
    faulted_compiled.scope = repaired.scope
    faulted_compiled.program = program

    memory, reference = _memories_for(baseline, faulted_compiled.scope)
    try:
        with telemetry.timer("faults/simulate"):
            sim = simulate(faulted, faulted_compiled, memory,
                           engine=sim_engine, telemetry=telemetry)
    except SimulationError as exc:
        outcome.status = "miscompiled"
        outcome.detail = f"simulation: {exc}"
        return outcome

    if not _outputs_match(memory, reference):
        outcome.status = "miscompiled"
        outcome.detail = "simulated output diverges from reference"
        return outcome

    outcome.cycles = sim.cycles
    outcome.slowdown = (sim.cycles / baseline.baseline_cycles
                        if baseline.baseline_cycles else 1.0)
    outcome.status = ("recovered"
                      if outcome.slowdown <= RECOVERED_SLOWDOWN
                      else "degraded")
    return outcome


def run_case(case, baseline=None, sched_iters=120, remap_rescue=True,
             telemetry=None, sim_engine=None):
    """Run one :class:`FaultCase` end to end; returns the outcome.

    ``baseline`` may be supplied to amortize the healthy compile across
    cases of the same workload (the campaign runner does this)."""
    if baseline is None:
        baseline = prepare_baseline(
            case.workload, preset=case.preset, scale=case.scale,
            sched_iters=sched_iters, seed=case.seed,
        )
    return degrade(
        baseline, case.fault_specs(),
        rng=DeterministicRng((case.seed, "degrade", case.index)),
        sched_iters=sched_iters, remap_rescue=remap_rescue,
        telemetry=telemetry, sim_engine=sim_engine,
    )


# ---------------------------------------------------------------------------
# Repro files (fuzz format) + shrinking
# ---------------------------------------------------------------------------

def write_repro(path, case, outcome):
    """Serialize a miscompiled case as a standalone JSON repro file."""
    record = {
        "version": FAULT_REPRO_VERSION,
        "kind": "fault",
        "spec": case.to_dict(),
        "status": outcome.status,
        "outcome": outcome.to_dict(),
        "replay": "PYTHONPATH=src python -m repro faults --replay <this file>",
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return path


def load_repro(path):
    """Load a fault repro file back into a :class:`FaultCase`."""
    with open(path) as handle:
        record = json.load(handle)
    version = record.get("version")
    if version != FAULT_REPRO_VERSION:
        raise ValueError(
            f"repro file {path!r} has version {version!r}; "
            f"expected {FAULT_REPRO_VERSION}"
        )
    return FaultCase.from_dict(record["spec"])


def replay_repro(path, sched_iters=120):
    """Re-run a serialized fault repro; returns its outcome."""
    return run_case(load_repro(path), sched_iters=sched_iters)


def _shrink_candidates(case):
    """Smaller variants of ``case``, most aggressive first."""
    faults = case.faults
    seen = set()
    for subset in (
        [faults[: len(faults) // 2]] if len(faults) > 1 else []
    ) + [
        faults[:i] + faults[i + 1:] for i in range(len(faults))
    ]:
        if not subset:
            continue
        key = json.dumps(subset, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        yield FaultCase(
            seed=case.seed, index=case.index, workload=case.workload,
            preset=case.preset, scale=case.scale,
            faults=[dict(record) for record in subset],
        )


def shrink_case(case, baseline=None, sched_iters=120, max_rounds=12):
    """Greedy fault-list shrinking: keep any smaller case that still
    miscompiles. Returns ``(case, outcome)`` for the smallest found."""
    best_outcome = run_case(case, baseline=baseline,
                            sched_iters=sched_iters)
    if best_outcome.status != "miscompiled":
        return case, best_outcome
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(case):
            outcome = run_case(candidate, baseline=baseline,
                               sched_iters=sched_iters)
            if outcome.status == "miscompiled":
                case, best_outcome = candidate, outcome
                break
        else:
            break
    return case, best_outcome


def report_miscompile(case, outcome, out_dir, baseline=None,
                      sched_iters=120, shrink=True):
    """Shrink (optionally) and write a repro file; returns its path."""
    if shrink:
        case, outcome = shrink_case(case, baseline=baseline,
                                    sched_iters=sched_iters)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{case.name}.json")
    return write_repro(path, case, outcome)


__all__ = [
    "FAULT_KINDS",
    "FAULT_REPRO_VERSION",
    "RECOVERED_SLOWDOWN",
    "STATUSES",
    "DegradeOutcome",
    "FaultCase",
    "WorkloadBaseline",
    "degrade",
    "generate_case",
    "load_repro",
    "prepare_baseline",
    "replay_repro",
    "report_miscompile",
    "run_case",
    "shrink_case",
    "write_repro",
]
