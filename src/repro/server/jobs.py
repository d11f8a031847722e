"""Job specifications and the pure worker function.

A :class:`JobSpec` is JSON-serializable and *pure in its inputs* — like
``FuzzCase`` and ``FaultSpec``, the artifact it produces is a
deterministic function of the spec alone (preset/ADG structure,
workload name + scale, seed, iteration budget, flags). That purity is
what makes the content-addressed store sound: :func:`job_key` encodes
exactly the fields the computation depends on (tenant and priority are
scheduling metadata and are excluded), and two processes that compute
the same key produce bit-identical artifacts.

Job kinds:

``compile``
    ``compile_kernel(workload, adg)`` → the ``CompiledKernel``.
``simulate``
    compile (reusing a cached compile artifact when the server has
    one), then cycle-simulate → the ``SimResult`` (includes the final
    memory image).
``faults``
    a fault-injection campaign (``repro.faults.run_campaign``) → a
    plain summary dict (counts + degradation curves).
``dse``
    a design-space exploration → best ADG (as a dict) + objective.
``compose``
    merged & multi-accelerator synthesis (``repro.dse.run_compose``):
    specialize every kernel of the workload set, then sweep merged vs.
    partitioned vs. per-kernel compositions across shared area budgets
    → per-budget winners + a strategy scoreboard (plain dict).
``noop``
    sleeps ``options["duration"]`` seconds; never cached. Exists so
    tests and load generators can exercise queueing, priorities, and
    quotas without paying for compiles.

:func:`execute_job` is module-level and takes/returns only picklable
plain data, so it runs unchanged inline, in a thread, or in a forked
pool worker.
"""

import pickle
import time
from dataclasses import asdict, dataclass, field

from repro.utils.fingerprint import canonical_dumps, content_digest

JOB_KINDS = ("compile", "simulate", "faults", "dse", "compose", "noop")
#: Kinds whose artifacts are pure in the spec and therefore cacheable.
CACHEABLE_KINDS = ("compile", "simulate", "faults", "dse", "compose")
JOB_KEY_VERSION = 1


@dataclass
class JobSpec:
    """One request to the compile service (JSON-serializable)."""

    kind: str
    workload: str = "mm"          # comma-separated for faults/dse
    preset: str = "softbrain"
    adg: dict = None              # inline ADG dict; overrides preset
    scale: float = 0.05
    seed: int = 0
    sched_iters: int = 60
    attempts: int = 2
    sim_engine: str = None        # simulate/faults replay loop
    options: dict = field(default_factory=dict)  # kind-specific extras
    tenant: str = "default"       # scheduling metadata (not in the key)
    priority: int = 10            # lower runs sooner (not in the key)

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; one of {JOB_KINDS}"
            )

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, record):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        return cls(**record)


def _preset_factory(name):
    from repro.adg import topologies

    try:
        return topologies.PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; one of "
            f"{sorted(topologies.PRESETS)}"
        )


def resolve_adg(spec):
    """The target ADG for a spec: the inline dict if given, else the
    named preset."""
    from repro.adg.serialize import adg_from_dict

    if spec.adg is not None:
        return adg_from_dict(spec.adg)
    return _preset_factory(spec.preset)()


#: Per-process encoded fingerprints of preset fabrics, keyed by the
#: factory object rather than the preset name, so a replaced ``PRESETS``
#: entry never reuses the fingerprint of the fabric it replaced.
_preset_fingerprints = {}


def _encoded_fingerprint(spec):
    """``canonical_dumps`` of the spec's fabric fingerprint: encoded once
    per process for a preset, on every call for an inline ``adg``."""
    from repro.harness.compile_cache import adg_fingerprint

    if spec.adg is not None:
        return canonical_dumps(adg_fingerprint(resolve_adg(spec)))
    factory = _preset_factory(spec.preset)
    encoded = _preset_fingerprints.get(factory)
    if encoded is None:
        encoded = canonical_dumps(adg_fingerprint(factory()))
        _preset_fingerprints[factory] = encoded
    return encoded


def job_key(spec):
    """The canonical store key of a cacheable job: every field the
    artifact depends on, none of the scheduling metadata — the
    ``canonical_dumps`` of the list ``["job", version, kind, fabric
    fingerprint, workload, scale, seed, sched_iters, attempts,
    sim_engine, options]``. It is spliced from encoded items, so a
    preset's ~50 KB fingerprint is not escaped again per request, and
    in one join, so the key is the only large string built."""
    head = ",".join(map(canonical_dumps, ("job", JOB_KEY_VERSION,
                                          spec.kind)))
    tail = ",".join(map(canonical_dumps, (
        spec.workload, spec.scale, spec.seed, spec.sched_iters,
        spec.attempts, spec.sim_engine,
        {k: spec.options[k] for k in sorted(spec.options)},
    )))
    return "".join(('["l",[', head, ",", _encoded_fingerprint(spec), ",",
                    tail, "]]"))


def compile_subkey(spec):
    """The key of the compile artifact a ``simulate`` job builds on —
    lets the server reuse a cached compile for a fresh simulation."""
    sub = JobSpec(
        kind="compile", workload=spec.workload, preset=spec.preset,
        adg=spec.adg, scale=spec.scale, seed=spec.seed,
        sched_iters=spec.sched_iters, attempts=spec.attempts,
    )
    return job_key(sub)


# -- worker ------------------------------------------------------------
def execute_job(spec_dict, compiled_payload=None):
    """Run one job; returns a plain picklable dict:

    ``{"status": "ok"|"failed", "payload": pickle-bytes-of-artifact,
    "summary": {...}, "seconds": float, "derived": {key: {"status",
    "summary", "payload"}}}``

    ``compiled_payload`` is an optional pickled ``CompiledKernel`` the
    caller already holds for this spec's compile subkey (simulate jobs
    skip recompiling). ``derived`` carries byproducts worth caching —
    a simulate job that had to compile returns the compile artifact,
    with the status and summary a ``compile`` job would have given it,
    so the server can store both.
    """
    spec = JobSpec.from_dict(dict(spec_dict))
    start = time.perf_counter()
    runner = _RUNNERS[spec.kind]
    artifact, summary, status, derived = runner(spec, compiled_payload)
    return {
        "status": status,
        "payload": pickle.dumps(artifact, protocol=4),
        "summary": summary,
        "seconds": time.perf_counter() - start,
        "derived": derived,
    }


def _compile(spec):
    from repro.compiler import compile_kernel
    from repro.utils.rng import DeterministicRng
    from repro.workloads import kernel as make_kernel

    adg = resolve_adg(spec)
    workload = make_kernel(spec.workload, spec.scale)
    result = compile_kernel(
        workload, adg,
        rng=DeterministicRng(spec.seed), max_iters=spec.sched_iters,
        attempts=spec.attempts,
    )
    return adg, workload, result


def _compile_outcome(result):
    """``(summary, status)`` of a compile result, whichever job ran it."""
    summary = {
        "ok": result.ok,
        "kernel": result.kernel_name,
        "estimated_cycles": result.estimated_cycles,
        "sched_effort": result.sched_effort,
        "rejected": len(result.rejected),
    }
    if result.ok:
        summary["variant"] = result.params.describe()
        summary["schedule"] = result.schedule.summary()
    return summary, "ok" if result.ok else "failed"


def _run_compile(spec, compiled_payload):
    _, _, result = _compile(spec)
    summary, status = _compile_outcome(result)
    return result, summary, status, {}


def _run_simulate(spec, compiled_payload):
    from repro.sim import simulate
    from repro.workloads import kernel as make_kernel

    derived = {}
    if compiled_payload is not None:
        compiled = pickle.loads(compiled_payload)
        adg = resolve_adg(spec)
        workload = make_kernel(spec.workload, spec.scale)
    else:
        adg, workload, compiled = _compile(spec)
        summary, status = _compile_outcome(compiled)
        derived[compile_subkey(spec)] = {
            "status": status, "summary": summary,
            "payload": pickle.dumps(compiled, protocol=4),
        }
    if not compiled.ok:
        return (None, {"ok": False, "error": "no legal mapping"},
                "failed", derived)
    memory = workload.make_memory()
    compiled.scope.bind_constants(memory)
    sim = simulate(adg, compiled, memory, engine=spec.sim_engine)
    summary = {
        "ok": True,
        "cycles": sim.cycles,
        "config_cycles": sim.config_cycles,
        "regions": len(sim.region_cycles),
    }
    return sim, summary, "ok", derived


def _run_faults(spec, compiled_payload):
    from repro.faults import run_campaign

    options = spec.options
    summary_obj = run_campaign(
        workloads=[n.strip() for n in spec.workload.split(",")
                   if n.strip()],
        cases=int(options.get("cases", 5)),
        seed=spec.seed,
        preset=spec.preset,
        scale=spec.scale,
        max_faults=int(options.get("max_faults", 2)),
        sched_iters=spec.sched_iters,
        workers=1,
        shrink=False,
        sim_engine=spec.sim_engine,
    )
    artifact = {
        "seed": summary_obj.seed,
        "cases": summary_obj.cases,
        "counts": dict(sorted(summary_obj.counts.items())),
        "curve_rows": summary_obj.curve_rows(),
    }
    summary = {"ok": summary_obj.ok, "counts": artifact["counts"]}
    return artifact, summary, "ok" if summary_obj.ok else "failed", {}


def _run_dse(spec, compiled_payload):
    from repro.adg.serialize import adg_to_dict
    from repro.dse import DesignSpaceExplorer
    from repro.utils.rng import DeterministicRng
    from repro.workloads import kernel as make_kernel

    names = [n.strip() for n in spec.workload.split(",") if n.strip()]
    kernels = [make_kernel(name, spec.scale) for name in names]
    options = spec.options
    # Fidelity knobs come from the spec only (never the environment):
    # they ride in spec.options, which job_key folds in, so cached
    # results can never alias across fidelity settings — and a served
    # job replays identically on any host.
    explorer = DesignSpaceExplorer(
        kernels, resolve_adg(spec),
        rng=DeterministicRng(spec.seed),
        sched_iters=spec.sched_iters,
        fidelity=options.get("fidelity", "multi"),
        surrogate_top=(
            int(options["surrogate_top"])
            if options.get("surrogate_top") is not None else None
        ),
        surrogate_widen=int(options.get("surrogate_widen", 8)),
        recalibrate_every=int(options.get("recalibrate_every", 16)),
    )
    result = explorer.run(
        max_iters=int(spec.options.get("iters", 3))
    )
    counters = explorer.telemetry.counters
    artifact = {
        "best_adg": adg_to_dict(result.best_adg),
        "best_objective": result.best_objective,
        "final_area": result.final_area,
        "iterations": len(result.history),
        "fidelity": explorer.fidelity,
        "candidates_considered": counters.get(
            "candidates_considered", 0
        ),
        "candidates_evaluated": counters.get("candidates_evaluated", 0),
        "surrogate": (
            explorer.surrogate.stats()
            if explorer.surrogate is not None else None
        ),
    }
    summary = {
        "ok": True,
        "best_objective": result.best_objective,
        "final_area": result.final_area,
        "fidelity": explorer.fidelity,
    }
    return artifact, summary, "ok", {}


def _run_compose(spec, compiled_payload):
    from repro.dse import partition_strategy, run_compose
    from repro.utils.rng import DeterministicRng
    from repro.workloads import kernel as make_kernel

    names = [n.strip() for n in spec.workload.split(",") if n.strip()]
    kernels = [make_kernel(name, spec.scale) for name in names]
    options = spec.options
    # Like dse: every trajectory knob rides in the spec (and therefore
    # the job key), so cached compositions never alias across settings.
    out = run_compose(
        kernels,
        rng=DeterministicRng(spec.seed),
        budgets=options.get("budgets"),
        budget_fractions=tuple(options.get(
            "budget_fractions", (0.6, 0.8, 1.0)
        )),
        sched_iters=spec.sched_iters,
        specialize_sched_iters=(
            int(options["specialize_sched_iters"])
            if options.get("specialize_sched_iters") is not None
            else None
        ),
        max_iters=int(options.get("iters", 3)),
        fidelity=options.get("fidelity", "multi"),
        surrogate_top=(
            int(options["surrogate_top"])
            if options.get("surrogate_top") is not None else None
        ),
        surrogate_widen=int(options.get("surrogate_widen", 4)),
        recalibrate_every=int(options.get("recalibrate_every", 16)),
    )
    budgets = []
    for budget in out["budgets"]:
        outcome = out["results"][budget]
        if outcome is None:
            budgets.append({
                "area_budget_mm2": budget, "feasible": False,
            })
            continue
        budgets.append({
            "area_budget_mm2": budget,
            "feasible": True,
            "best_partition": [list(c) for c in outcome.best_partition],
            "best_strategy": partition_strategy(outcome.best_partition),
            "best_objective": outcome.best_objective,
            "strategy_best": dict(outcome.strategy_best),
            "candidates": len(outcome.history),
        })
    artifact = {
        "workloads": names,
        "specialized_area_mm2": out["specialized_area_mm2"],
        "budgets": budgets,
        "strategy_best": dict(out["strategy_best"]),
    }
    summary = {
        "ok": True,
        "specialized_area_mm2": out["specialized_area_mm2"],
        "strategy_best": dict(out["strategy_best"]),
    }
    return artifact, summary, "ok", {}


def _run_noop(spec, compiled_payload):
    duration = float(spec.options.get("duration", 0.0))
    if duration > 0:
        time.sleep(duration)
    if spec.options.get("fail"):
        # Deterministic failure path for robustness tests: exercises
        # the worker-error branch without a real broken workload.
        raise RuntimeError(f"noop asked to fail: {spec.options['fail']}")
    return ({"slept": duration}, {"ok": True, "slept": duration},
            "ok", {})


_RUNNERS = {
    "compile": _run_compile,
    "simulate": _run_simulate,
    "faults": _run_faults,
    "dse": _run_dse,
    "compose": _run_compose,
    "noop": _run_noop,
}


# -- artifact digests --------------------------------------------------
def artifact_digest(artifact):
    """A canonical content digest of a served artifact, comparable
    across processes (no reliance on pickle byte-stability or hash
    randomization). Used by the smoke tests to pin served == direct."""
    from repro.compiler.pipeline import CompiledKernel
    from repro.sim.machine import SimResult

    if isinstance(artifact, CompiledKernel):
        return content_digest(_compiled_facts(artifact))
    if isinstance(artifact, SimResult):
        return content_digest(_sim_facts(artifact))
    return content_digest(artifact)


def _vertex_name(vertex):
    # Scheduler vertices are immutable slotted keys with a stable
    # ``region#node_id`` repr.
    return repr(vertex)


def _compiled_facts(result):
    facts = ["compiled", result.kernel_name, result.ok]
    if not result.ok:
        return facts + [len(result.rejected)]
    schedule = result.schedule
    placement = sorted(
        (_vertex_name(vertex), str(node))
        for vertex, node in schedule.placement.items()
    )
    routes = sorted(
        (repr(edge), [str(link) for link in links])
        for edge, links in schedule.routes.items()
    )
    delays = sorted(
        (repr(edge), int(extra))
        for edge, extra in schedule.input_delays.items()
    )
    program = [repr(command) for command in result.program] \
        if result.program is not None else []
    facts += [
        result.params.describe(),
        float(result.perf.cycles),
        placement, routes, delays, program,
    ]
    return facts


def _sim_facts(sim):
    return [
        "sim", int(sim.cycles), int(sim.config_cycles),
        sorted((str(k), int(v)) for k, v in sim.region_cycles.items()),
        sorted((str(k), float(v)) for k, v in sim.memory_busy.items()),
        sorted(
            (str(name), [float(v) for v in values])
            for name, values in sim.memory.items()
        ),
        sorted((str(k), int(v)) for k, v in sim.instances.items()),
    ]
