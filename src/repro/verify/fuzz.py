"""Differential fuzzing across the compiler/sim/hardware stack.

Each fuzz case is a *specification* — a seed, an opcode chain, a trip
count, and an ADG-mutation budget — and everything else (input data, the
dataflow graph, the mutated architecture) is a pure function of that
spec. That makes the three hard problems of fuzzing trivial:

* **determinism** — replaying a spec rebuilds the identical case;
* **shrinking** — mutate the spec (halve the trip count, truncate the
  opcode suffix, drop the reduction, remove ADG mutations) and re-run;
* **repro files** — serialize the spec, not the universe.

Every case runs the full stack and diffs each pair of layers that claim
to implement the same semantics:

1. an independent pure-Python evaluation of the spec (the reference);
2. the IR interpreter (:func:`repro.ir.interp.execute_scope`);
3. the ``stepped`` cycle-level engine;
4. the ``event`` cycle-skipping engine (bit-identical to 3);
5. the schedule linter and the bitstream round-trip checker.

Cases the scheduler cannot map on the mutated fabric are *skipped*, not
failed — mutation can legally remove required capability.
"""

import json
from dataclasses import asdict, dataclass, field

from repro.adg.topologies import PRESETS
from repro.compiler.kernel import Kernel, VariantSpace
from repro.compiler.pipeline import compile_kernel
from repro.dse.mutation import AdgMutator
from repro.errors import (
    CompilationError,
    DseError,
    IrError,
    SimulationError,
)
from repro.ir.dfg import Dfg
from repro.ir.interp import execute_scope
from repro.ir.region import ConfigScope, OffloadRegion
from repro.isa.opcodes import OPCODES, evaluate
from repro.sim import simulate
from repro.utils.rng import DeterministicRng
from repro.verify.bitstream import (
    check_bitstream_roundtrip,
    check_control_program,
)
from repro.verify.lint import lint_schedule
from repro.workloads.util import int_data, read, write, zeros

#: Opcodes the generator draws from: integer-deterministic, arity <= 3,
#: supported by every PE preset.
FUZZ_OPS = (
    "add", "sub", "mul", "min", "max", "abs",
    "and", "or", "xor",
    "cmp_lt", "cmp_gt", "cmp_eq", "cmp_le",
    "select", "copy",
)
#: Reduction opcodes (folded as ``state = op(state, value)``).
FUZZ_REDUCTIONS = ("acc", "max", "min", "xor")

#: Spec format version written into repro files.
REPRO_VERSION = 1


@dataclass
class FuzzCase:
    """One case's full specification (JSON-serializable)."""

    seed: int
    index: int
    preset: str = "softbrain"
    trip: int = 4
    num_inputs: int = 2
    ops: list = field(default_factory=list)   # [[op, [arg indices]], ...]
    reduce_op: str = ""                        # "" = no reduction
    mutations: int = 0

    @property
    def name(self):
        return f"fuzz-{self.seed}-{self.index}"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, record):
        case = cls(**{
            key: record[key] for key in (
                "seed", "index", "preset", "trip", "num_inputs",
                "ops", "reduce_op", "mutations",
            )
        })
        case.ops = [[op, list(args)] for op, args in case.ops]
        return case


@dataclass
class CaseResult:
    """Outcome of running one case through the stack."""

    case: FuzzCase
    status: str = "ok"          # ok | divergent | unschedulable
    divergences: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.status == "divergent"

    def record(self, kind, detail, **data):
        self.status = "divergent"
        self.divergences.append(
            {"kind": kind, "detail": detail, "data": data}
        )


# ---------------------------------------------------------------------------
# Case generation (pure functions of the spec)
# ---------------------------------------------------------------------------

def generate_case(seed, index, preset="softbrain", max_mutations=2):
    """Draw one :class:`FuzzCase` spec."""
    rng = DeterministicRng((seed, "case", index))
    num_inputs = rng.randint(1, 3)
    trip = rng.randint(2, 10)
    num_ops = rng.randint(1, 6)
    ops = []
    for position in range(num_ops):
        op = rng.choice(FUZZ_OPS)
        arity = OPCODES[op].arity
        pool = num_inputs + position
        args = [rng.randint(0, pool - 1) for _ in range(arity)]
        ops.append([op, args])
    reduce_op = ""
    if rng.randint(0, 9) < 4:
        reduce_op = rng.choice(FUZZ_REDUCTIONS)
    mutations = rng.randint(0, max_mutations) if max_mutations else 0
    return FuzzCase(
        seed=seed, index=index, preset=preset, trip=trip,
        num_inputs=num_inputs, ops=ops, reduce_op=reduce_op,
        mutations=mutations,
    )


def build_adg(case):
    """The (possibly mutated) architecture for a case.

    Mutation draws come from a spec-determined stream; when fewer than
    ``case.mutations`` legal edits exist the achievable prefix applies.
    """
    base = PRESETS[case.preset]()
    if not case.mutations:
        return base
    mutator = AdgMutator(DeterministicRng((case.seed, "adg", case.index)))
    try:
        mutated, _ = mutator.mutate(base, count=case.mutations)
    except DseError:
        return base
    return mutated


def build_scope(case):
    """The decoupled-dataflow program for a case."""
    dfg = Dfg(case.name)
    values = [
        dfg.add_input(f"i{position}")
        for position in range(case.num_inputs)
    ]
    for op, args in case.ops:
        operands = [values[arg] for arg in args]
        values.append(dfg.add_instr(op, operands))
    final = values[-1]
    out_words = case.trip
    if case.reduce_op:
        final = dfg.add_instr(
            case.reduce_op, [final], reduction=True, emit_every=0, init=0,
        )
        out_words = 1
    dfg.add_output("o0", [final])

    region = OffloadRegion(
        name=case.name,
        dfg=dfg,
        input_streams={
            f"i{position}": read(f"in{position}", case.trip)
            for position in range(case.num_inputs)
        },
        output_streams={"o0": write("out", out_words)},
    )
    return ConfigScope(name=case.name, regions=[region])


def build_memory(case):
    """Fresh input arrays + zeroed output for a case."""
    memory = {
        f"in{position}": int_data(
            case.trip, (case.seed, case.index, position)
        )
        for position in range(case.num_inputs)
    }
    memory["out"] = zeros(1 if case.reduce_op else case.trip)
    return memory


def reference_output(case, memory):
    """Evaluate the spec directly — no IR, no scheduler, no simulator."""
    results = []
    state = 0
    for instance in range(case.trip):
        pool = [
            memory[f"in{position}"][instance]
            for position in range(case.num_inputs)
        ]
        for op, args in case.ops:
            pool.append(evaluate(op, [pool[arg] for arg in args]))
        if case.reduce_op:
            state = evaluate(case.reduce_op, [state, pool[-1]])
        else:
            results.append(pool[-1])
    return [state] if case.reduce_op else results


def build_kernel(case):
    """Wrap the case as a compiler :class:`Kernel` (scalar variant only)."""
    scope = build_scope(case)
    return Kernel(
        name=case.name,
        builder=lambda params: scope,
        space=VariantSpace(unroll_factors=(1,)),
        make_memory=lambda: build_memory(case),
        description="differential fuzz case",
    )


# ---------------------------------------------------------------------------
# Running a case
# ---------------------------------------------------------------------------

def run_case(case, sched_iters=150):
    """Run one case through every layer pair; returns a
    :class:`CaseResult`."""
    result = CaseResult(case=case)
    adg = build_adg(case)
    try:
        compiled = compile_kernel(
            build_kernel(case), adg,
            rng=DeterministicRng((case.seed, "sched", case.index)),
            max_iters=sched_iters, max_scheduled_variants=1,
        )
    except CompilationError:
        compiled = None
    if compiled is None or not compiled.ok:
        result.status = "unschedulable"
        return result

    lint = lint_schedule(compiled.schedule, adg)
    result.reports["lint"] = lint
    if not lint.ok:
        result.record("lint", lint.describe(), codes=lint.codes())

    config = check_bitstream_roundtrip(adg, compiled.schedule)
    config.merge(
        check_control_program(
            compiled.scope, compiled.schedule, compiled.program
        )
    )
    result.reports["config"] = config
    if not config.ok:
        result.record("config", config.describe(), codes=config.codes())

    expected = reference_output(case, build_memory(case))

    interp_memory = build_memory(case)
    try:
        execute_scope(compiled.scope, interp_memory)
    except IrError as exc:
        result.record("interp-crash", str(exc))
        return result
    if list(interp_memory["out"]) != expected:
        result.record(
            "interp-mismatch",
            "IR interpreter output differs from the spec reference",
            interp=list(interp_memory["out"]), expected=expected,
        )

    engine_results = {}
    for engine in ("stepped", "event"):
        memory = build_memory(case)
        try:
            engine_results[engine] = simulate(adg, compiled, memory,
                                              engine=engine)
        except (SimulationError, IrError) as exc:
            result.record(f"sim-crash-{engine}", str(exc))
            return result
        if list(memory["out"]) != expected:
            result.record(
                f"sim-mismatch-{engine}",
                f"{engine} engine output differs from the spec reference",
                simulated=list(memory["out"]), expected=expected,
            )

    _diff_engines(result, "event", engine_results["stepped"],
                  engine_results["event"])
    return result


def _diff_engines(result, engine, stepped, other):
    """Record any field where ``engine`` disagrees with the ``stepped``
    oracle."""
    for attribute in ("cycles", "instances", "region_cycles"):
        left = getattr(stepped, attribute)
        right = getattr(other, attribute)
        if left != right:
            result.record(
                "engine-divergence",
                f"stepped and {engine} engines disagree on {attribute}",
                attribute=attribute, stepped=left, **{engine: right},
            )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _shrink_candidates(case):
    """Strictly simpler specs to try, most aggressive first."""
    candidates = []

    def variant(**updates):
        record = case.to_dict()
        record.update(updates)
        candidates.append(FuzzCase.from_dict(record))

    if case.mutations:
        variant(mutations=0)
        if case.mutations > 1:
            variant(mutations=case.mutations - 1)
    if len(case.ops) > 1:
        variant(ops=case.ops[: len(case.ops) // 2])
        variant(ops=case.ops[:-1])
    if case.reduce_op:
        variant(reduce_op="")
    if case.trip > 1:
        variant(trip=max(1, case.trip // 2))
        variant(trip=case.trip - 1)
    return candidates


def shrink_case(case, max_attempts=48, sched_iters=150):
    """Greedily minimize a failing case.

    Keeps any candidate that still *fails* (same or different divergence
    kind — a simpler failure is a better repro). Returns the final
    (case, result) pair; ``result`` is the failing run of the returned
    case.
    """
    result = run_case(case, sched_iters=sched_iters)
    if not result.failed:
        return case, result
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(case):
            attempts += 1
            if attempts > max_attempts:
                break
            candidate_result = run_case(
                candidate, sched_iters=sched_iters
            )
            if candidate_result.failed:
                case, result = candidate, candidate_result
                improved = True
                break
    return case, result


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------

def write_repro(path, case, result):
    """Serialize a failing case as a standalone JSON repro file."""
    record = {
        "version": REPRO_VERSION,
        "spec": case.to_dict(),
        "status": result.status,
        "divergences": [
            {
                "kind": item["kind"],
                "detail": item["detail"],
                "data": {k: repr(v) for k, v in item["data"].items()},
            }
            for item in result.divergences
        ],
        "reports": {
            name: report.to_dict()
            for name, report in result.reports.items()
        },
        "replay": "PYTHONPATH=src python -m repro fuzz --replay <this file>",
    }
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repro(path):
    """Load a repro file back into a :class:`FuzzCase`."""
    with open(path) as handle:
        record = json.load(handle)
    version = record.get("version")
    if version != REPRO_VERSION:
        raise ValueError(
            f"repro file {path!r} has version {version!r}; "
            f"expected {REPRO_VERSION}"
        )
    return FuzzCase.from_dict(record["spec"])


def replay_repro(path, sched_iters=150):
    """Re-run a serialized repro; returns its :class:`CaseResult`."""
    return run_case(load_repro(path), sched_iters=sched_iters)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass
class FuzzSummary:
    """Outcome of one fuzz campaign."""

    seed: int
    cases: int = 0
    passed: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)  # (case, result)
    repro_paths: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        verdict = "clean" if self.ok else f"{len(self.failures)} DIVERGENT"
        return (
            f"fuzz seed={self.seed}: {self.cases} case(s), "
            f"{self.passed} passed, {self.skipped} unschedulable, "
            f"{verdict}"
        )


def run_fuzz(cases=25, seed=2026, shrink=True, out_dir=None,
             preset="softbrain", max_mutations=2, sched_iters=150,
             progress=None):
    """Run a fuzz campaign; returns a :class:`FuzzSummary`.

    ``out_dir`` (created on demand) receives one shrunk JSON repro per
    failing case. ``progress`` is an optional ``callable(str)`` for
    per-case status lines.
    """
    import os

    summary = FuzzSummary(seed=seed, cases=cases)
    for index in range(cases):
        case = generate_case(
            seed, index, preset=preset, max_mutations=max_mutations
        )
        result = run_case(case, sched_iters=sched_iters)
        if result.status == "unschedulable":
            summary.skipped += 1
            if progress:
                progress(f"[{index + 1}/{cases}] {case.name}: skipped "
                         "(unschedulable after mutation)")
            continue
        if not result.failed:
            summary.passed += 1
            if progress:
                progress(f"[{index + 1}/{cases}] {case.name}: ok")
            continue
        if shrink:
            case, result = shrink_case(case, sched_iters=sched_iters)
        summary.failures.append((case, result))
        if progress:
            kinds = sorted({d["kind"] for d in result.divergences})
            progress(f"[{index + 1}/{cases}] {case.name}: DIVERGENT "
                     f"({', '.join(kinds)})")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"repro-{case.name}.json")
            summary.repro_paths.append(write_repro(path, case, result))
    return summary
