"""The iterative co-design loop (Section V), generational and parallel.

Each generation clones the incumbent ADG into a batch of ``batch``
mutated candidates, evaluates every candidate (repair every kernel's
schedule on the new hardware — Section V-A, the key speedup over
remapping from scratch, evaluated in Figure 11 — then estimate
performance/area/power with the analytical models), and accepts the best
candidate whose perf^2/mm^2 objective improves on the incumbent.

Candidate evaluation runs through the generation funnel of
:mod:`repro.dse.funnel`, shared with the composition explorer: keyed
seeds and index-ordered acceptance make ``workers=N`` bit-identical to
``workers=1``, and the default ``fidelity="multi"`` ranks a widened
generation with the online surrogate and the analytical budget filter
so only the finalists pay for repair + compile. Forked workers inherit
the (unpicklable, closure-carrying) kernel set from the parent; only
the candidate ADG and warm schedules cross the process boundary.

Every stage (mutate / surrogate / estimate / compile) is wrapped in
:class:`repro.utils.telemetry.Telemetry` timers and counters, and each
generation can be appended to a JSONL run log.
"""

import math
import time
from dataclasses import dataclass, field

from repro.adg.features import graph_feature_vector
from repro.compiler.pipeline import compile_kernel
from repro.dse.funnel import (
    CandidateOutcome,
    GenerationFunnel,
    SearchState,
    evaluate_finalist,
)
from repro.dse.mutation import (
    AdgMutator,
    sample_generation,
    trim_unused_features,
)
from repro.errors import CompilationError, DseError
from repro.estimation.perf_model import PerformanceModel
from repro.scheduler.repair import strip_invalid
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry


@dataclass
class DseHistoryEntry:
    """One evaluated candidate, as plotted in Figure 14."""

    iteration: int
    area_mm2: float
    power_mw: float
    performance: float
    objective: float
    accepted: bool
    mutations: list = field(default_factory=list)
    candidate: int = 0


@dataclass
class DseResult:
    """Explorer outcome."""

    best_adg: object
    best_objective: float
    history: list = field(default_factory=list)
    kernel_results: dict = field(default_factory=dict)
    initial_area: float = 0.0
    initial_power: float = 0.0
    telemetry: dict = field(default_factory=dict)
    #: Simulated cycles per kernel on the winning design (filled only
    #: when ``run(measure_finalists=True)``; the search itself always
    #: scores with the analytical model).
    measured_cycles: dict = field(default_factory=dict)

    @property
    def final_area(self):
        accepted = [h for h in self.history if h.accepted]
        return accepted[-1].area_mm2 if accepted else self.initial_area

    @property
    def candidates_per_sec(self):
        return self.telemetry.get("candidates_per_sec", 0.0)

    def area_saving(self):
        if self.initial_area <= 0:
            return 0.0
        return 1.0 - self.final_area / self.initial_area

    def objective_improvement(self):
        baseline = next(
            (h.objective for h in self.history if h.objective > 0), None
        )
        if baseline is None or self.best_objective <= 0:
            return 1.0
        return self.best_objective / baseline


# ---------------------------------------------------------------------------
# Candidate evaluation: a pure function of its inputs, so the serial path
# and the process-pool path are interchangeable.
# ---------------------------------------------------------------------------

@dataclass
class EvalContext:
    """Run-constant evaluation state, inherited by forked workers."""

    kernels: list
    sched_iters: int
    use_repair: bool
    area_power: object
    perf_model: object
    area_budget_mm2: float
    power_budget_mw: float
    verify_schedules: bool = False


@dataclass
class CandidateTask:
    """One candidate shipped to a worker (ADG + warm schedules + seed)."""

    index: int
    iteration: int
    adg: object
    warm_schedules: dict
    seed: object
    budget: int = None


#: Checkpoint-file schema version (see ``DesignSpaceExplorer.run``).
#: v2: the state blob grew the surrogate model (training buffer and
#: fitted weights), and the record pins the fidelity knobs.
#: v3: the record also pins sched_iters, use_repair, both budgets and
#: the kernel set.
CHECKPOINT_VERSION = 3


def _compile_kernels(context, adg, rng, outcome, warm_schedules=None,
                     budget=None):
    """Compile every kernel into ``outcome`` (its ``results``, ``cycles``
    and ``schedules``); returns None, or ``"no-legal-mapping"``.

    ``warm_schedules`` maps kernel name -> {params: schedule} from the
    incumbent design; with repair enabled, stale state is stripped and
    the search resumes from the survivor (Section V-A) instead of
    remapping from scratch.

    ``outcome.counters`` gains the spatial scheduler's telemetry counters
    (``sched_evaluations``, ``timing_region_cache_hits``, ...) and
    ``outcome.stage_seconds`` its per-phase wall-clock, so scheduler
    behavior surfaces in the DSE run log even across worker processes.
    """
    results = {}
    cycles = {}
    schedules = {}
    counters = {"schedule_repairs": 0, "full_remaps": 0}
    sched_telemetry = Telemetry()

    def _finish(mapped):
        for name, amount in sched_telemetry.counters.items():
            counters[name] = counters.get(name, 0) + amount
        outcome.counters.update(counters)
        outcome.stage_seconds.update({
            name: slot["seconds"]
            for name, slot in sched_telemetry.timings.items()
        })
        if mapped is None:
            return "no-legal-mapping"
        outcome.results = mapped
        outcome.cycles = cycles
        outcome.schedules = schedules
        return None

    verify = context.verify_schedules

    def _debug_lint(schedule, allow_partial):
        # DSE debug mode: catch repair/search corruption at the source.
        from repro.verify import lint_schedule

        report = lint_schedule(
            schedule, adg, allow_partial=allow_partial
        )
        counters["verify_lints"] = counters.get("verify_lints", 0) + 1
        counters["verify_errors"] = (
            counters.get("verify_errors", 0) + len(report.errors)
        )
        return report

    for kernel in context.kernels:
        initial = None
        if context.use_repair and warm_schedules:
            initial = {}
            for params, schedule in warm_schedules.get(
                kernel.name, {}
            ).items():
                clone = schedule.clone()
                strip_invalid(clone, adg)
                if verify:
                    # Repaired schedules are legally *partial* (stripped
                    # state) but must never be structurally broken.
                    _debug_lint(clone, allow_partial=True)
                initial[params] = clone
        if initial:
            counters["schedule_repairs"] += 1
        else:
            counters["full_remaps"] += 1
        try:
            result = compile_kernel(
                kernel, adg,
                rng=rng.fork(f"sched-{kernel.name}"),
                max_iters=budget or context.sched_iters,
                initial_schedules=initial,
                telemetry=sched_telemetry,
            )
        except CompilationError:
            return _finish(None)
        if not result.ok:
            return _finish(None)
        if verify:
            _debug_lint(result.schedule, allow_partial=False)
        results[kernel.name] = result
        cycles[kernel.name] = result.perf.cycles
        schedules[kernel.name] = {result.params: result.schedule}
    return _finish(results)


def _evaluate_candidate(task, ctx):
    """Repair + compile every kernel on one candidate ADG (the worker
    half of :func:`repro.dse.funnel.evaluate_finalist`)."""
    return evaluate_finalist(
        task, ctx, DesignSpaceExplorer.COUNTERS, [task.adg],
        lambda rng, outcome: _compile_kernels(
            ctx, task.adg, rng, outcome,
            warm_schedules=task.warm_schedules, budget=task.budget,
        ),
    )


class DesignSpaceExplorer(GenerationFunnel):
    """Hardware/software co-design via generational graph search."""

    COUNTERS = "candidates"
    FILTER_COUNTERS = "fidelity"
    RUN = "dse"
    SEED_KEY = "eval"
    GENERATION_EVENT = "generation"
    RESUME_EVENT = "resume"
    CHECKPOINT_VERSION = CHECKPOINT_VERSION

    def __init__(
        self,
        kernels,
        initial_adg,
        rng=None,
        area_budget_mm2=10.0,
        power_budget_mw=2000.0,
        sched_iters=200,
        initial_sched_iters=None,
        use_repair=True,
        area_power_model=None,
        perf_model=None,
        workers=1,
        batch=None,
        telemetry=None,
        verify_schedules=False,
        eval_timeout=None,
        fidelity=None,
        surrogate_top=None,
        surrogate_widen=8,
        recalibrate_every=16,
    ):
        super().__init__(
            rng or DeterministicRng("dse"), area_budget_mm2,
            power_budget_mw, area_power_model, workers, telemetry,
            eval_timeout, fidelity, surrogate_top, surrogate_widen,
            recalibrate_every,
        )
        self.kernels = list(kernels)
        self.initial_adg = initial_adg
        self.mutator = AdgMutator(self.rng.fork("mutate"))
        self.sched_iters = sched_iters
        # The first mapping starts from nothing: give it a bigger budget
        # (every later step starts from a repaired schedule).
        self.initial_sched_iters = initial_sched_iters or sched_iters * 5
        self.use_repair = use_repair
        self.verify_schedules = verify_schedules
        self.perf_model = perf_model or PerformanceModel()
        self.batch = batch

    # ------------------------------------------------------------------
    def _context(self):
        return EvalContext(
            kernels=self.kernels,
            sched_iters=self.sched_iters,
            use_repair=self.use_repair,
            verify_schedules=self.verify_schedules,
            area_power=self.area_power,
            perf_model=self.perf_model,
            area_budget_mm2=self.objective.area_budget_mm2,
            power_budget_mw=self.objective.power_budget_mw,
        )

    def _explorer_pins(self):
        return {
            "use_repair": self.use_repair,
            "kernels": [kernel.name for kernel in self.kernels],
        }

    # ------------------------------------------------------------------
    # Candidate adapter (see repro.dse.funnel): a candidate is one ADG.
    # ------------------------------------------------------------------
    def _features(self, adg):
        return graph_feature_vector(adg)

    def _estimate(self, adg):
        return self.area_power.estimate(adg)

    def _task(self, index, iteration, adg, seed, state):
        return CandidateTask(
            index=index, iteration=iteration, adg=adg,
            warm_schedules=state.outcome.schedules, seed=seed,
        )

    def _record(self, result, adg, mutations, outcome, score, accepted):
        result.history.append(DseHistoryEntry(
            iteration=outcome.iteration, area_mm2=outcome.area,
            power_mw=outcome.power,
            performance=(
                self.objective.aggregate_performance(outcome.cycles)
                if outcome.ok else 0.0
            ),
            objective=score, accepted=accepted, mutations=mutations,
            candidate=outcome.index,
        ))

    def _accepted(self, result, adg, outcome):
        result.best_adg = adg
        result.kernel_results = outcome.results

    def _checkpoint_state(self, state):
        result = state.result
        return {
            "initial_area": result.initial_area,
            "initial_power": result.initial_power,
            "baseline_cycles": dict(self.objective.baseline_cycles),
        }, (state.best, state.outcome.schedules, state.outcome.cycles,
            result.kernel_results, self.surrogate)

    # ------------------------------------------------------------------
    def run(self, max_iters=50, patience=None, mutations_per_step=None,
            workers=None, batch=None, eval_timeout=None,
            checkpoint_path=None, checkpoint_every=1, resume=False,
            measure_finalists=False):
        """Explore for up to ``max_iters`` generations.

        ``patience`` stops after that many generations without
        improvement (the paper exits after 750). ``workers`` (processes)
        and ``batch`` (candidates per generation, default ``workers``)
        override the constructor settings. With a fixed seed the
        trajectory is identical for any ``workers`` at equal ``batch``.

        ``checkpoint_path`` writes a JSON checkpoint (atomic rename)
        every ``checkpoint_every`` generations plus one final write;
        ``resume=True`` continues from that file if it exists (the rng
        never consumes state between generations, so a resumed
        trajectory is bit-identical to an uninterrupted one at equal
        seed). ``eval_timeout`` bounds each pooled candidate evaluation
        in seconds. Returns a :class:`DseResult`.

        ``measure_finalists=True`` ends the run with one batched
        cycle-level simulation of the winning design's kernels
        (:mod:`repro.dse.finalist_sim`): all kernels share the final
        fabric, so they form a single ``simulate_batch`` topology group,
        and per-group parity against the scalar engine is asserted. The
        measured cycles land in ``result.measured_cycles`` — the search
        trajectory is untouched.
        """
        workers = self.workers if workers is None else max(1, int(workers))
        batch = batch if batch is not None else self.batch
        batch = max(1, int(batch)) if batch is not None else max(1, workers)
        # Multi-fidelity geometry: mutate a widened generation, fully
        # evaluate only the finalists. Full fidelity is the degenerate
        # funnel (width == finalists == batch, no surrogate stage).
        finalists = self.surrogate_top or batch
        width = (
            finalists * self.surrogate_widen
            if self.fidelity == "multi" else batch
        )
        if eval_timeout is not None:
            self.eval_timeout = eval_timeout
        telemetry = self.telemetry
        run_start = time.perf_counter()

        saved = self._read_checkpoint(checkpoint_path, resume)
        context = self._context()
        if saved is not None:
            (best_adg, schedules, cycles, results,
             saved_surrogate) = saved["state"]
            self.objective.set_baseline(saved["baseline_cycles"])
            result = DseResult(
                best_adg=best_adg,
                best_objective=saved["best_objective"],
                initial_area=saved["initial_area"],
                initial_power=saved["initial_power"],
                kernel_results=results,
                history=[
                    DseHistoryEntry(**entry) for entry in saved["history"]
                ],
            )
            state = self._resumed(
                saved, result, best_adg, saved_surrogate,
                CandidateOutcome(0, saved["iteration"], True,
                                 cycles=cycles, schedules=schedules),
                workers=workers, batch=batch,
            )
        else:
            best_adg = self.initial_adg.clone()
            initial = CandidateOutcome(0, 0, True)
            with telemetry.timer("initial_compile"):
                failure = _compile_kernels(
                    context, best_adg, self.rng, initial,
                    budget=self.initial_sched_iters,
                )
            telemetry.merge_counters(initial.counters)
            telemetry.merge_timings(initial.stage_seconds)
            if failure:
                raise DseError("initial hardware cannot host the kernel set")
            self.objective.set_baseline(initial.cycles)
            area, power = self.area_power.estimate(best_adg)
            best_score = self.objective.score(initial.cycles, area, power)
            result = DseResult(
                best_adg=best_adg,
                best_objective=best_score,
                initial_area=area,
                initial_power=power,
                kernel_results=initial.results,
            )
            result.history.append(DseHistoryEntry(
                iteration=0, area_mm2=area, power_mw=power,
                performance=1.0, objective=best_score, accepted=True,
                mutations=["initial"],
            ))
            state = SearchState(result, best_adg, initial)
            telemetry.event({
                "type": "initial", "area_mm2": area, "power_mw": power,
                "objective": best_score, "workers": workers,
                "batch": batch,
            })

        def sample(adg, width, iteration):
            return sample_generation(
                self.rng, adg, width, iteration,
                mutations_per_step=mutations_per_step, telemetry=telemetry,
            )

        with self._pool(_evaluate_candidate, context, workers) as pool:
            if saved is None:
                # Iteration 1: the paper's cleanup step — drop features
                # no schedule uses (Figure 14's early area drop).
                trimmed = best_adg.clone()
                if trim_unused_features(
                    trimmed,
                    [s for m in initial.schedules.values()
                     for s in m.values()],
                ):
                    self._generation(pool, state, [(trimmed, ["trim"])], 1)
                state.iteration = 1
                self._checkpoint(checkpoint_path, state)
            self._search(
                pool, state, max_iters + 2,
                patience if patience is not None else max_iters,
                width, finalists, sample, checkpoint_path,
                checkpoint_every,
            )

        if measure_finalists and result.kernel_results:
            # Deferred import: finalist_sim pulls in the simulator stack,
            # which most DSE runs never need.
            from repro.dse.finalist_sim import (
                FinalistCase,
                simulate_finalists,
            )

            kernels_by_name = {k.name: k for k in self.kernels}
            cases = [
                FinalistCase(
                    label=name, adg=result.best_adg, compiled=compiled,
                    kernel=kernels_by_name[name],
                )
                for name, compiled in sorted(
                    result.kernel_results.items()
                )
                if name in kernels_by_name
            ]
            with telemetry.timer("measure_finalists"):
                measured = simulate_finalists(
                    cases, telemetry=telemetry, assert_parity=True,
                )
            result.measured_cycles = measured.cycles()
            telemetry.event({
                "type": "measured_finalists",
                "groups": measured.groups,
                "lanes": measured.lanes,
                "cycles": dict(result.measured_cycles),
                "errors": sorted(measured.errors),
            })

        wall = time.perf_counter() - run_start
        evaluated = telemetry.counters.get("candidates_evaluated", 0)
        considered = telemetry.counters.get("candidates_considered", 0)
        summary = telemetry.summary()
        summary.update({
            "wall_seconds": wall,
            "workers": workers,
            "batch": batch,
            "fidelity": self.fidelity,
            "finalists": finalists,
            "generation_width": width,
            "candidates_per_sec": evaluated / wall if wall > 0 else 0.0,
            "considered_per_sec": considered / wall if wall > 0 else 0.0,
        })
        if self.surrogate is not None:
            summary["surrogate"] = self.surrogate.stats()
        result.telemetry = summary
        telemetry.event({"type": "summary", **summary})
        return result


def geomean(values):
    """Geometric mean of positive values."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
