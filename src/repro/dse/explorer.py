"""The iterative co-design loop (Section V), generational and parallel.

Each generation clones the incumbent ADG into a batch of ``batch``
mutated candidates, evaluates every candidate (repair every kernel's
schedule on the new hardware — Section V-A, the key speedup over
remapping from scratch, evaluated in Figure 11 — then estimate
performance/area/power with the analytical models), and accepts the best
candidate whose perf^2/mm^2 objective improves on the incumbent.

Candidate evaluation is embarrassingly parallel and runs across the
shared fork pool (:mod:`repro.utils.pool`) when ``workers > 1``. Two
properties make ``workers=N`` bit-identical to ``workers=1``:

* every candidate draws randomness from a child seed derived *by key*
  — ``rng.spawn(iteration, candidate_idx)`` — never from a shared
  stateful stream, so evaluation order cannot perturb the trajectory;
* acceptance ranks the gathered batch in candidate-index order with a
  strict-improvement tie-break, so completion order is irrelevant.

Forked workers inherit the (unpicklable, closure-carrying) kernel set
from the parent; only the candidate ADG and warm schedules cross the
process boundary. When ``workers=1``, ``fork`` is unavailable, or the
pool breaks, evaluation falls back to in-process serial execution of
the same pure function.

With the default ``fidelity="multi"``, each generation runs a
three-fidelity funnel instead of fully evaluating every mutant:

1. **surrogate** — a ``surrogate_widen``-times wider mutated generation
   is scored by the online ridge model of
   :mod:`repro.estimation.surrogate` (microseconds per candidate) and
   ranked best-first; until the model has trained the ranking is the
   identity permutation, so the early trajectory matches ``full``;
2. **analytical** — the ranked list is filtered against the area/power
   budgets with the exact analytical model full evaluation would use,
   so a finalist slot is never wasted on a candidate that full fidelity
   would reject as over-budget anyway;
3. **full** — repair + compile + simulate runs only on the
   ``surrogate_top`` finalists (default: the generation batch size).

The funnel stays deterministic: candidates draw mutation seeds by the
same ``("mutate", iteration, idx)`` keys at any width, the surrogate is
trained *only* in the main process from realized evaluations in
candidate-index order (its state is a pure function of that history),
and ``fidelity="full"`` bypasses stages 1-2 entirely — bit-identical to
the pre-surrogate explorer.

Every stage (mutate / surrogate / estimate / compile) is wrapped in
:class:`repro.utils.telemetry.Telemetry` timers and counters, and each
generation can be appended to a JSONL run log.
"""

import math
import os
import time
from dataclasses import asdict, dataclass, field

from repro.adg.features import graph_feature_vector
from repro.compiler.pipeline import compile_kernel
from repro.dse.mutation import (
    AdgMutator,
    sample_generation,
    trim_unused_features,
)
from repro.dse.objective import DseObjective
from repro.errors import CompilationError, DsagenError, DseError
from repro.estimation.perf_model import PerformanceModel
from repro.estimation.power_area import default_model
from repro.estimation.surrogate import SurrogateModel
from repro.scheduler.repair import strip_invalid
from repro.utils import checkpoint
from repro.utils.pool import ForkPool
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry

#: Generation-pipeline fidelity modes: ``multi`` = surrogate-ranked wide
#: generation -> analytical budget filter -> full compile on finalists;
#: ``full`` = every candidate fully evaluated (the pre-surrogate loop).
DSE_FIDELITIES = ("multi", "full")


def resolve_fidelity(fidelity):
    """``fidelity``, or ``multi`` when None; unknown values fail fast
    here, before any compute is spent."""
    fidelity = "multi" if fidelity is None else fidelity
    if fidelity not in DSE_FIDELITIES:
        raise DseError(
            f"unknown DSE fidelity {fidelity!r}; expected one of "
            f"{', '.join(DSE_FIDELITIES)}"
        )
    return fidelity


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


@dataclass
class CandidateOutcome:
    """What a worker sends back: estimates, schedules, and telemetry."""

    index: int
    iteration: int
    ok: bool
    area: float = 0.0
    power: float = 0.0
    cycles: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    schedules: dict = field(default_factory=dict)
    reason: str = ""
    stage_seconds: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


#: Checkpoint-file schema version (see ``DesignSpaceExplorer.run``).
#: v2: the state blob grew the surrogate model (training buffer and
#: fitted weights), and the record pins the fidelity knobs.
#: v3: the record also pins sched_iters, use_repair, both budgets and
#: the kernel set.
CHECKPOINT_VERSION = 3


def _compile_kernels(context, adg, rng, warm_schedules=None, budget=None):
    """Compile every kernel; returns
    ``(results, cycles, schedules, counters, sched_seconds)``.

    ``warm_schedules`` maps kernel name -> {params: schedule} from the
    incumbent design; with repair enabled, stale state is stripped and
    the search resumes from the survivor (Section V-A) instead of
    remapping from scratch.

    ``counters`` folds in the spatial scheduler's telemetry counters
    (``sched_evaluations``, ``timing_region_cache_hits``, ...) and
    ``sched_seconds`` holds its per-phase wall-clock, so scheduler
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
        sched_seconds = {
            name: slot["seconds"]
            for name, slot in sched_telemetry.timings.items()
        }
        return mapped, cycles, schedules, counters, sched_seconds

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
    """Estimate + compile one candidate. Pure in (task, context), so
    the serial and pooled paths are interchangeable. All framework
    errors are folded into a failed outcome so one bad candidate never
    aborts its generation.
    """
    stage = {}
    counters = {"candidates_evaluated": 1}
    start = time.perf_counter()
    area, power = ctx.area_power.estimate(task.adg)
    stage["estimate"] = time.perf_counter() - start
    if area > ctx.area_budget_mm2 or power > ctx.power_budget_mw:
        counters["candidates_over_budget"] = 1
        return CandidateOutcome(
            index=task.index, iteration=task.iteration, ok=False,
            area=area, power=power, reason="over-budget",
            stage_seconds=stage, counters=counters,
        )
    rng = DeterministicRng(task.seed)
    start = time.perf_counter()
    try:
        (results, cycles, schedules, compile_counters,
         sched_seconds) = _compile_kernels(
            ctx, task.adg, rng,
            warm_schedules=task.warm_schedules, budget=task.budget,
        )
    except DsagenError as exc:
        stage["compile"] = time.perf_counter() - start
        counters["candidates_failed"] = 1
        return CandidateOutcome(
            index=task.index, iteration=task.iteration, ok=False,
            area=area, power=power, reason=f"error: {exc}",
            stage_seconds=stage, counters=counters,
        )
    stage["compile"] = time.perf_counter() - start
    for name, seconds in sched_seconds.items():
        stage[name] = stage.get(name, 0.0) + seconds
    for name, amount in compile_counters.items():
        counters[name] = counters.get(name, 0) + amount
    if results is None:
        counters["candidates_failed"] = 1
        return CandidateOutcome(
            index=task.index, iteration=task.iteration, ok=False,
            area=area, power=power, reason="no-legal-mapping",
            stage_seconds=stage, counters=counters,
        )
    return CandidateOutcome(
        index=task.index, iteration=task.iteration, ok=True,
        area=area, power=power, cycles=cycles, results=results,
        schedules=schedules, stage_seconds=stage, counters=counters,
    )


def _worker_failed(task):
    """A candidate whose in-process retry also died: rejected, so one
    bad candidate never crashes the run."""
    return CandidateOutcome(
        index=task.index, iteration=task.iteration, ok=False,
        reason="worker-failed",
        counters={"candidates_evaluated": 1, "candidates_failed": 1},
    )


class DesignSpaceExplorer:
    """Hardware/software co-design via generational graph search."""

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
        self.kernels = list(kernels)
        self.initial_adg = initial_adg
        self.rng = rng or DeterministicRng("dse")
        self.mutator = AdgMutator(self.rng.fork("mutate"))
        # Multi-fidelity knobs (see module docstring).
        fidelity = resolve_fidelity(fidelity)
        if surrogate_top is not None and int(surrogate_top) < 1:
            raise DseError("surrogate_top must be >= 1")
        if int(surrogate_widen) < 1:
            raise DseError("surrogate_widen must be >= 1")
        if int(recalibrate_every) < 1:
            raise DseError("recalibrate_every must be >= 1")
        self.fidelity = fidelity
        self.surrogate_top = (
            int(surrogate_top) if surrogate_top is not None else None
        )
        self.surrogate_widen = int(surrogate_widen)
        self.recalibrate_every = int(recalibrate_every)
        self.surrogate = (
            SurrogateModel(recalibrate_every=self.recalibrate_every)
            if fidelity == "multi" else None
        )
        self.sched_iters = sched_iters
        # The first mapping starts from nothing: give it a bigger budget
        # (every later step starts from a repaired schedule).
        self.initial_sched_iters = initial_sched_iters or sched_iters * 5
        self.use_repair = use_repair
        self.verify_schedules = verify_schedules
        self.area_power = area_power_model or default_model()
        self.perf_model = perf_model or PerformanceModel()
        self.objective = DseObjective(
            area_budget_mm2=area_budget_mm2,
            power_budget_mw=power_budget_mw,
        )
        self.workers = max(1, int(workers))
        self.batch = batch
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # Per-candidate wall-clock budget (seconds) for pool evaluation;
        # None disables the watchdog (see repro.utils.pool).
        self.eval_timeout = eval_timeout

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

    def _pins(self):
        """Settings a resumed run must share with the checkpoint's
        writer; any difference would fork the trajectory."""
        return {
            "seed": repr(self.rng.seed),
            "fidelity": self.fidelity,
            "surrogate_top": self.surrogate_top,
            "surrogate_widen": self.surrogate_widen,
            "recalibrate_every": self.recalibrate_every,
            "sched_iters": self.sched_iters,
            "use_repair": self.use_repair,
            "area_budget_mm2": self.objective.area_budget_mm2,
            "power_budget_mw": self.objective.power_budget_mw,
            "kernels": [kernel.name for kernel in self.kernels],
        }

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
        patience = patience if patience is not None else max_iters
        checkpoint_every = max(1, int(checkpoint_every))
        if eval_timeout is not None:
            self.eval_timeout = eval_timeout
        telemetry = self.telemetry
        run_start = time.perf_counter()

        saved = None
        if resume and checkpoint_path and os.path.exists(checkpoint_path):
            saved = checkpoint.read(
                checkpoint_path, CHECKPOINT_VERSION, self._pins()
            )

        context = self._context()
        if saved is not None:
            (best_adg, schedules, cycles, results,
             saved_surrogate) = saved["state"]
            if self.surrogate is not None:
                # Bit-exact training state: the resumed trajectory sees
                # the same model the uninterrupted run would have.
                self.surrogate = saved_surrogate
            self.objective.set_baseline(saved["baseline_cycles"])
            best_score = saved["best_objective"]
            result = DseResult(
                best_adg=best_adg,
                best_objective=best_score,
                initial_area=saved["initial_area"],
                initial_power=saved["initial_power"],
                kernel_results=results,
            )
            result.history = [
                DseHistoryEntry(**entry) for entry in saved["history"]
            ]
            stale = saved["stale"]
            start_iteration = max(2, saved["iteration"] + 1)
            telemetry.incr("dse_resumes")
            telemetry.event({
                "type": "resume", "iteration": saved["iteration"],
                "objective": best_score, "workers": workers,
                "batch": batch,
            })
        else:
            best_adg = self.initial_adg.clone()
            with telemetry.timer("initial_compile"):
                (results, cycles, schedules, compile_counters,
                 sched_seconds) = _compile_kernels(
                    context, best_adg, self.rng,
                    budget=self.initial_sched_iters,
                )
            telemetry.merge_counters(compile_counters)
            telemetry.merge_timings(sched_seconds)
            if results is None:
                raise DseError("initial hardware cannot host the kernel set")
            self.objective.set_baseline(cycles)
            area, power = self.area_power.estimate(best_adg)
            best_score = self.objective.score(cycles, area, power)
            result = DseResult(
                best_adg=best_adg,
                best_objective=best_score,
                initial_area=area,
                initial_power=power,
                kernel_results=results,
            )
            result.history.append(DseHistoryEntry(
                iteration=0, area_mm2=area, power_mw=power,
                performance=1.0, objective=best_score, accepted=True,
                mutations=["initial"],
            ))
            stale = 0
            start_iteration = 2
            telemetry.event({
                "type": "initial", "area_mm2": area, "power_mw": power,
                "objective": best_score, "workers": workers,
                "batch": batch,
            })

        def save(iteration):
            checkpoint.write(checkpoint_path, {
                "version": CHECKPOINT_VERSION,
                **self._pins(),
                "iteration": iteration,
                "stale": stale,
                "best_objective": best_score,
                "initial_area": result.initial_area,
                "initial_power": result.initial_power,
                "baseline_cycles": dict(self.objective.baseline_cycles),
                "history": [asdict(entry) for entry in result.history],
            }, (best_adg, schedules, cycles, result.kernel_results,
                self.surrogate))
            telemetry.incr("dse_checkpoints_written")

        last_iteration = start_iteration - 1
        with ForkPool(
            _evaluate_candidate, context, workers, telemetry.incr, "dse",
            failed=_worker_failed, eval_timeout=self.eval_timeout,
        ) as pool:
            if saved is None:
                # Iteration 1: the paper's cleanup step — drop features
                # no schedule uses (Figure 14's early area drop).
                trimmed = best_adg.clone()
                if trim_unused_features(
                    trimmed,
                    [s for m in schedules.values() for s in m.values()],
                ):
                    accepted = self._run_generation(
                        pool, [(trimmed, ["trim"])], schedules, 1,
                        result, best_score, finalists=finalists,
                    )
                    if accepted is not None:
                        best_adg, best_score, cycles, schedules = accepted
                        result.best_adg = best_adg
                        result.best_objective = best_score
                last_iteration = 1
                if checkpoint_path:
                    save(1)

            for iteration in range(start_iteration, max_iters + 2):
                if stale >= patience:
                    break
                with telemetry.timer("mutate"):
                    candidates = sample_generation(
                        self.rng, best_adg, width, iteration,
                        mutations_per_step=mutations_per_step,
                        telemetry=telemetry,
                    )
                if not candidates:
                    stale += 1
                else:
                    accepted = self._run_generation(
                        pool, candidates, schedules, iteration, result,
                        best_score, finalists=finalists,
                    )
                    if accepted is None:
                        stale += 1
                    else:
                        best_adg, best_score, cycles, schedules = accepted
                        result.best_adg = best_adg
                        result.best_objective = best_score
                        stale = 0
                last_iteration = iteration
                if checkpoint_path and iteration % checkpoint_every == 0:
                    save(iteration)

        if checkpoint_path:
            save(last_iteration)

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
                    label=name, adg=best_adg, compiled=compiled,
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

    # ------------------------------------------------------------------
    def _select_finalists(self, candidates, finalists):
        """Stages 1-2 of the multi-fidelity funnel (main process only,
        so pooling can never perturb the surrogate's training state).

        Returns ``(chosen, features, predictions)`` where ``chosen``
        holds at most ``finalists`` indices into ``candidates``, in
        surrogate-rank order; ``features``/``predictions`` are indexed
        like ``candidates`` (the chosen subset feeds training later).
        Full fidelity skips the funnel: every candidate is a finalist.
        """
        telemetry = self.telemetry
        telemetry.incr("candidates_considered", len(candidates))
        if self.surrogate is None:
            return list(range(len(candidates))), None, None
        # Stage 1: surrogate scores the wide generation. Untrained
        # models rank by index, so finalists match full fidelity until
        # the first refit.
        with telemetry.timer("surrogate"):
            features = [
                graph_feature_vector(adg) for adg, _ in candidates
            ]
            predictions = [
                self.surrogate.predict(vector) for vector in features
            ]
            order = SurrogateModel.rank(predictions)
            telemetry.incr("surrogate_scored", len(candidates))
        # Stage 2: analytical budget filter over the ranked list — the
        # exact area/power model full evaluation would apply, so no
        # finalist slot is spent on a guaranteed-rejection.
        chosen = []
        with telemetry.timer("analytical_filter"):
            for src in order:
                if len(chosen) >= finalists:
                    break
                area, power = self.area_power.estimate(
                    candidates[src][0]
                )
                if (area > self.objective.area_budget_mm2
                        or power > self.objective.power_budget_mw):
                    telemetry.incr("fidelity_analytical_rejected")
                    continue
                chosen.append(src)
        telemetry.incr("fidelity_finalists", len(chosen))
        return chosen, features, predictions

    def _run_generation(self, pool, candidates, warm_schedules, iteration,
                        result, best_score, finalists=None):
        """Evaluate one generation of (adg, descriptions) candidates.

        With the surrogate enabled the generation is first funneled
        through :meth:`_select_finalists`; full evaluation, history
        entries, and acceptance apply to the finalists only (history
        records realized evaluations — the funnel's rejects surface in
        counters and the generation event instead). Appends one history
        entry per finalist (in index order), picks the best strict
        improvement, and returns the new incumbent tuple
        ``(adg, score, cycles, schedules)`` — or None when the whole
        generation is rejected.
        """
        telemetry = self.telemetry
        if finalists is None:
            finalists = len(candidates)
        chosen, features, predictions = self._select_finalists(
            candidates, finalists
        )
        tasks = [
            CandidateTask(
                index=idx, iteration=iteration, adg=candidates[src][0],
                warm_schedules=warm_schedules,
                seed=self.rng.spawn("eval", iteration, idx).seed,
            )
            for idx, src in enumerate(chosen)
        ]
        with telemetry.timer("evaluate"):
            outcomes = pool.map(tasks)
        winner = None
        winner_score = best_score
        scores = []
        for outcome in outcomes:
            telemetry.merge_timings({
                f"candidate/{name}": seconds
                for name, seconds in outcome.stage_seconds.items()
            })
            telemetry.merge_counters(outcome.counters)
            if not outcome.ok:
                scores.append(float("-inf"))
                continue
            score = self.objective.score(
                outcome.cycles, outcome.area, outcome.power
            )
            scores.append(score)
            if score > winner_score:  # strict: ties keep lowest index
                winner = outcome
                winner_score = score
        for idx, outcome in enumerate(outcomes):
            accepted = winner is not None and outcome.index == winner.index
            performance = (
                self.objective.aggregate_performance(outcome.cycles)
                if outcome.ok else 0.0
            )
            if not accepted:
                telemetry.incr("candidates_rejected")
            result.history.append(DseHistoryEntry(
                iteration=iteration, area_mm2=outcome.area,
                power_mw=outcome.power, performance=performance,
                objective=scores[idx], accepted=accepted,
                mutations=list(candidates[chosen[idx]][1]),
                candidate=outcome.index,
            ))
        if self.surrogate is not None:
            # Online training: realized finalists append to the buffer
            # in candidate-index order (outcomes are already ordered),
            # so the model state is a pure function of the trajectory.
            with telemetry.timer("surrogate"):
                for idx, outcome in enumerate(outcomes):
                    src = chosen[idx]
                    self.surrogate.observe(
                        features[src], outcome.ok, scores[idx],
                        cycles=outcome.cycles,
                        prediction=predictions[src],
                    )
                refit = self.surrogate.maybe_refit()
            if refit is not None:
                telemetry.incr("surrogate_refits")
                telemetry.event({
                    "type": "surrogate_refit",
                    "iteration": iteration,
                    **refit,
                })
        telemetry.event({
            "type": "generation",
            "iteration": iteration,
            "fidelity": self.fidelity,
            "considered": len(candidates),
            "finalists": len(chosen),
            "surrogate_trained": (
                self.surrogate.trained
                if self.surrogate is not None else False
            ),
            "candidates": len(outcomes),
            "accepted_candidate": winner.index if winner else None,
            "best_objective": winner_score,
            "objectives": [
                s if s != float("-inf") else None for s in scores
            ],
        })
        if winner is None:
            return None
        adg = candidates[chosen[winner.index]][0]
        result.kernel_results = winner.results
        return adg, winner_score, winner.cycles, winner.schedules


def geomean(values):
    """Geometric mean of positive values."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
