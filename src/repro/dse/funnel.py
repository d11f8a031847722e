"""The generation funnel both explorers run (the Section V co-design loop).

One generation mutates the incumbent, ranks the mutants, evaluates the
finalists and accepts the best strict improvement. With the default
``fidelity="multi"`` the ranking is a three-fidelity funnel:

1. **surrogate** — a ``surrogate_widen``-times wider mutated generation
   is scored by the online ridge model of
   :mod:`repro.estimation.surrogate` (microseconds per candidate) and
   ranked best-first; until the model has trained the ranking is the
   identity permutation, so the early trajectory matches ``full``;
2. **analytical** — the ranked list is filtered against the area/power
   budgets with the exact analytical model full evaluation would use,
   so a finalist slot is never wasted on a candidate that full fidelity
   would reject as over-budget anyway;
3. **full** — the ``surrogate_top`` finalists are evaluated across the
   shared fork pool (:mod:`repro.utils.pool`).

``fidelity="full"`` skips stages 1-2: every mutant is a finalist.

The funnel is deterministic, so ``workers=N`` is bit-identical to
``workers=1`` and a resumed run to an uninterrupted one: every mutation
and evaluation seed is derived by key (``rng.spawn(key, iteration,
index)``), never from a shared stream; acceptance walks the gathered
outcomes in candidate-index order with a strict-improvement tie-break;
and the surrogate trains only here, in the main process, on realized
finalists in index order.

:class:`GenerationFunnel` holds all of that, plus the stale/patience run
loop and checkpoint writing and resuming. The two explorers subclass it
as its candidate adapters and supply only what differs: a candidate is
one ADG (:class:`repro.dse.explorer.DesignSpaceExplorer`) or a partition
of the kernel set into merged-fabric clusters
(:class:`repro.dse.compose.CompositionExplorer`), so each defines its
surrogate features (``_features``), analytical area/power estimate
(``_estimate``), worker task (``_task``) and evaluation (through
:func:`evaluate_finalist`), history record (``_record``), incumbent
bookkeeping (``_accepted``), checkpoint pins and contents
(``_explorer_pins``, ``_checkpoint_state``) and telemetry names (the
class constants).
"""

import os
import time
from dataclasses import asdict, dataclass, field

from repro.dse.objective import DseObjective
from repro.errors import DsagenError, DseError
from repro.estimation.power_area import default_model
from repro.estimation.surrogate import SurrogateModel
from repro.utils import checkpoint
from repro.utils.pool import ForkPool
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry

#: Generation-pipeline fidelity modes: ``multi`` = surrogate-ranked wide
#: generation -> analytical budget filter -> full compile on finalists;
#: ``full`` = every candidate fully evaluated (the pre-surrogate loop).
DSE_FIDELITIES = ("multi", "full")


def funnel_knobs(fidelity, surrogate_top, surrogate_widen,
                 recalibrate_every):
    """The validated ``(fidelity, surrogate_top, surrogate_widen,
    recalibrate_every)``, ``fidelity`` defaulting to ``multi``. A bad
    value raises :class:`DseError` naming its knob, before any compute
    is spent."""
    fidelity = "multi" if fidelity is None else fidelity
    if fidelity not in DSE_FIDELITIES:
        raise DseError(
            f"unknown DSE fidelity {fidelity!r}; expected one of "
            f"{', '.join(DSE_FIDELITIES)}"
        )
    for knob, value in (("surrogate_top", surrogate_top),
                        ("surrogate_widen", surrogate_widen),
                        ("recalibrate_every", recalibrate_every)):
        if value is not None and int(value) < 1:
            raise DseError(f"{knob} must be >= 1")
    top = int(surrogate_top) if surrogate_top is not None else None
    return fidelity, top, int(surrogate_widen), int(recalibrate_every)


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


def estimate_fabrics(area_power, fabrics):
    """Summed analytical ``(area, power)`` of a candidate's fabrics."""
    area = power = 0.0
    for fabric in fabrics:
        fabric_area, fabric_power = area_power.estimate(fabric)
        area += fabric_area
        power += fabric_power
    return area, power


def evaluate_finalist(task, ctx, prefix, fabrics, compile_all):
    """The worker half of the funnel for one finalist: the summed
    estimate of ``fabrics``, the budget check, then ``compile_all(rng,
    outcome)``, which fills ``outcome`` and returns None, or returns the
    reason it failed. Pure in ``(task, ctx)``, so the serial and pooled
    paths are interchangeable; framework errors fold into a failed
    outcome so one bad candidate never aborts its generation.
    """
    outcome = CandidateOutcome(task.index, task.iteration, False,
                               counters={f"{prefix}_evaluated": 1})
    stage = outcome.stage_seconds
    start = time.perf_counter()
    outcome.area, outcome.power = estimate_fabrics(ctx.area_power, fabrics)
    stage["estimate"] = time.perf_counter() - start
    if (outcome.area > ctx.area_budget_mm2
            or outcome.power > ctx.power_budget_mw):
        outcome.counters[f"{prefix}_over_budget"] = 1
        outcome.reason = "over-budget"
        return outcome
    rng = DeterministicRng(task.seed)
    start = time.perf_counter()
    try:
        outcome.reason = compile_all(rng, outcome) or ""
    except DsagenError as exc:
        outcome.reason = f"error: {exc}"
    stage["compile"] = time.perf_counter() - start
    outcome.ok = not outcome.reason
    if not outcome.ok:
        outcome.counters[f"{prefix}_failed"] = 1
    return outcome


@dataclass
class SearchState:
    """Where a run stands: its result (which holds the best objective),
    the incumbent candidate and its realized outcome, generations
    without an acceptance, and the last finished generation."""

    result: object
    best: object
    outcome: CandidateOutcome = None
    stale: int = 0
    iteration: int = 0


class GenerationFunnel:
    """Funnel, run loop and checkpoints shared by both explorers. Each
    explorer sets the class constants below and ``sched_iters``, and
    defines the adapter methods the module docstring lists."""

    # Set by each explorer (telemetry names are read by bench/, CI and
    # the benchmarks, so they never change):
    #: Prefix of the ``_considered``, ``_evaluated``, ``_over_budget``,
    #: ``_failed`` and ``_rejected`` counters.
    COUNTERS = None
    #: Prefix of the ``_analytical_rejected`` and ``_finalists`` counters.
    FILTER_COUNTERS = None
    #: Pool prefix; also of the ``_resumes`` and ``_checkpoints_written``
    #: counters.
    RUN = None
    #: Evaluation seeds are ``rng.spawn(SEED_KEY, iteration, index)``.
    SEED_KEY = None
    GENERATION_EVENT = None
    RESUME_EVENT = None
    CHECKPOINT_VERSION = None

    def __init__(self, rng, area_budget_mm2, power_budget_mw,
                 area_power_model, workers, telemetry, eval_timeout,
                 fidelity, surrogate_top, surrogate_widen,
                 recalibrate_every):
        self.rng = rng
        (self.fidelity, self.surrogate_top, self.surrogate_widen,
         self.recalibrate_every) = funnel_knobs(
            fidelity, surrogate_top, surrogate_widen, recalibrate_every
        )
        self.surrogate = (
            SurrogateModel(recalibrate_every=self.recalibrate_every)
            if self.fidelity == "multi" else None
        )
        self.area_power = area_power_model or default_model()
        self.objective = DseObjective(
            area_budget_mm2=area_budget_mm2,
            power_budget_mw=power_budget_mw,
        )
        self.workers = max(1, int(workers))
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # Per-candidate wall-clock budget (seconds) for pool evaluation;
        # None disables the watchdog (see repro.utils.pool).
        self.eval_timeout = eval_timeout

    # ------------------------------------------------------------------
    # Run plumbing
    # ------------------------------------------------------------------
    def _pool(self, evaluate, context, workers):
        return ForkPool(
            evaluate, context, workers, self.telemetry.incr, self.RUN,
            failed=self._worker_failed, eval_timeout=self.eval_timeout,
        )

    def _worker_failed(self, task):
        """A candidate whose in-process retry also died: rejected, so one
        bad candidate never crashes the run."""
        return CandidateOutcome(
            index=task.index, iteration=task.iteration, ok=False,
            reason="worker-failed",
            counters={f"{self.COUNTERS}_evaluated": 1,
                      f"{self.COUNTERS}_failed": 1},
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
            "area_budget_mm2": self.objective.area_budget_mm2,
            "power_budget_mw": self.objective.power_budget_mw,
            **self._explorer_pins(),
        }

    def _read_checkpoint(self, checkpoint_path, resume):
        """The checkpoint record to resume from, or None (fresh run)."""
        if resume and checkpoint_path and os.path.exists(checkpoint_path):
            return checkpoint.read(
                checkpoint_path, self.CHECKPOINT_VERSION, self._pins()
            )
        return None

    def _resumed(self, saved, result, best, surrogate, outcome=None,
                 **event_fields):
        """The :class:`SearchState` of a resumed run; ``result`` already
        carries the checkpoint's history."""
        if self.surrogate is not None:
            # Bit-exact training state: the resumed trajectory sees the
            # same model the uninterrupted run would have.
            self.surrogate = surrogate
        state = SearchState(
            result, best, outcome,
            stale=saved["stale"], iteration=saved["iteration"],
        )
        self.telemetry.incr(f"{self.RUN}_resumes")
        self.telemetry.event({
            "type": self.RESUME_EVENT, "iteration": saved["iteration"],
            "objective": result.best_objective, **event_fields,
        })
        return state

    def _checkpoint(self, path, state):
        """Write ``state`` to ``path`` (atomic rename); no-op without a
        path."""
        if not path:
            return
        fields, blob = self._checkpoint_state(state)
        checkpoint.write(path, {
            "version": self.CHECKPOINT_VERSION,
            **self._pins(),
            "iteration": state.iteration,
            "stale": state.stale,
            "best_objective": state.result.best_objective,
            **fields,
            "history": [asdict(entry) for entry in state.result.history],
        }, blob)
        self.telemetry.incr(f"{self.RUN}_checkpoints_written")

    def _search(self, pool, state, stop, patience, width, finalists,
                sample, checkpoint_path, checkpoint_every):
        """Run generations ``state.iteration + 1`` up to ``stop - 1``
        until ``patience`` in a row accept nothing. ``sample(best,
        width, iteration)`` draws a generation's ``(candidate,
        descriptions)`` pairs. Checkpoints every ``checkpoint_every``
        generations and once at the end."""
        checkpoint_every = max(1, int(checkpoint_every))
        for iteration in range(state.iteration + 1, stop):
            if state.stale >= patience:
                break
            with self.telemetry.timer("mutate"):
                candidates = sample(state.best, width, iteration)
            if candidates and self._generation(
                pool, state, candidates, iteration, finalists
            ):
                state.stale = 0
            else:
                state.stale += 1
            state.iteration = iteration
            if iteration % checkpoint_every == 0:
                self._checkpoint(checkpoint_path, state)
        self._checkpoint(checkpoint_path, state)

    # ------------------------------------------------------------------
    # One generation
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
        telemetry.incr(f"{self.COUNTERS}_considered", len(candidates))
        if self.surrogate is None:
            return list(range(len(candidates))), None, None
        # Stage 1: surrogate scores the wide generation. Untrained
        # models rank by index, so finalists match full fidelity until
        # the first refit.
        with telemetry.timer("surrogate"):
            features = [
                self._features(candidate) for candidate, _ in candidates
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
                area, power = self._estimate(candidates[src][0])
                if (area > self.objective.area_budget_mm2
                        or power > self.objective.power_budget_mw):
                    telemetry.incr(
                        f"{self.FILTER_COUNTERS}_analytical_rejected"
                    )
                    continue
                chosen.append(src)
        telemetry.incr(f"{self.FILTER_COUNTERS}_finalists", len(chosen))
        return chosen, features, predictions

    def _generation(self, pool, state, candidates, iteration,
                    finalists=None):
        """Evaluate one generation of ``(candidate, descriptions)``
        pairs; returns whether it replaced the incumbent in ``state``.

        Full evaluation, history entries (one per finalist, in index
        order) and acceptance apply to the finalists only; the funnel's
        rejects surface in counters and the generation event. The best
        strict improvement wins; ties keep the lowest index.
        """
        telemetry = self.telemetry
        chosen, features, predictions = self._select_finalists(
            candidates, finalists or len(candidates)
        )
        tasks = [
            self._task(
                idx, iteration, candidates[src][0],
                self.rng.spawn(self.SEED_KEY, iteration, idx).seed, state,
            )
            for idx, src in enumerate(chosen)
        ]
        with telemetry.timer("evaluate"):
            outcomes = pool.map(tasks)
        winner = None
        winner_score = state.result.best_objective
        scores = []
        for outcome in outcomes:
            telemetry.merge_timings({
                f"candidate/{name}": seconds
                for name, seconds in outcome.stage_seconds.items()
            })
            telemetry.merge_counters(outcome.counters)
            score = self.objective.score(
                outcome.cycles, outcome.area, outcome.power
            ) if outcome.ok else float("-inf")
            scores.append(score)
            if score > winner_score:  # strict: ties keep lowest index
                winner = outcome
                winner_score = score
        for outcome, src, score in zip(outcomes, chosen, scores):
            accepted = winner is not None and outcome.index == winner.index
            if not accepted:
                telemetry.incr(f"{self.COUNTERS}_rejected")
            candidate, descriptions = candidates[src]
            self._record(state.result, candidate, list(descriptions),
                         outcome, score, accepted)
        if self.surrogate is not None:
            # Online training: realized finalists append to the buffer
            # in candidate-index order (outcomes are already ordered),
            # so the model state is a pure function of the trajectory.
            with telemetry.timer("surrogate"):
                for outcome, src, score in zip(outcomes, chosen, scores):
                    self.surrogate.observe(
                        features[src], outcome.ok, score,
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
            "type": self.GENERATION_EVENT,
            "iteration": iteration,
            "fidelity": self.fidelity,
            "considered": len(candidates),
            "finalists": len(chosen),
            "surrogate_trained": (
                self.surrogate is not None and self.surrogate.trained
            ),
            "candidates": len(outcomes),
            "accepted_candidate": winner.index if winner else None,
            "best_objective": winner_score,
            "objectives": [
                s if s != float("-inf") else None for s in scores
            ],
        })
        if winner is None:
            return False
        state.best = candidates[chosen[winner.index]][0]
        state.outcome = winner
        state.result.best_objective = winner_score
        self._accepted(state.result, state.best, winner)
        return True
