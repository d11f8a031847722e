"""Merged & multi-accelerator synthesis (CDAC-style composition).

DSAGEN's premise is that one programmable fabric can serve many kernels
via reconfiguration; CHARM-style results show a *partitioned* set of
specialized accelerators sometimes wins instead. This module explores
that axis: given a multi-kernel application, it searches over
**compositions** — partitions of the kernel set into clusters, where
each cluster is served by one fabric built as the capability-preserving
union (:func:`repro.adg.merge.merge_adgs`) of its members' specialized
fabrics — under a shared area budget.

The two extremes are always evaluated: the **merged** composition (one
cluster, one fabric reconfigured per kernel) and the **per-kernel**
composition (every kernel keeps its own specialized fabric); everything
between is **partitioned**. The explorer mutates the incumbent partition
(merge two clusters / split a cluster / reassign a kernel) and accepts
strict perf^2/mm^2 improvements, where area is the *sum* over cluster
fabrics and performance is the geomean slowdown-free speedup against the
specialized-fabric baseline cycles.

Machinery reused from the single-fabric explorer, with the same
contracts:

* **warm starts** — each kernel's specialized schedule is translated
  onto its cluster fabric through the merge node map
  (:mod:`repro.scheduler.warmstart`) and repaired, not remapped;
* **multi-fidelity funnel** — the online surrogate ranks a widened
  generation on summed cluster-fabric features, the analytical
  area/power model filters against the budget, and only finalists pay
  for compilation;
* **determinism** — candidate seeds are keyed (``spawn("ceval", it,
  idx)``), acceptance is candidate-index-ordered, the surrogate trains
  only in the main process: ``workers=N`` is bit-identical to
  ``workers=1``, and checkpoint/resume round-trips the trajectory.
"""

import os
import time
from dataclasses import asdict, dataclass, field

from repro.adg import topologies
from repro.adg.features import graph_feature_vector
from repro.adg.merge import merge_all
from repro.compiler.pipeline import compile_kernel
from repro.dse.mutation import trim_unused_features
from repro.dse.objective import DseObjective
from repro.dse.explorer import resolve_fidelity
from repro.errors import DsagenError, DseError
from repro.estimation.power_area import default_model
from repro.estimation.surrogate import SurrogateModel
from repro.scheduler.warmstart import translate_warm_schedules
from repro.utils import checkpoint
from repro.utils.pool import ForkPool
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry

#: Checkpoint-file schema version for composition runs.
COMPOSE_CHECKPOINT_VERSION = 1

#: Default shared-area budgets, as fractions of the summed specialized
#: area (the per-kernel composition's footprint).
DEFAULT_BUDGET_FRACTIONS = (0.6, 0.8, 1.0)


def canonical_partition(clusters):
    """Canonical form: sorted tuple of sorted kernel-name tuples."""
    return tuple(sorted(tuple(sorted(cluster)) for cluster in clusters))


def partition_strategy(partition):
    """``merged`` / ``per_kernel`` / ``partitioned`` classification."""
    if len(partition) == 1:
        return "merged"
    if all(len(cluster) == 1 for cluster in partition):
        return "per_kernel"
    return "partitioned"


def mutate_partition(partition, rng):
    """One merge/split/move edit of ``partition``; returns
    ``(new_partition, description)`` (canonical, possibly == input when
    no edit applies)."""
    clusters = [list(cluster) for cluster in partition]
    ops = []
    if len(clusters) >= 2:
        ops.append("merge")
        ops.append("move")
    if any(len(cluster) >= 2 for cluster in clusters):
        ops.append("split")
        ops.append("move")
    if not ops:
        return partition, "noop"
    op = rng.choice(sorted(set(ops)))
    if op == "merge":
        first, second = rng.sample(range(len(clusters)), 2)
        merged = clusters[first] + clusters[second]
        rest = [c for i, c in enumerate(clusters)
                if i not in (first, second)]
        return canonical_partition(rest + [merged]), \
            f"merge:{'+'.join(sorted(merged))}"
    if op == "split":
        splittable = [i for i, c in enumerate(clusters) if len(c) >= 2]
        index = rng.choice(splittable)
        members = sorted(clusters[index])
        take = rng.randint(1, len(members) - 1)
        left = rng.sample(members, take)
        right = [m for m in members if m not in left]
        rest = [c for i, c in enumerate(clusters) if i != index]
        return canonical_partition(rest + [left, right]), \
            f"split:{'+'.join(sorted(left))}"
    # move: relocate one kernel to another cluster or a new singleton.
    movable = [i for i, c in enumerate(clusters)
               if len(c) >= 2 or len(clusters) >= 2]
    src = rng.choice(movable)
    kernel = rng.choice(sorted(clusters[src]))
    destinations = [i for i in range(len(clusters)) if i != src]
    if len(clusters[src]) >= 2:
        destinations.append(-1)  # a brand-new singleton cluster
    if not destinations:
        return partition, "noop"
    dst = rng.choice(destinations)
    clusters[src].remove(kernel)
    if dst == -1:
        clusters.append([kernel])
    else:
        clusters[dst].append(kernel)
    clusters = [c for c in clusters if c]
    return canonical_partition(clusters), f"move:{kernel}"


# ---------------------------------------------------------------------------
# Kernel specialization (the per-kernel baseline fabrics)
# ---------------------------------------------------------------------------

@dataclass
class SpecializedKernel:
    """One kernel's dedicated fabric: the per-kernel baseline."""

    kernel: object
    adg: object
    schedules: dict        # {params: schedule} warm-start shape
    cycles: float
    area: float
    power: float


def specialize_kernels(kernels, rng, sched_iters=200, area_power=None,
                       telemetry=None, rows=5, cols=4):
    """Compile each kernel on its own fabric and trim unused features.

    The trimmed fabric is the specialized accelerator the per-kernel
    composition deploys, and the merge input for every other
    composition. Raises :class:`DseError` when a kernel cannot be
    mapped at all.
    """
    area_power = area_power or default_model()
    telemetry = telemetry if telemetry is not None else Telemetry()
    specialized = {}
    for kernel in kernels:
        adg = topologies.dse_initial(rows=rows, cols=cols)
        adg.name = f"spec-{kernel.name}"
        result = compile_kernel(
            kernel, adg, rng=rng.fork(f"spec-{kernel.name}"),
            max_iters=sched_iters,
        )
        if not result.ok:
            raise DseError(
                f"kernel {kernel.name!r} cannot be specialized on the "
                "initial fabric"
            )
        schedule = result.schedule
        if trim_unused_features(adg, [schedule]):
            telemetry.incr("compose_fabrics_trimmed")
        area, power = area_power.estimate(adg)
        specialized[kernel.name] = SpecializedKernel(
            kernel=kernel, adg=adg,
            schedules={result.params: schedule},
            cycles=result.perf.cycles, area=area, power=power,
        )
        telemetry.event({
            "type": "specialize", "kernel": kernel.name,
            "cycles": result.perf.cycles, "area_mm2": area,
            "power_mw": power,
        })
    return specialized


# ---------------------------------------------------------------------------
# Candidate evaluation (pure; pool-able via the fork-inherited global)
# ---------------------------------------------------------------------------

@dataclass
class ComposeContext:
    """Run-constant state, inherited by forked workers."""

    specialized: dict      # name -> SpecializedKernel
    sched_iters: int
    area_power: object
    area_budget_mm2: float
    power_budget_mw: float


@dataclass
class ComposeTask:
    """One composition candidate shipped to a worker.

    ``fabrics`` holds one merged ADG per cluster; ``node_maps[i]`` maps
    each member kernel's specialized-fabric node names into
    ``fabrics[i]`` (identity entries for singleton clusters).
    """

    index: int
    iteration: int
    partition: tuple
    fabrics: list
    node_maps: list        # [ {kernel: {src: dst}} ] aligned to fabrics
    seed: object


@dataclass
class ComposeOutcome:
    """Worker result for one composition candidate."""

    index: int
    iteration: int
    ok: bool
    partition: tuple = ()
    area: float = 0.0
    power: float = 0.0
    cycles: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    reason: str = ""
    stage_seconds: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def _evaluate_composition(task, ctx):
    """Warm-start + compile every kernel on its cluster fabric.

    Pure in ``(task, context)``: the serial path and the process-pool
    path are interchangeable. All framework errors fold into a failed
    outcome so one bad composition never aborts its generation.
    """
    stage = {}
    counters = {"compose_evaluated": 1}
    start = time.perf_counter()
    area = power = 0.0
    for fabric in task.fabrics:
        fabric_area, fabric_power = ctx.area_power.estimate(fabric)
        area += fabric_area
        power += fabric_power
    stage["estimate"] = time.perf_counter() - start
    if area > ctx.area_budget_mm2 or power > ctx.power_budget_mw:
        counters["compose_over_budget"] = 1
        return ComposeOutcome(
            index=task.index, iteration=task.iteration, ok=False,
            partition=task.partition, area=area, power=power,
            reason="over-budget", stage_seconds=stage, counters=counters,
        )
    rng = DeterministicRng(task.seed)
    cycles = {}
    results = {}
    start = time.perf_counter()
    try:
        for cluster, fabric, maps in zip(
            task.partition, task.fabrics, task.node_maps
        ):
            for kernel_name in cluster:
                spec = ctx.specialized[kernel_name]
                warm, stripped = translate_warm_schedules(
                    {kernel_name: spec.schedules}, fabric,
                    maps[kernel_name],
                )
                counters["compose_warm_stripped"] = (
                    counters.get("compose_warm_stripped", 0) + stripped
                )
                if warm.get(kernel_name):
                    counters["compose_warm_starts"] = (
                        counters.get("compose_warm_starts", 0) + 1
                    )
                result = compile_kernel(
                    spec.kernel, fabric,
                    rng=rng.fork(f"sched-{kernel_name}"),
                    max_iters=ctx.sched_iters,
                    initial_schedules=warm.get(kernel_name),
                )
                if not result.ok:
                    stage["compile"] = time.perf_counter() - start
                    counters["compose_failed"] = 1
                    return ComposeOutcome(
                        index=task.index, iteration=task.iteration,
                        ok=False, partition=task.partition, area=area,
                        power=power,
                        reason=f"no-legal-mapping:{kernel_name}",
                        stage_seconds=stage, counters=counters,
                    )
                cycles[kernel_name] = result.perf.cycles
                results[kernel_name] = result
    except DsagenError as exc:
        stage["compile"] = time.perf_counter() - start
        counters["compose_failed"] = 1
        return ComposeOutcome(
            index=task.index, iteration=task.iteration, ok=False,
            partition=task.partition, area=area, power=power,
            reason=f"error: {exc}", stage_seconds=stage,
            counters=counters,
        )
    stage["compile"] = time.perf_counter() - start
    return ComposeOutcome(
        index=task.index, iteration=task.iteration, ok=True,
        partition=task.partition, area=area, power=power,
        cycles=cycles, results=results, stage_seconds=stage,
        counters=counters,
    )


def _worker_failed(task):
    """A composition whose in-process retry also died: rejected."""
    return ComposeOutcome(
        index=task.index, iteration=task.iteration, ok=False,
        partition=task.partition, reason="worker-failed",
        counters={"compose_evaluated": 1, "compose_failed": 1},
    )


# ---------------------------------------------------------------------------
# History / result containers
# ---------------------------------------------------------------------------

@dataclass
class ComposeHistoryEntry:
    """One evaluated composition candidate."""

    iteration: int
    partition: tuple
    strategy: str
    area_mm2: float
    power_mw: float
    objective: float
    accepted: bool
    mutations: list = field(default_factory=list)
    candidate: int = 0


@dataclass
class ComposeResult:
    """Composition-explorer outcome for one shared area budget."""

    best_partition: tuple
    best_objective: float
    area_budget_mm2: float
    history: list = field(default_factory=list)
    strategy_best: dict = field(default_factory=dict)
    kernel_cycles: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)

    @property
    def best_strategy(self):
        return partition_strategy(self.best_partition)


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------

class CompositionExplorer:
    """Searches kernel-to-fabric compositions under a shared budget."""

    def __init__(
        self,
        specialized,
        rng=None,
        area_budget_mm2=10.0,
        power_budget_mw=4000.0,
        sched_iters=100,
        area_power_model=None,
        workers=1,
        telemetry=None,
        eval_timeout=None,
        fidelity=None,
        surrogate_top=None,
        surrogate_widen=4,
        recalibrate_every=16,
    ):
        if not specialized:
            raise DseError("composition needs at least one kernel")
        self.specialized = dict(specialized)
        self.rng = rng or DeterministicRng("compose")
        fidelity = resolve_fidelity(fidelity)
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
        self.sched_iters = int(sched_iters)
        self.area_power = area_power_model or default_model()
        self.objective = DseObjective(
            area_budget_mm2=area_budget_mm2,
            power_budget_mw=power_budget_mw,
        )
        self.objective.set_baseline({
            name: spec.cycles for name, spec in self.specialized.items()
        })
        self.workers = max(1, int(workers))
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.eval_timeout = eval_timeout
        self._fabric_cache = {}  # cluster tuple -> (fabric, {k: node_map})

    # ------------------------------------------------------------------
    def cluster_fabric(self, cluster):
        """The merged fabric serving ``cluster`` plus per-kernel node
        maps into it. Deterministic (members merge in sorted order) and
        memoized — the same cluster across generations costs one merge.
        """
        key = tuple(sorted(cluster))
        cached = self._fabric_cache.get(key)
        if cached is not None:
            return cached
        fabrics = [self.specialized[name].adg for name in key]
        merged, maps = merge_all(
            fabrics, name="+".join(key)
        )
        entry = (merged, dict(zip(key, maps)))
        self._fabric_cache[key] = entry
        self.telemetry.incr("compose_fabric_merges")
        return entry

    def _materialize(self, partition):
        """(fabrics, node_maps) for every cluster of ``partition``."""
        fabrics = []
        node_maps = []
        for cluster in partition:
            fabric, maps = self.cluster_fabric(cluster)
            fabrics.append(fabric)
            node_maps.append(maps)
        return fabrics, node_maps

    def _context(self):
        return ComposeContext(
            specialized=self.specialized,
            sched_iters=self.sched_iters,
            area_power=self.area_power,
            area_budget_mm2=self.objective.area_budget_mm2,
            power_budget_mw=self.objective.power_budget_mw,
        )

    # ------------------------------------------------------------------
    def _composition_features(self, partition):
        """Surrogate features: elementwise sum of cluster-fabric graph
        features (composition size shows up as scaled counts)."""
        total = None
        for cluster in partition:
            fabric, _ = self.cluster_fabric(cluster)
            vector = graph_feature_vector(fabric)
            if total is None:
                total = list(vector)
            else:
                total = [a + b for a, b in zip(total, vector)]
        return total

    def _select_finalists(self, candidates, finalists):
        """Surrogate rank + analytical budget filter (main process only;
        mirrors ``DesignSpaceExplorer._select_finalists``)."""
        telemetry = self.telemetry
        telemetry.incr("compose_considered", len(candidates))
        if self.surrogate is None:
            return list(range(len(candidates))), None, None
        with telemetry.timer("surrogate"):
            features = [
                self._composition_features(partition)
                for partition, _ in candidates
            ]
            predictions = [
                self.surrogate.predict(vector) for vector in features
            ]
            order = SurrogateModel.rank(predictions)
            telemetry.incr("surrogate_scored", len(candidates))
        chosen = []
        with telemetry.timer("analytical_filter"):
            for src in order:
                if len(chosen) >= finalists:
                    break
                area = power = 0.0
                for cluster in candidates[src][0]:
                    fabric, _ = self.cluster_fabric(cluster)
                    fabric_area, fabric_power = \
                        self.area_power.estimate(fabric)
                    area += fabric_area
                    power += fabric_power
                if (area > self.objective.area_budget_mm2
                        or power > self.objective.power_budget_mw):
                    telemetry.incr("compose_analytical_rejected")
                    continue
                chosen.append(src)
        telemetry.incr("compose_finalists", len(chosen))
        return chosen, features, predictions

    def _sample_generation(self, incumbent, width, iteration):
        """Width keyed partition mutations of the incumbent, deduped
        (against each other and the incumbent), in draw order."""
        seen = {incumbent}
        candidates = []
        for idx in range(width):
            rng = self.rng.spawn("cmutate", iteration, idx)
            partition, description = mutate_partition(incumbent, rng)
            if partition in seen:
                continue
            seen.add(partition)
            candidates.append((partition, [description]))
        return candidates

    # ------------------------------------------------------------------
    def run(self, max_iters=8, patience=None, width=None, workers=None,
            eval_timeout=None, checkpoint_path=None, checkpoint_every=1,
            resume=False):
        """Explore compositions for up to ``max_iters`` generations.

        Iteration 0 always evaluates the two seed compositions (merged
        and per-kernel) so every run reports all three strategy
        baselines; the best finite seed becomes the incumbent. Returns a
        :class:`ComposeResult`.
        """
        workers = self.workers if workers is None else max(1, int(workers))
        if eval_timeout is not None:
            self.eval_timeout = eval_timeout
        finalists = self.surrogate_top or max(1, workers)
        width = width if width is not None else (
            finalists * self.surrogate_widen
            if self.fidelity == "multi" else finalists
        )
        patience = patience if patience is not None else max_iters
        checkpoint_every = max(1, int(checkpoint_every))
        telemetry = self.telemetry
        run_start = time.perf_counter()
        names = tuple(sorted(self.specialized))

        saved = None
        if resume and checkpoint_path and os.path.exists(checkpoint_path):
            saved = checkpoint.read(
                checkpoint_path, COMPOSE_CHECKPOINT_VERSION, self._pins()
            )

        context = self._context()
        result = None
        if saved is not None:
            (best_partition, saved_surrogate, strategy_best,
             kernel_cycles) = saved["state"]
            if self.surrogate is not None:
                self.surrogate = saved_surrogate
            best_score = saved["best_objective"]
            result = ComposeResult(
                best_partition=best_partition,
                best_objective=best_score,
                area_budget_mm2=self.objective.area_budget_mm2,
                strategy_best=strategy_best,
                kernel_cycles=kernel_cycles,
            )
            result.history = [
                ComposeHistoryEntry(**{
                    **entry,
                    "partition": canonical_partition(entry["partition"]),
                })
                for entry in saved["history"]
            ]
            stale = saved["stale"]
            start_iteration = saved["iteration"] + 1
            telemetry.incr("compose_resumes")
            telemetry.event({
                "type": "compose_resume",
                "iteration": saved["iteration"],
                "objective": best_score, "workers": workers,
            })
        else:
            stale = 0
            start_iteration = 1
            best_partition = None
            best_score = float("-inf")

        def save(iteration):
            checkpoint.write(checkpoint_path, {
                "version": COMPOSE_CHECKPOINT_VERSION,
                **self._pins(),
                "iteration": iteration,
                "stale": stale,
                "best_objective": best_score,
                "history": [asdict(entry) for entry in result.history],
            }, (result.best_partition, self.surrogate,
                dict(result.strategy_best), dict(result.kernel_cycles)))
            telemetry.incr("compose_checkpoints_written")

        last_iteration = start_iteration - 1
        with ForkPool(
            _evaluate_composition, context, workers, telemetry.incr,
            "compose", failed=_worker_failed,
            eval_timeout=self.eval_timeout,
        ) as pool:
            if saved is None:
                seeds = [canonical_partition([names])]
                per_kernel = canonical_partition(
                    [[name] for name in names]
                )
                if per_kernel not in seeds:
                    seeds.append(per_kernel)
                candidates = [
                    (partition, ["seed"]) for partition in seeds
                ]
                result = ComposeResult(
                    best_partition=None,
                    best_objective=float("-inf"),
                    area_budget_mm2=self.objective.area_budget_mm2,
                )
                accepted = self._run_generation(
                    pool, candidates, 0, result, best_score,
                    finalists=len(candidates),
                )
                if accepted is None:
                    raise DseError(
                        "no seed composition fits the budget "
                        f"({self.objective.area_budget_mm2:.2f} mm^2)"
                    )
                best_partition, best_score, cycles = accepted
                result.best_partition = best_partition
                result.best_objective = best_score
                result.kernel_cycles = cycles
                last_iteration = 0
                if checkpoint_path:
                    save(0)

            for iteration in range(start_iteration, max_iters + 1):
                if stale >= patience:
                    break
                with telemetry.timer("mutate"):
                    candidates = self._sample_generation(
                        best_partition, width, iteration
                    )
                if not candidates:
                    stale += 1
                else:
                    accepted = self._run_generation(
                        pool, candidates, iteration, result, best_score,
                        finalists=finalists,
                    )
                    if accepted is None:
                        stale += 1
                    else:
                        best_partition, best_score, cycles = accepted
                        result.best_partition = best_partition
                        result.best_objective = best_score
                        result.kernel_cycles = cycles
                        stale = 0
                last_iteration = iteration
                if checkpoint_path and iteration % checkpoint_every == 0:
                    save(iteration)

        if checkpoint_path:
            save(last_iteration)

        wall = time.perf_counter() - run_start
        summary = telemetry.summary()
        summary.update({
            "wall_seconds": wall,
            "workers": workers,
            "fidelity": self.fidelity,
            "finalists": finalists,
            "generation_width": width,
            "area_budget_mm2": self.objective.area_budget_mm2,
            "best_partition": [list(c) for c in best_partition],
            "best_strategy": partition_strategy(best_partition),
            "best_objective": best_score,
            "strategy_best": dict(result.strategy_best),
        })
        if self.surrogate is not None:
            summary["surrogate"] = self.surrogate.stats()
        result.telemetry = summary
        telemetry.event({"type": "compose_summary", **summary})
        return result

    # ------------------------------------------------------------------
    def _run_generation(self, pool, candidates, iteration, result,
                        best_score, finalists=None):
        """Evaluate one generation of (partition, descriptions)
        candidates; returns ``(partition, score, cycles)`` for a strict
        improvement or None."""
        telemetry = self.telemetry
        if finalists is None:
            finalists = len(candidates)
        chosen, features, predictions = self._select_finalists(
            candidates, finalists
        )
        tasks = []
        for idx, src in enumerate(chosen):
            partition = candidates[src][0]
            fabrics, node_maps = self._materialize(partition)
            tasks.append(ComposeTask(
                index=idx, iteration=iteration, partition=partition,
                fabrics=fabrics, node_maps=node_maps,
                seed=self.rng.spawn("ceval", iteration, idx).seed,
            ))
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
            strategy = partition_strategy(outcome.partition)
            if score > result.strategy_best.get(
                strategy, float("-inf")
            ):
                result.strategy_best[strategy] = score
            if score > winner_score:  # strict: ties keep lowest index
                winner = outcome
                winner_score = score
        for idx, outcome in enumerate(outcomes):
            accepted = (winner is not None
                        and outcome.index == winner.index)
            if not accepted:
                telemetry.incr("compose_rejected")
            result.history.append(ComposeHistoryEntry(
                iteration=iteration, partition=outcome.partition,
                strategy=partition_strategy(outcome.partition)
                if outcome.partition else "unknown",
                area_mm2=outcome.area, power_mw=outcome.power,
                objective=scores[idx], accepted=accepted,
                mutations=list(candidates[chosen[idx]][1]),
                candidate=outcome.index,
            ))
        if self.surrogate is not None:
            with telemetry.timer("surrogate"):
                for idx, outcome in enumerate(outcomes):
                    src = chosen[idx]
                    self.surrogate.observe(
                        features[src], outcome.ok, scores[idx],
                        cycles=outcome.cycles or None,
                        prediction=predictions[src],
                    )
                refit = self.surrogate.maybe_refit()
            if refit is not None:
                telemetry.incr("surrogate_refits")
                telemetry.event({
                    "type": "surrogate_refit", "iteration": iteration,
                    **refit,
                })
        telemetry.event({
            "type": "compose_generation",
            "iteration": iteration,
            "considered": len(candidates),
            "finalists": len(chosen),
            "candidates": len(outcomes),
            "accepted_candidate": winner.index if winner else None,
            "best_objective": winner_score,
            "objectives": [
                s if s != float("-inf") else None for s in scores
            ],
        })
        if winner is None:
            return None
        return winner.partition, winner_score, winner.cycles

    # ------------------------------------------------------------------
    def _specialized_fingerprint(self):
        # Imported lazily: repro.harness's package init imports the fig
        # drivers, which import repro.dse — a module-level import here
        # would close that cycle during package initialization.
        from repro.harness.compile_cache import adg_fingerprint

        return [
            [name, adg_fingerprint(self.specialized[name].adg)]
            for name in sorted(self.specialized)
        ]

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
            "specialized": self._specialized_fingerprint(),
        }


# ---------------------------------------------------------------------------
# The budget sweep entry point (CLI / harness / server job)
# ---------------------------------------------------------------------------

def run_compose(kernels, rng=None, budgets=None,
                budget_fractions=DEFAULT_BUDGET_FRACTIONS,
                power_budget_mw=4000.0, sched_iters=100,
                specialize_sched_iters=None, max_iters=6, width=None,
                workers=1, telemetry=None, fidelity=None,
                surrogate_top=None, surrogate_widen=4,
                recalibrate_every=16, eval_timeout=None,
                checkpoint_path=None, resume=False, rows=5, cols=4):
    """Specialize, then sweep compositions across shared area budgets.

    ``budgets`` (absolute mm^2) overrides ``budget_fractions`` (of the
    summed specialized area). Returns a dict with the specialized
    baseline and one :class:`ComposeResult` per budget, plus a
    cross-budget strategy scoreboard.
    """
    rng = rng or DeterministicRng("compose")
    telemetry = telemetry if telemetry is not None else Telemetry()
    with telemetry.timer("specialize"):
        specialized = specialize_kernels(
            kernels, rng,
            sched_iters=specialize_sched_iters or sched_iters * 5,
            telemetry=telemetry, rows=rows, cols=cols,
        )
    total_area = sum(spec.area for spec in specialized.values())
    if budgets is None:
        # No rounding: at fraction 1.0 the per-kernel composition must
        # fit its own footprint exactly.
        budgets = [total_area * fraction for fraction in budget_fractions]
    telemetry.event({
        "type": "compose_budgets",
        "specialized_area_mm2": total_area,
        "budgets": list(budgets),
    })
    results = {}
    for budget in budgets:
        explorer = CompositionExplorer(
            specialized,
            rng=rng.fork(f"budget-{budget}"),
            area_budget_mm2=budget,
            power_budget_mw=power_budget_mw,
            sched_iters=sched_iters,
            workers=workers,
            telemetry=telemetry,
            eval_timeout=eval_timeout,
            fidelity=fidelity,
            surrogate_top=surrogate_top,
            surrogate_widen=surrogate_widen,
            recalibrate_every=recalibrate_every,
        )
        path = (
            f"{checkpoint_path}.{budget}" if checkpoint_path else None
        )
        try:
            results[budget] = explorer.run(
                max_iters=max_iters, width=width,
                checkpoint_path=path, resume=resume,
            )
        except DseError as exc:
            telemetry.incr("compose_budget_infeasible")
            telemetry.event({
                "type": "compose_infeasible",
                "area_budget_mm2": budget,
                "reason": str(exc),
            })
            results[budget] = None
    scoreboard = {}
    for budget, outcome in results.items():
        if outcome is None:
            continue
        for strategy, score in outcome.strategy_best.items():
            best = scoreboard.get(strategy)
            if best is None or score > best:
                scoreboard[strategy] = score
    return {
        "specialized": specialized,
        "specialized_area_mm2": total_area,
        "budgets": list(budgets),
        "results": results,
        "strategy_best": scoreboard,
    }
