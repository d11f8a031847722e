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

The search itself is the generation funnel of :mod:`repro.dse.funnel`,
the same one :class:`repro.dse.explorer.DesignSpaceExplorer` runs: a
merged or partitioned fabric set is one more kind of candidate, not a
second search. :class:`CompositionExplorer` is the funnel's adapter for
partitions — the surrogate ranks a widened generation on summed
cluster-fabric features, the analytical model filters on summed
cluster-fabric area/power, and evaluation seeds are keyed
``spawn("ceval", iteration, index)`` — so it inherits the funnel's
contracts: ``workers=N`` is bit-identical to ``workers=1``, and
checkpoint/resume round-trips the trajectory. To evaluate a finalist, a
worker translates each kernel's specialized schedule onto its cluster
fabric through the merge node map (:mod:`repro.scheduler.warmstart`)
and repairs it, rather than remapping from scratch.
"""

import time
from dataclasses import dataclass, field

from repro.adg import topologies
from repro.adg.features import graph_feature_vector
from repro.adg.merge import merge_all
from repro.compiler.pipeline import compile_kernel
from repro.dse.funnel import (
    GenerationFunnel,
    SearchState,
    estimate_fabrics,
    evaluate_finalist,
    funnel_knobs,
)
from repro.dse.mutation import trim_unused_features
from repro.errors import DseError
from repro.estimation.power_area import default_model
from repro.scheduler.warmstart import translate_warm_schedules
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


def _evaluate_composition(task, ctx):
    """Warm-start + compile every kernel on its cluster fabric (the
    worker half of :func:`repro.dse.funnel.evaluate_finalist`)."""

    def compile_all(rng, outcome):
        counters = outcome.counters
        cycles = {}
        results = {}
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
                    return f"no-legal-mapping:{kernel_name}"
                cycles[kernel_name] = result.perf.cycles
                results[kernel_name] = result
        outcome.cycles = cycles
        outcome.results = results
        return None

    return evaluate_finalist(
        task, ctx, CompositionExplorer.COUNTERS, task.fabrics, compile_all
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

class CompositionExplorer(GenerationFunnel):
    """Searches kernel-to-fabric compositions under a shared budget."""

    COUNTERS = "compose"
    FILTER_COUNTERS = "compose"
    RUN = "compose"
    SEED_KEY = "ceval"
    GENERATION_EVENT = "compose_generation"
    RESUME_EVENT = "compose_resume"
    CHECKPOINT_VERSION = COMPOSE_CHECKPOINT_VERSION

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
        super().__init__(
            rng or DeterministicRng("compose"), area_budget_mm2,
            power_budget_mw, area_power_model, workers, telemetry,
            eval_timeout, fidelity, surrogate_top, surrogate_widen,
            recalibrate_every,
        )
        self.specialized = dict(specialized)
        self.sched_iters = int(sched_iters)
        self.objective.set_baseline({
            name: spec.cycles for name, spec in self.specialized.items()
        })
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

    def _context(self):
        return ComposeContext(
            specialized=self.specialized,
            sched_iters=self.sched_iters,
            area_power=self.area_power,
            area_budget_mm2=self.objective.area_budget_mm2,
            power_budget_mw=self.objective.power_budget_mw,
        )

    # ------------------------------------------------------------------
    # Candidate adapter (see repro.dse.funnel): a candidate is a
    # partition, served by one merged fabric per cluster.
    # ------------------------------------------------------------------
    def _features(self, partition):
        """Elementwise sum of cluster-fabric graph features
        (composition size shows up as scaled counts)."""
        vectors = [
            graph_feature_vector(self.cluster_fabric(cluster)[0])
            for cluster in partition
        ]
        return [sum(column) for column in zip(*vectors)]

    def _estimate(self, partition):
        return estimate_fabrics(self.area_power, [
            self.cluster_fabric(cluster)[0] for cluster in partition
        ])

    def _task(self, index, iteration, partition, seed, state):
        fabrics, node_maps = zip(*map(self.cluster_fabric, partition))
        return ComposeTask(
            index=index, iteration=iteration, partition=partition,
            fabrics=list(fabrics), node_maps=list(node_maps), seed=seed,
        )

    def _record(self, result, partition, mutations, outcome, score,
                accepted):
        strategy = partition_strategy(partition)
        if score > result.strategy_best.get(strategy, float("-inf")):
            result.strategy_best[strategy] = score
        result.history.append(ComposeHistoryEntry(
            iteration=outcome.iteration, partition=partition,
            strategy=strategy, area_mm2=outcome.area,
            power_mw=outcome.power, objective=score, accepted=accepted,
            mutations=mutations, candidate=outcome.index,
        ))

    def _accepted(self, result, partition, outcome):
        result.best_partition = partition
        result.kernel_cycles = outcome.cycles

    def _checkpoint_state(self, state):
        result = state.result
        return {}, (result.best_partition, self.surrogate,
                    dict(result.strategy_best), dict(result.kernel_cycles))

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
        telemetry = self.telemetry
        run_start = time.perf_counter()
        names = tuple(sorted(self.specialized))

        saved = self._read_checkpoint(checkpoint_path, resume)
        context = self._context()
        if saved is not None:
            (best_partition, saved_surrogate, strategy_best,
             kernel_cycles) = saved["state"]
            result = ComposeResult(
                best_partition=best_partition,
                best_objective=saved["best_objective"],
                area_budget_mm2=self.objective.area_budget_mm2,
                history=[
                    ComposeHistoryEntry(**{
                        **entry,
                        "partition": canonical_partition(
                            entry["partition"]
                        ),
                    })
                    for entry in saved["history"]
                ],
                strategy_best=strategy_best,
                kernel_cycles=kernel_cycles,
            )
            state = self._resumed(
                saved, result, best_partition, saved_surrogate,
                workers=workers,
            )
        else:
            result = ComposeResult(
                best_partition=None,
                best_objective=float("-inf"),
                area_budget_mm2=self.objective.area_budget_mm2,
            )
            state = SearchState(result, None)

        with self._pool(_evaluate_composition, context, workers) as pool:
            if saved is None:
                merged = canonical_partition([names])
                per_kernel = canonical_partition([[n] for n in names])
                seeds = [merged] if per_kernel == merged \
                    else [merged, per_kernel]
                if not self._generation(
                    pool, state, [(p, ["seed"]) for p in seeds], 0
                ):
                    raise DseError(
                        "no seed composition fits the budget "
                        f"({self.objective.area_budget_mm2:.2f} mm^2)"
                    )
                self._checkpoint(checkpoint_path, state)
            self._search(
                pool, state, max_iters + 1,
                patience if patience is not None else max_iters,
                width, finalists, self._sample_generation,
                checkpoint_path, checkpoint_every,
            )

        wall = time.perf_counter() - run_start
        summary = telemetry.summary()
        summary.update({
            "wall_seconds": wall,
            "workers": workers,
            "fidelity": self.fidelity,
            "finalists": finalists,
            "generation_width": width,
            "area_budget_mm2": self.objective.area_budget_mm2,
            "best_partition": [list(c) for c in state.best],
            "best_strategy": partition_strategy(state.best),
            "best_objective": result.best_objective,
            "strategy_best": dict(result.strategy_best),
        })
        if self.surrogate is not None:
            summary["surrogate"] = self.surrogate.stats()
        result.telemetry = summary
        telemetry.event({"type": "compose_summary", **summary})
        return result

    # ------------------------------------------------------------------
    def _explorer_pins(self):
        # Imported lazily: repro.harness's package init imports the fig
        # drivers, which import repro.dse — a module-level import here
        # would close that cycle during package initialization.
        from repro.harness.compile_cache import adg_fingerprint

        return {"specialized": [
            [name, adg_fingerprint(self.specialized[name].adg)]
            for name in sorted(self.specialized)
        ]}


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
    # Bad knobs fail here, before the kernels are specialized.
    funnel_knobs(fidelity, surrogate_top, surrogate_widen, recalibrate_every)
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
