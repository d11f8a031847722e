"""Fault-injection campaigns over the workload registry.

A campaign sweeps fault count and kind over a set of workloads: case
``i`` of campaign ``seed`` is a pure function of ``(seed, i)`` (workload
pick, fault draw, repair randomness), so any case replays standalone
from its serialized spec. Per-workload baselines (healthy compile +
simulated cycles) are prepared once and shared across cases; the cases
themselves run either serially or across the shared fork pool
(:mod:`repro.utils.pool`), whose workers inherit the baselines from the
parent.

Outputs: a :class:`CampaignSummary` with outcome counts and per-workload
degradation curves (performance retained vs. faults injected, repair
vs. remap effort), every point also emitted through
:mod:`repro.utils.telemetry` as ``degradation-curve`` events so a
``--telemetry-out`` JSONL log captures the whole sweep.
"""

from dataclasses import dataclass, field

from repro.errors import CompilationError
from repro.faults.degrade import (
    generate_case,
    prepare_baseline,
    report_miscompile,
    run_case,
    run_cases_batched,
)
from repro.sim import SIM_ENGINES
from repro.utils.pool import ForkPool
from repro.utils.telemetry import Telemetry

#: Workloads small enough to compile + simulate in a few seconds each at
#: the default campaign scale; the CLI accepts any registry subset.
DEFAULT_WORKLOADS = ("mm", "md", "join")


@dataclass
class _CampaignContext:
    baselines: dict                  # workload -> WorkloadBaseline
    sched_iters: int
    sim_engine: str = None


def _run_cases(cases, ctx):
    """Run one task's cases (all of one workload) against the shared
    baselines; returns ``(outcomes, counters)``. The batched engine
    simulates them as lanes of a single columnar batch."""
    telemetry = Telemetry()
    baseline = ctx.baselines.get(cases[0].workload)
    if ctx.sim_engine == "batched":
        outcomes = run_cases_batched(
            cases, baseline=baseline, sched_iters=ctx.sched_iters,
            telemetry=telemetry,
        )
    else:
        outcomes = [
            run_case(case, baseline=baseline, sched_iters=ctx.sched_iters,
                     telemetry=telemetry, sim_engine=ctx.sim_engine)
            for case in cases
        ]
    return outcomes, dict(telemetry.counters)


@dataclass
class CampaignSummary:
    """Outcome of one fault campaign."""

    seed: int
    cases: int = 0
    counts: dict = field(default_factory=dict)     # status -> n
    results: list = field(default_factory=list)    # (case, outcome)
    repro_paths: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)     # workload -> points

    @property
    def ok(self):
        """A campaign is clean when nothing miscompiled."""
        return self.counts.get("miscompiled", 0) == 0

    def curve_rows(self):
        """Degradation-curve table: one row per (workload, fault count)."""
        rows = []
        for workload in sorted(self.curves):
            for point in self.curves[workload]:
                rows.append({
                    "workload": workload,
                    "faults": point["faults"],
                    "cases": point["cases"],
                    "recovered": point["recovered"],
                    "degraded": point["degraded"],
                    "unmappable": point["unmappable"],
                    "miscompiled": point["miscompiled"],
                    "perf_retained": round(point["perf_retained"], 3),
                })
        return rows

    def to_dict(self):
        return {
            "seed": self.seed,
            "cases": self.cases,
            "counts": dict(sorted(self.counts.items())),
            "curves": {
                name: [dict(point) for point in points]
                for name, points in sorted(self.curves.items())
            },
            "repro_paths": list(self.repro_paths),
        }


def _build_curves(results):
    """Aggregate (case, outcome) pairs into per-workload curve points.

    ``perf_retained`` at a fault count is the mean of
    ``baseline/cycles`` over that bucket's cases, counting unmappable
    and miscompiled cases as zero performance retained.
    """
    buckets = {}
    for case, outcome in results:
        key = (case.workload, len(case.faults))
        buckets.setdefault(key, []).append(outcome)
    curves = {}
    for (workload, faults), outcomes in sorted(buckets.items()):
        retained = []
        point = {"faults": faults, "cases": len(outcomes),
                 "recovered": 0, "degraded": 0, "unmappable": 0,
                 "miscompiled": 0}
        for outcome in outcomes:
            point[outcome.status] = point.get(outcome.status, 0) + 1
            if outcome.status in ("recovered", "degraded") \
                    and outcome.slowdown > 0:
                retained.append(1.0 / outcome.slowdown)
            else:
                retained.append(0.0)
        point["perf_retained"] = sum(retained) / len(retained)
        curves.setdefault(workload, []).append(point)
    return curves


def run_campaign(
    workloads=DEFAULT_WORKLOADS,
    cases=25,
    seed=2026,
    preset="softbrain",
    scale=0.05,
    max_faults=3,
    kinds=None,
    sched_iters=120,
    workers=1,
    telemetry=None,
    out_dir=None,
    shrink=True,
    progress=None,
    sim_engine=None,
):
    """Run a fault campaign; returns a :class:`CampaignSummary`.

    Miscompiled cases are shrunk (when ``shrink``) and written as repro
    files under ``out_dir``. ``progress`` is an optional
    ``callback(index, case, outcome)`` invoked per completed case.
    ``sim_engine="batched"`` simulates all cases of a workload as lanes
    of one columnar batch (one pool task per workload group, so the fork
    pool still parallelizes across workloads); other engines run one
    case per pool task.
    """
    if sim_engine is not None and sim_engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {sim_engine!r}; one of {SIM_ENGINES}"
        )
    telemetry = telemetry if telemetry is not None else Telemetry()
    summary = CampaignSummary(seed=seed)

    baselines = {}
    usable = []
    with telemetry.timer("faults/baselines"):
        for workload in workloads:
            try:
                baselines[workload] = prepare_baseline(
                    workload, preset=preset, scale=scale,
                    sched_iters=sched_iters, seed=seed,
                )
                usable.append(workload)
            except CompilationError:
                # A workload the healthy preset cannot host is a
                # campaign-configuration problem, not a fault outcome.
                telemetry.incr("fault_baseline_failures")
    if not usable:
        raise CompilationError(
            "no campaign workload compiles on the healthy ADG"
        )
    base_adg = baselines[usable[0]].adg

    specs = [
        generate_case(
            seed, index, workloads=usable, preset=preset, scale=scale,
            max_faults=max_faults, kinds=kinds, adg=base_adg,
        )
        for index in range(cases)
    ]

    if sim_engine == "batched":
        # One task per workload: lanes share the workload's base ADG
        # topology, which is what the columnar engine exploits, and the
        # fork pool still fans out across workload groups.
        groups = {}
        for idx, case in enumerate(specs):
            groups.setdefault(case.workload, []).append(idx)
        tasks = list(groups.values())
    else:
        tasks = [[idx] for idx in range(len(specs))]
    context = _CampaignContext(baselines=baselines,
                               sched_iters=sched_iters,
                               sim_engine=sim_engine)
    with ForkPool(_run_cases, context, workers, telemetry.incr, "fault",
                  errors="fault_worker_errors") as pool:
        results = pool.map(
            [[specs[idx] for idx in indices] for indices in tasks]
        )
    outcomes = [None] * len(specs)
    for indices, (task_outcomes, counters) in zip(tasks, results):
        for idx, outcome in zip(indices, task_outcomes):
            outcomes[idx] = outcome
        telemetry.merge_counters(counters)

    for idx, (case, outcome) in enumerate(zip(specs, outcomes)):
        summary.cases += 1
        summary.counts[outcome.status] = \
            summary.counts.get(outcome.status, 0) + 1
        summary.results.append((case, outcome))
        telemetry.incr("fault_cases")
        telemetry.incr(f"fault_outcome_{outcome.status}")
        telemetry.incr("faults_injected", len(case.faults))
        telemetry.event({
            "kind": "fault-case",
            "case": case.name,
            "workload": case.workload,
            "faults": [f for f in outcome.faults],
            "outcome": outcome.to_dict(),
        })
        if outcome.status == "miscompiled" and out_dir:
            path = report_miscompile(
                case, outcome, out_dir,
                baseline=baselines.get(case.workload),
                sched_iters=sched_iters, shrink=shrink,
            )
            summary.repro_paths.append(path)
        if progress is not None:
            progress(idx, case, outcome)

    summary.curves = _build_curves(summary.results)
    for workload, points in sorted(summary.curves.items()):
        for point in points:
            telemetry.event({
                "kind": "degradation-curve",
                "workload": workload,
                **point,
            })
    telemetry.event({"kind": "fault-campaign-summary",
                     **summary.to_dict()})
    return summary


__all__ = [
    "DEFAULT_WORKLOADS",
    "CampaignSummary",
    "run_campaign",
]
