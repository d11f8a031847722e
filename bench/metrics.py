"""Metric declarations, statistics helpers and per-layer derivations.

``BENCHMARK.json`` at the repository root declares every metric with
its unit (and, for end-to-end metrics, its regression bound). This
module adds what the JSON file has no room for: which workloads a
per-layer metric applies to and which end-to-end metric it should move
there (:data:`LAYER_MOVES`), which per-layer values must repeat exactly
(:data:`EXACT`), and how each per-layer value is derived from the
traced run's spans and ``Telemetry`` data (:func:`layer_values`).
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("compile-fig10", "sim-paper", "dse-fig14", "faults-100",
             "serve-replay")
_SCHED = ("compile-fig10", "dse-fig14")

#: Per-layer metric -> (workloads it is meaningful on, the end-to-end
#: metric a change to that layer should move there). Values are per
#: traced round unless the name says otherwise; on other workloads a
#: metric reads 0.
LAYER_MOVES = {
    "scheduler.schedule_s": (_SCHED, "round_s"),
    "scheduler.schedule_calls": (_SCHED, "round_s"),
    "scheduler.timing_s": (_SCHED, "round_s"),
    "scheduler.timing_calls": (_SCHED, "round_s"),
    "scheduler.iterations": (_SCHED, "round_s"),
    "scheduler.evaluations": (_SCHED, "round_s"),
    "scheduler.evals_per_s": (_SCHED, "round_s"),
    "scheduler.timing_cache_hit_frac": (_SCHED, "round_s"),
    "scheduler.repair_frac": (("dse-fig14",), "round_s"),
    "ir.topo_order_s": (_SCHED, "round_s"),
    "ir.topo_order_calls": (_SCHED, "round_s"),
    "compiler.compile_s": (_SCHED, "round_s"),
    "compiler.variants_s": (_SCHED, "round_s"),
    "estimation.estimate_s": (_SCHED, "round_s"),
    "estimation.estimate_calls": (_SCHED, "round_s"),
    "codegen.program_s": (_SCHED, "round_s"),
    "dse.explore_s": (("dse-fig14",), "round_s"),
    "dse.initial_compile_s": (("dse-fig14",), "round_s"),
    "dse.evaluate_s": (("dse-fig14",), "round_s"),
    "dse.surrogate_s": (("dse-fig14",), "round_s"),
    "dse.analytical_filter_s": (("dse-fig14",), "round_s"),
    "dse.mutate_s": (("dse-fig14",), "round_s"),
    "dse.candidates_considered": (("dse-fig14",), "round_s"),
    "dse.finalists": (("dse-fig14",), "round_s"),
    "dse.objective_x": (("dse-fig14",), "round_s"),
    "ir.interp_s": (("sim-paper",), "round_s"),
    "sim.simulate_s": (("sim-paper",), "round_s"),
    "sim.build_s": (("sim-paper",), "round_s"),
    "sim.replay_s": (("sim-paper",), "round_s"),
    "sim.steps_executed": (("sim-paper",), "round_s"),
    "sim.cycles_skipped_frac": (("sim-paper",), "round_s"),
    "sim.cycles_per_host_s": (("sim-paper",), "round_s"),
    "sim.stepped_replay_s": (("sim-paper",), "round_s"),
    "sim.cycles": (("compile-fig10", "sim-paper"), "round_s"),
    "faults.baselines_s": (("faults-100",), "round_s"),
    "faults.cases_s": (("faults-100",), "round_s"),
    "faults.repair_iterations": (("faults-100",), "round_s"),
    "faults.full_remaps": (("faults-100",), "round_s"),
    "faults.perf_retained": (("faults-100",), "round_s"),
    "sim.batch_lanes": (("faults-100",), "round_s"),
    "sim.batch_evicted_frac": (("faults-100",), "round_s"),
    "server.request_s": (("serve-replay",), "round_s"),
    "server.wait_s": (("serve-replay",), "round_s"),
    "server.cold_compile_s": (("serve-replay",), "setup_s"),
    "server.cold_simulate_s": (("serve-replay",), "setup_s"),
    "server.hit_frac": (("serve-replay",), "round_s"),
    "server.ping_p50_ms": (("serve-replay",), "round_s"),
    "server.warm_p95_ms": (("serve-replay",), "round_s"),
    "trace_overhead_frac": (WORKLOADS, "round_s"),
    "trace_coverage_frac": (WORKLOADS, "round_s"),
}

#: Values that must repeat exactly for a (workload, seed) under the
#: pinned hash seed: the simulated cycles, the DSE result, the fault
#: curve and the scheduler's effort. They are taken over the first
#: ``MIN_ROUNDS`` traced rounds, which every run makes, and
#: ``bench/compare.py`` fails on any change to them.
EXACT = ("sim.cycles", "dse.objective_x", "faults.perf_retained",
         "scheduler.iterations")

#: Span self time per round: metric -> span name (see ``trace.TARGETS``).
_SELF_SECONDS = {
    "scheduler.schedule_s": "scheduler.schedule",
    "scheduler.timing_s": "scheduler.timing",
    "ir.topo_order_s": "ir.topo_order",
    "ir.interp_s": "ir.interp",
    "compiler.compile_s": "compiler.compile",
    "compiler.variants_s": "compiler.variants",
    "estimation.estimate_s": "estimation.estimate",
    "codegen.program_s": "codegen.program",
    "sim.simulate_s": "sim.simulate",
    "sim.build_s": "sim.build",
    "sim.replay_s": "sim.replay",
    "dse.explore_s": "dse.explore",
    "faults.cases_s": "faults.campaign",
    "server.request_s": "server.request",
    "server.wait_s": "server.wait",
}

#: Span calls per round.
_CALLS = {
    "scheduler.schedule_calls": "scheduler.schedule",
    "scheduler.timing_calls": "scheduler.timing",
    "ir.topo_order_calls": "ir.topo_order",
    "estimation.estimate_calls": "estimation.estimate",
}

#: ``Telemetry`` counter per round.
_COUNTERS = {
    "scheduler.iterations": "sched_iterations",
    "scheduler.evaluations": "sched_evaluations",
    "dse.candidates_considered": "candidates_considered",
    "dse.finalists": "fidelity_finalists",
    "sim.steps_executed": "sim_steps_executed",
    "faults.repair_iterations": "fault_repair_iterations",
    "faults.full_remaps": "fault_full_remaps",
    "sim.batch_lanes": "sim_batch_lanes",
}

#: ``Telemetry`` timer seconds per round (matched at any nesting depth).
_TIMERS = {
    "dse.initial_compile_s": "initial_compile",
    "dse.evaluate_s": "evaluate",
    "dse.surrogate_s": "surrogate",
    "dse.analytical_filter_s": "analytical_filter",
    "dse.mutate_s": "mutate",
    "faults.baselines_s": "faults/baselines",
}

#: Values the workloads report per round (averaged over rounds).
ROUND_EXTRAS = ("sim.cycles", "sim.stepped_replay_s", "dse.objective_x",
                "faults.perf_retained")

#: Values the workloads report once per run.
RUN_EXTRAS = ("server.cold_compile_s", "server.cold_simulate_s",
              "server.hit_frac", "server.ping_p50_ms",
              "server.warm_p95_ms")


def load_benchmark():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def units(spec):
    """``{metric name: unit}`` over both metric lists of ``spec``."""
    return {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }


def spread(values):
    """Quartile spread as a share of the median — the statistic the
    acceptance check applies to ten runs of one workload."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


# ---------------------------------------------------------------------------
# Per-layer derivation
# ---------------------------------------------------------------------------

class Totals:
    """Sums over some traced rounds of their ``Telemetry`` counters and
    timers and of the values the workload reported for each round."""

    def __init__(self, rounds):
        """``rounds`` is a list of ``(Telemetry, {metric: value})``."""
        self.rounds = len(rounds)
        self.counters, self.timings, self.extras = {}, {}, {}
        for telemetry, extras in rounds:
            for name, value in telemetry.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, slot in telemetry.timings.items():
                self.timings[name] = (self.timings.get(name, 0.0)
                                      + slot["seconds"])
            for name, value in extras.items():
                self.extras[name] = self.extras.get(name, 0.0) + value

    def per_round(self, value):
        return value / self.rounds if self.rounds else 0.0

    def timer(self, key):
        return sum(
            seconds for name, seconds in self.timings.items()
            if name == key or name.endswith("/" + key)
        )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_values(table, every, first, run_extras, overhead, coverage):
    """Every :data:`LAYER_MOVES` metric from one traced run.

    ``table`` is :func:`trace.layer_times` over the spans inside
    measured operations, ``every`` the :class:`Totals` of all traced
    rounds and ``first`` those of the first ``MIN_ROUNDS``: counts and
    the workload's :data:`ROUND_EXTRAS` come from ``first``, so they
    repeat exactly however many rounds the time allowed, and times from
    ``every``. ``run_extras`` holds the :data:`RUN_EXTRAS`.
    """
    def span(name, field):
        return table.get(name, {}).get(field, 0.0)

    values = {}
    for metric, name in _SELF_SECONDS.items():
        values[metric] = every.per_round(span(name, "self_s"))
    for metric, name in _CALLS.items():
        values[metric] = every.per_round(span(name, "calls"))
    for metric, name in _TIMERS.items():
        values[metric] = every.per_round(every.timer(name))
    for metric, name in _COUNTERS.items():
        values[metric] = first.per_round(first.counters.get(name, 0))
    for metric in ROUND_EXTRAS:
        values[metric] = first.per_round(first.extras.get(metric, 0.0))
    for metric in RUN_EXTRAS:
        values[metric] = run_extras.get(metric, 0.0)
    counters = first.counters
    values["scheduler.evals_per_s"] = _ratio(
        every.counters.get("sched_evaluations", 0),
        span("scheduler.schedule", "total_s"),
    )
    hits = counters.get("timing_region_cache_hits", 0)
    values["scheduler.timing_cache_hit_frac"] = _ratio(
        hits, hits + counters.get("timing_region_recomputes", 0)
    )
    repairs = counters.get("schedule_repairs", 0)
    values["scheduler.repair_frac"] = _ratio(
        repairs, repairs + counters.get("full_remaps", 0)
    )
    values["sim.cycles_skipped_frac"] = _ratio(
        counters.get("sim_cycles_skipped", 0),
        counters.get("sim_cycles_modeled", 0),
    )
    values["sim.cycles_per_host_s"] = _ratio(
        every.counters.get("sim_cycles_modeled", 0),
        span("sim.simulate", "total_s"),
    )
    values["sim.batch_evicted_frac"] = _ratio(
        counters.get("sim_batch_lanes_evicted", 0),
        counters.get("sim_batch_lanes", 0),
    )
    values["trace_overhead_frac"] = overhead
    values["trace_coverage_frac"] = coverage
    return values
