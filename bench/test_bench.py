"""Checks of the benchmark's own definitions and arithmetic.

    python -m pytest bench -q

Fast (no workload is run): the metric declarations agree between
``BENCHMARK.json``, the runner and :mod:`bench.metrics`; the statistics
and span arithmetic are right on synthetic inputs; failures are counted
per operation.
"""

import os
import re
import statistics
import sys
import time

import pytest

from bench import calibrate, compare, metrics, run, trace

sys.path.insert(0, os.path.join(metrics.ROOT, "src"))

from bench import workloads  # noqa: E402  (imports the program)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return metrics.load_benchmark()


def names(entries):
    return [entry["name"] for entry in entries]


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        # A timing or memory metric that does not repeat within a tenth
        # is reworked or dropped, not given a wider bound.
        assert 0 < entry["bound"] <= 0.1
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["better"] in ("lower", "higher")
        assert UNIT.match(entry["unit"]), entry


def test_names_are_well_formed_and_unique(spec):
    every = (names(spec["workloads"]) + names(spec["end_to_end"])
             + names(spec["per_layer"]))
    for name in every:
        assert NAME.match(name), name
    assert len(every) == len(set(every))


def test_setup_metric_has_the_largest_bound(spec):
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_agree_everywhere(spec):
    declared = names(spec["workloads"])
    assert tuple(declared) == metrics.WORKLOADS
    assert sorted(workloads.WORKLOADS) == sorted(declared)


class DoublingHost:
    """A host-speed stand-in whose reference time is twice the wall."""

    def normalise(self, start, end):
        return 2.0 * (end - start)


def test_runner_emits_exactly_the_declared_end_to_end_metrics(spec):
    ops = workloads.Ops(DoublingHost())
    ops.samples = [("mm", False, 0.0, 1.0), ("fft", False, 1.0, 4.0)]
    values, samples = run.end_to_end([0.5, 0.4, 0.6], ops, 1, 40.0)
    assert sorted(values) == sorted(names(spec["end_to_end"]))
    assert sorted(samples) == sorted(values)
    assert values["setup_s"] == 0.5
    assert values["round_s"] == 8.0


def test_runner_emits_exactly_the_declared_layer_metrics(spec):
    values = metrics.layer_values({}, metrics.Totals([]),
                                  metrics.Totals([]), {}, overhead=0.0,
                                  coverage=0.0)
    assert sorted(values) == sorted(names(spec["per_layer"]))
    assert sorted(metrics.LAYER_MOVES) == sorted(values)
    assert set(metrics.EXACT) <= set(values)


def test_every_layer_metric_moves_a_declared_metric(spec):
    end_to_end = set(names(spec["end_to_end"]))
    for name, (where, moves) in metrics.LAYER_MOVES.items():
        assert moves in end_to_end, name
        assert where and set(where) <= set(metrics.WORKLOADS), name


class FakeTelemetry:
    def __init__(self, counters, timings=None):
        self.counters = counters
        self.timings = {name: {"seconds": seconds}
                        for name, seconds in (timings or {}).items()}


def test_layer_values_derive_ratios_and_per_round_counts():
    table = {"scheduler.schedule": {"calls": 4, "self_s": 1.0,
                                    "total_s": 2.0},
             "sim.simulate": {"calls": 2, "self_s": 0.5, "total_s": 4.0}}
    first_round = (FakeTelemetry(
        {"sched_evaluations": 100, "sched_iterations": 10,
         "timing_region_cache_hits": 1, "timing_region_recomputes": 3,
         "sim_cycles_modeled": 800, "sim_cycles_skipped": 200},
        {"dse/evaluate": 0.25},
    ), {"sim.cycles": 100})
    # A later round the time allowed: it adds to times and rates, but
    # per-round counts come from the first MIN_ROUNDS rounds only.
    late_round = (FakeTelemetry(
        {"sched_evaluations": 200, "sched_iterations": 30,
         "sim_cycles_modeled": 800}, {"dse/evaluate": 0.75},
    ), {"sim.cycles": 999})
    values = metrics.layer_values(
        table, metrics.Totals([first_round, late_round]),
        metrics.Totals([first_round]), {"server.hit_frac": 0.9},
        overhead=0.05, coverage=0.97,
    )
    assert values["scheduler.schedule_s"] == 0.5
    assert values["scheduler.schedule_calls"] == 2
    assert values["dse.evaluate_s"] == 0.5
    assert values["scheduler.iterations"] == 10
    assert values["scheduler.evaluations"] == 100
    assert values["scheduler.evals_per_s"] == 150.0
    assert values["scheduler.timing_cache_hit_frac"] == 0.25
    assert values["sim.cycles_skipped_frac"] == 0.25
    assert values["sim.cycles_per_host_s"] == 400.0
    assert values["sim.cycles"] == 100
    assert values["server.hit_frac"] == 0.9
    assert values["trace_coverage_frac"] == 0.97


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx(
        (third - first) / statistics.median(values)
    )
    assert metrics.spread([4.0]) == 0.0


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_arithmetic_on_a_span_tree():
    # op [0, 10] > schedule [1, 9] > timing [2, 4], timing [5, 6];
    # a check outside the op, and a re-entrant schedule inside schedule.
    tracer = trace.Tracer(clock=fake_clock(
        [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    ))
    op = tracer.open(trace.ROOT)
    schedule = tracer.open("scheduler.schedule")
    first = tracer.open("scheduler.timing")
    tracer.close(first)
    second = tracer.open("scheduler.timing")
    tracer.close(second)
    inner = tracer.open("scheduler.schedule")
    tracer.close(inner)
    tracer.close(schedule)
    tracer.close(op)
    check = tracer.open("sim.simulate")
    tracer.close(check)

    spans = trace.op_spans(tracer.spans())
    assert [s.name for s in spans].count("sim.simulate") == 0
    table = trace.layer_times(spans)
    assert table["scheduler.timing"] == {"calls": 2, "self_s": 3.0,
                                         "total_s": 3.0}
    # Outer schedule: 8 s minus timing (3) and the nested call (1).
    assert table["scheduler.schedule"]["self_s"] == 4.0 + 1.0
    assert table["scheduler.schedule"]["total_s"] == 8.0
    assert table[trace.ROOT]["self_s"] == 2.0
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == 10.0
    # The outer schedule is the entry point the op called: only the
    # 4 s spent in spans below it count as attributed.
    assert trace.coverage(spans) == pytest.approx(0.4)


def test_spans_must_close_in_order():
    tracer = trace.Tracer(clock=fake_clock([0, 1, 2]))
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_generator_entry_points_are_timed_per_resumption():
    tracer = trace.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5]))

    def produce():
        yield 1
        yield 2

    wrapped = trace._wrap(tracer, "compiler.variants", produce)
    assert list(wrapped()) == [1, 2]
    spans = tracer.spans()
    assert [s.name for s in spans] == ["compiler.variants"] * 3
    assert all(s.parent is None for s in spans)


def test_install_patches_every_holder_and_uninstall_restores():
    from repro.compiler import pipeline
    from repro.scheduler import objective, timing

    original = timing.compute_timing
    tracer = trace.Tracer()
    patches = trace.install(tracer)
    try:
        for module in (timing, pipeline, objective):
            assert module.compute_timing is not original
        assert module.compute_timing.__wrapped__ is original
    finally:
        trace.uninstall(patches)
    for module in (timing, pipeline, objective):
        assert module.compute_timing is original


def test_fail_frac_counts_failed_operations():
    ops = workloads.Ops(DoublingHost())
    for ok in (True, False, True, True):
        with ops.op("compile"):
            pass
        ops.check(ok, "check failed")
    with ops.op("campaign", attempts=10):
        pass
    ops.fail("three cases miscompiled", count=3)
    ops.verify(False, "served digest differs")
    assert ops.attempted == 15
    assert ops.failed == 5
    assert ops.fail_frac == pytest.approx(5 / 15)
    assert [kind for kind, *_ in ops.samples] == ["compile"] * 4 \
        + ["campaign"]
    assert workloads.Ops(DoublingHost()).fail_frac == 0.0


def test_round_seconds_sums_per_kind_means():
    ops = workloads.Ops(DoublingHost())
    ops.samples = [("mm", False, 0.0, 1.0), ("mm", False, 1.0, 4.0),
                   ("mm", False, 4.0, 6.0), ("fft", False, 6.0, 11.0),
                   ("fft", True, 11.0, 18.0)]
    assert ops.round_seconds(wall=True) == 2.0 + 5.0
    assert ops.round_seconds() == 4.0 + 10.0
    assert ops.round_seconds(traced=True) == 14.0


def test_stretches_are_scaled_by_the_samples_taken_during_them():
    reference = calibrate.REFERENCE_S
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    costs = [reference, 2 * reference, 4 * reference, reference,
             reference]
    # Samples at 2, 3 and 4 fall in [1.5, 4.5]: a mean cost of 7/3.
    assert calibrate.at_reference(times, costs, 1.5, 4.5) \
        == pytest.approx(3.0 * 3 / 7)
    # A stretch between two samples takes the two around it.
    assert calibrate.at_reference(times, costs, 2.2, 2.8) \
        == pytest.approx(0.6 / 3)


def test_speedometer_samples_until_stopped():
    host = calibrate.HostSpeed()
    start = time.perf_counter()
    time.sleep(5 * calibrate.PERIOD_S)
    end = time.perf_counter()
    host.stop()
    assert not host._process.is_alive()
    assert len(host.times) >= 2 and host.times == sorted(host.times)
    assert host.normalise(start, end) > 0


def test_outputs_match_is_exact_up_to_representation():
    golden = {"C": [1.0, 2.0, 3.0]}
    assert workloads.outputs_match({"C": [1, 2, 3]}, golden)
    assert not workloads.outputs_match({"C": [1.0, 2.0, 3.5]}, golden)
    assert not workloads.outputs_match({"C": [1.0, 2.0]}, golden)
    assert not workloads.outputs_match({"D": [1.0, 2.0, 3.0]}, golden)


def seeded(values):
    return list(enumerate(values))


def test_compare_marks_regressions_and_noise():
    spec = {"end_to_end": [{"name": "round_s", "unit": "s",
                            "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "sim.cycles", "unit": "cycles",
                           "better": "lower"},
                          {"name": "sim.build_s", "unit": "s",
                           "better": "lower"}]}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    rows = compare.compare(
        {("w", "round_s"): seeded(steady),
         ("w", "sim.build_s"): seeded([0.5, 0.5]),
         ("w", "sim.cycles"): seeded([5, 5])},
        {("w", "round_s"): seeded([x * 1.2 for x in steady]),
         ("w", "sim.build_s"): seeded([0.9, 0.9]),
         ("w", "sim.cycles"): seeded([5, 6])},
        spec,
    )
    assert [row[-1] for row in rows] == ["regressed", "-", "changed"]
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]
    assert compare.verdict(noisy, [1.05] * 5, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [0.5] * 5, "lower", 0.1) == "ok"
    assert compare.verdict(steady, [1.05] * 5, "lower", 0.1) == "ok"
    assert compare.verdict([2.0] * 3, [1.5] * 3, "higher", 0.1) \
        == "regressed"


def test_exact_values_must_repeat_seed_by_seed():
    base = [(1, 100), (2, 120), (1, 100)]
    assert compare.exact_verdict(base, [(2, 120), (1, 100)]) == "exact"
    # Same median, but seed 2 moved: the schedules are not identical.
    assert compare.exact_verdict(base, [(1, 100), (2, 121)]) == "changed"
    assert compare.exact_verdict(base, [(3, 100)]) == "unresolved"
