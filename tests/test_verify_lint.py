"""Tests for the schedule legality linter (repro.verify.lint)."""

import pytest

from repro.adg import topologies
from repro.scheduler import Schedule, SpatialScheduler
from repro.verify import lint_schedule

from tests.test_scheduler import dot_scope


@pytest.fixture(scope="module")
def mapped():
    """A legal, complete mapping of the dot-product scope."""
    adg = topologies.softbrain()
    scheduler = SpatialScheduler(adg, max_iters=200)
    schedule, cost = scheduler.schedule(dot_scope(n=8, unroll=2))
    assert cost.is_legal
    return adg, schedule


def _clone(mapped):
    return mapped[0], mapped[1].clone()


def test_legal_schedule_lints_clean(mapped):
    adg, schedule = mapped
    report = lint_schedule(schedule, adg)
    assert report.ok, report.describe()
    assert len(report) == 0


def test_empty_schedule_completeness(mapped):
    adg, schedule = mapped
    empty = Schedule(schedule.scope, adg)
    strict = lint_schedule(empty, adg)
    assert not strict.ok
    assert strict.select("completeness.unplaced")
    assert strict.select("completeness.unrouted")
    # Search states are legally incomplete: partial mode downgrades.
    partial = lint_schedule(empty, adg, allow_partial=True)
    assert partial.ok
    assert partial.warnings


def test_instruction_on_switch_is_kind_error(mapped):
    adg, schedule = _clone(mapped)
    vertex = next(
        v for v in schedule.vertices()
        if schedule.node_of(v).kind.value == "instr"
    )
    schedule.place(vertex, adg.switches()[0].name)
    report = lint_schedule(schedule, adg)
    assert "placement.kind" in report.codes()


def test_placement_on_unknown_node(mapped):
    adg, schedule = _clone(mapped)
    vertex = schedule.vertices()[0]
    # place() refuses unknown targets: corrupt through its unchecked step.
    schedule._place(vertex, "no_such_component")
    report = lint_schedule(schedule, adg)
    assert "placement.unknown-node" in report.codes()


def test_port_on_wrong_direction(mapped):
    adg, schedule = _clone(mapped)
    vertex = next(
        v for v in schedule.vertices()
        if schedule.node_of(v).kind.value == "input"
    )
    schedule.place(vertex, adg.output_ports()[0].name)
    report = lint_schedule(schedule, adg)
    assert "placement.capability" in report.codes()


def test_truncated_route_is_sink_mismatch(mapped):
    adg, schedule = _clone(mapped)
    edge = next(e for e, ls in schedule.routes.items() if len(ls) >= 2)
    schedule.set_route(edge, schedule.routes[edge][:-1])
    report = lint_schedule(schedule, adg)
    assert "route.sink-mismatch" in report.codes()


def test_gap_in_route_is_disconnected(mapped):
    adg, schedule = _clone(mapped)
    edge = next(e for e, ls in schedule.routes.items() if len(ls) >= 3)
    links = schedule.routes[edge]
    schedule.set_route(edge, [links[0]] + links[2:])
    report = lint_schedule(schedule, adg)
    codes = report.codes()
    assert "route.disconnected" in codes or "route.sink-mismatch" in codes


def test_unknown_link_in_route(mapped):
    adg, schedule = _clone(mapped)
    edge = next(e for e, ls in schedule.routes.items() if ls)
    schedule.set_route(edge, [999999])
    report = lint_schedule(schedule, adg)
    assert "route.unknown-link" in report.codes()


def test_oversubscribed_link(mapped):
    adg, schedule = _clone(mapped)
    routed = [e for e, ls in schedule.routes.items() if ls]
    first = routed[0]
    second = next(e for e in routed[1:] if e.value != first.value)
    # Splice first's link into second's route to create 2 values on it.
    schedule.set_route(
        second, [schedule.routes[first][0]] + schedule.routes[second]
    )
    strict = lint_schedule(schedule, adg)
    assert "route.oversubscribed" in strict.codes()
    partial = lint_schedule(schedule, adg, allow_partial=True)
    oversub = partial.select("route.oversubscribed")
    assert oversub and all(d.severity == "warning" for d in oversub)


def test_delay_bounds(mapped):
    adg, schedule = _clone(mapped)
    edge = next(
        e for e in schedule.edges()
        if schedule.placement.get(e.dst)
        and schedule.placement[e.dst].startswith("pe")
    )
    pe = adg.node(schedule.placement[edge.dst])
    schedule.input_delays[edge] = pe.delay_fifo_depth + 5
    report = lint_schedule(schedule, adg)
    assert "delay.depth" in report.codes()
    schedule.input_delays[edge] = -1
    report = lint_schedule(schedule, adg)
    assert "delay.negative" in report.codes()


def test_stream_binding_faults(mapped):
    adg, schedule = _clone(mapped)
    (region, port) = next(iter(schedule.stream_binding))
    # bind_stream() refuses unknown memories: use its unchecked step.
    schedule._bind_stream((region, port), "nonexistent_memory")
    report = lint_schedule(schedule, adg)
    assert "stream.unknown-memory" in report.codes()
    schedule.bind_stream(region, port, adg.pes()[0].name)
    report = lint_schedule(schedule, adg)
    assert "stream.not-a-memory" in report.codes()


def test_unbound_memory_stream(mapped):
    adg, schedule = _clone(mapped)
    key = next(iter(schedule.stream_binding))
    schedule.unbind_stream(*key)
    strict = lint_schedule(schedule, adg)
    assert "stream.unbound" in strict.codes()
    partial = lint_schedule(schedule, adg, allow_partial=True)
    unbound = partial.select("stream.unbound")
    assert unbound and all(d.severity == "warning" for d in unbound)


def test_counter_drift_is_error_even_in_partial_mode(mapped):
    adg, schedule = _clone(mapped)
    key = next(iter(schedule._pe_load))
    schedule._pe_load[key] += 1
    for allow_partial in (False, True):
        report = lint_schedule(schedule, adg, allow_partial=allow_partial)
        assert "state.pe-load-drift" in report.codes()
        assert not report.ok


def test_route_length_drift(mapped):
    adg, schedule = _clone(mapped)
    schedule._route_length += 7
    report = lint_schedule(schedule, adg)
    assert "state.route-length-drift" in report.codes()


def test_overuse_counter_drift(mapped):
    adg, schedule = _clone(mapped)
    schedule._overuse_link += 1
    report = lint_schedule(schedule, adg, allow_partial=True)
    assert "state.overuse-drift" in report.codes()


def test_value_index_and_width_drift(mapped):
    adg, schedule = _clone(mapped)
    value = next(iter(schedule._value_links))
    schedule._value_links[value] += 1
    schedule._link_widths[99] = 1
    schedule._overuse_memory += 1
    report = lint_schedule(schedule, adg, allow_partial=True)
    for code in ("state.value-links-drift", "state.link-widths-drift",
                 "state.overuse-drift"):
        assert code in report.codes()


def test_check_state_false_skips_drift(mapped):
    adg, schedule = _clone(mapped)
    schedule._route_length += 7
    report = lint_schedule(schedule, adg, check_state=False)
    assert "state.route-length-drift" not in report.codes()


def test_delay_fifo_bound_respected_by_scheduler(mapped):
    """The real scheduler never assigns more delay than the FIFOs hold."""
    adg, schedule = mapped
    report = lint_schedule(schedule, adg)
    assert not report.select("delay.")


def test_diagnostic_roundtrip(mapped):
    adg, schedule = _clone(mapped)
    schedule.set_route(next(iter(schedule.routes)), [999999])
    report = lint_schedule(schedule, adg)
    from repro.verify.diagnostics import Diagnostic

    for diagnostic in report:
        clone = Diagnostic.from_dict(diagnostic.to_dict())
        assert clone.code == diagnostic.code
        assert clone.severity == diagnostic.severity
        assert clone.category == diagnostic.code.split(".")[0]
