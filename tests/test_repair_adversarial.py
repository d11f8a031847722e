"""Schedule repair under adversarial ADG edits.

The contract of :func:`repair_schedule`: after *any* hardware edit it
either produces a linter-clean complete schedule or honestly reports
failure (illegal cost / :class:`SchedulingError`) — it must never hand
back a schedule that claims legality while violating the hardware.
"""

import pytest

from repro.adg.topologies import softbrain
from repro.compiler import compile_kernel
from repro.errors import CompilationError
from repro.scheduler.repair import repair_schedule, strip_invalid
from repro.utils.rng import DeterministicRng
from repro.verify import lint_schedule
from repro.workloads import kernel as make_kernel

SCHED_ITERS = 60


@pytest.fixture(scope="module")
def compiled_mm():
    adg = softbrain()
    kern = make_kernel("mm", 0.05)
    result = compile_kernel(
        kern, adg, rng=DeterministicRng(2026), max_iters=120,
    )
    assert result.ok
    return adg, result


def _fresh(compiled_mm):
    adg, result = compiled_mm
    return adg.clone(), result.schedule.clone()


def assert_never_corrupt(schedule, adg, cost=None, exc=None):
    """Either a legal lint-clean schedule, or an honest failure with a
    structurally sound partial schedule — never silent corruption."""
    if exc is not None:
        return  # an exception is an honest failure
    if cost is not None and cost.is_legal:
        report = lint_schedule(schedule, adg, allow_partial=False)
        assert report.ok, (
            "repair claimed legality but lint disagrees:\n"
            + report.describe()
        )
    else:
        report = lint_schedule(schedule, adg, allow_partial=True)
        assert not report.errors, (
            "failed repair left a corrupt partial schedule:\n"
            + report.describe()
        )


def _attempt_repair(schedule, adg):
    try:
        repaired, cost = repair_schedule(
            schedule, adg, rng=DeterministicRng(7),
            max_iters=SCHED_ITERS,
        )
    except CompilationError as exc:
        return schedule, None, exc
    return repaired, cost, None


class TestAdversarialRepair:
    def test_delete_every_capable_pe(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        # Strip the multiply capability from the whole fabric: the
        # kernel's mul/mac vertices have nowhere legal to go.
        for pe in adg.pes():
            pe.op_names = pe.op_names - {"mul", "mac", "fmul", "fmac"}
        repaired, cost, exc = _attempt_repair(schedule, adg)
        assert exc is not None or not cost.is_legal
        assert_never_corrupt(repaired, adg, cost, exc)

    def test_cut_every_route(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        # Sever the fabric: no switch output survives, so no multi-hop
        # route can exist.
        for switch in adg.switches():
            for link in adg.out_links(switch.name):
                adg.remove_link(link.link_id)
        repaired, cost, exc = _attempt_repair(schedule, adg)
        assert exc is not None or not cost.is_legal
        assert_never_corrupt(repaired, adg, cost, exc)

    def test_shrink_fifo_below_scheduled_delay(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        # Force a visible delay then shrink every FIFO below it.
        if not schedule.routes:
            pytest.skip("no routed edges to delay")
        edge = sorted(schedule.routes, key=repr)[0]
        schedule.input_delays[edge] = 6
        for pe in adg.pes():
            pe.delay_fifo_depth = 2
        repaired, cost, exc = _attempt_repair(schedule, adg)
        assert_never_corrupt(repaired, adg, cost, exc)
        if cost is not None and cost.is_legal:
            for e, delay in repaired.input_delays.items():
                hw = adg.node(repaired.placement[e.dst])
                if hasattr(hw, "delay_fifo_depth"):
                    assert delay <= hw.delay_fifo_depth

    def test_single_dead_pe_repairs_clean(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        placed_pes = sorted(
            name for name in set(schedule.placement.values())
            if adg.node(name).KIND == "pe"
        )
        assert placed_pes, "mm schedule places at least one PE"
        adg.remove(placed_pes[0])
        repaired, cost, exc = _attempt_repair(schedule, adg)
        assert exc is None and cost.is_legal
        assert_never_corrupt(repaired, adg, cost, exc)


class TestStripInvalid:
    def test_binding_to_non_memory_dropped(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        assert schedule.stream_binding, "mm schedule binds streams"
        key = sorted(schedule.stream_binding, key=repr)[0]
        # Point a stream at a switch: the node exists, but it is not a
        # memory — the pre-fix strip missed exactly this.
        switch = sorted(s.name for s in adg.switches())[0]
        schedule.bind_stream(*key, switch)
        removed = strip_invalid(schedule, adg)
        assert removed >= 1
        assert key not in schedule.stream_binding

    def test_binding_to_deleted_memory_dropped(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        assert schedule.stream_binding
        bound = sorted(set(schedule.stream_binding.values()))
        for name in bound:
            adg.remove(name)
        strip_invalid(schedule, adg)
        assert not schedule.stream_binding

    def test_stale_delay_assignment_dropped(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        if not schedule.routes:
            pytest.skip("no routed edges to delay")
        edge = sorted(schedule.routes, key=repr)[0]
        schedule.input_delays[edge] = 10
        hw = adg.node(schedule.placement[edge.dst])
        if not hasattr(hw, "delay_fifo_depth"):
            pytest.skip("consumer is not a PE")
        hw.delay_fifo_depth = 4
        removed = strip_invalid(schedule, adg)
        assert removed >= 1
        assert edge not in schedule.input_delays

    def test_delay_within_depth_survives(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        if not schedule.routes:
            pytest.skip("no routed edges to delay")
        edges = [
            e for e in schedule.routes
            if hasattr(adg.node(schedule.placement[e.dst]),
                       "delay_fifo_depth")
        ]
        if not edges:
            pytest.skip("no PE-consumer edges")
        edge = sorted(edges, key=repr)[0]
        depth = adg.node(schedule.placement[edge.dst]).delay_fifo_depth
        schedule.input_delays[edge] = min(1, depth)
        strip_invalid(schedule, adg)
        assert edge in schedule.input_delays

    def test_node_deletion_leaves_lintable_partial(self, compiled_mm):
        adg, schedule = _fresh(compiled_mm)
        # Delete every third placed component — an aggressive
        # node-deletion mutation.
        victims = sorted(set(schedule.placement.values()))[::3]
        for name in victims:
            if adg.has_node(name):
                adg.remove(name)
        strip_invalid(schedule, adg)
        report = lint_schedule(schedule, adg, allow_partial=True)
        assert not report.errors, report.describe()
