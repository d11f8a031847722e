"""Replay-engine equivalence: the event-driven cycle-skipping engine
must produce bit-identical :class:`SimResult` fields to the stepped
oracle — on every registry workload, on randomized (workload, ADG)
combinations, and on the edge cases where bulk firing must fall back
to stepping (barrier releases, depth-1 FIFO boundaries, deadlock).
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.machine as machine
from repro.errors import SimulationError
from repro.sim import simulate
from repro.sim.machine import repeated_blocks
from repro.workloads import kernel as make_kernel
from repro.workloads.registry import workload_names
from tests.engine_parity import (
    ENGINES,
    SPU_ONLY,
    assert_engine_parity,
    compiled_for as _compiled,
    run_all_engines,
)

class TestRegistryParity:
    """Acceptance: bit-identical SimResult on every registry workload."""

    @pytest.mark.parametrize("name", workload_names())
    def test_engines_agree(self, name):
        accel = "spu" if name in SPU_ONLY else "softbrain"
        adg, compiled = _compiled(name, accel)
        assert compiled.ok, f"{name} failed to compile on {accel}"
        workload = make_kernel(name, 0.05)
        results, telemetries = run_all_engines(adg, compiled, workload)
        assert_engine_parity(results)

        # Step accounting: every modeled cycle is either executed or
        # skipped, and the oracle never skips.
        for engine in ("event", "stepped"):
            counters = telemetries[engine].counters
            assert (counters["sim_steps_executed"]
                    + counters["sim_cycles_skipped"]
                    == results[engine].cycles)
        assert telemetries["stepped"].counters["sim_cycles_skipped"] == 0


class TestRandomizedParity:
    """Property: parity holds across randomized workload/ADG shapes
    (FIFO depths and bank counts change every full/empty boundary)."""

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(
            ["mm", "ellpack", "histogram", "stencil2d", "pool",
             "join", "spmm_outer"]
        ),
        depth=st.sampled_from([None, 1, 2]),
        banks=st.sampled_from([None, 1, 4]),
        scale=st.sampled_from([0.03, 0.05]),
    )
    def test_random_shapes_agree(self, name, depth, banks, scale):
        accel = "spu" if name in SPU_ONLY else "softbrain"
        adg, compiled = _compiled(name, accel, scale=scale,
                                  depth=depth, banks=banks)
        if not compiled.ok:
            return  # some stressed shapes legitimately reject
        workload = make_kernel(name, scale)
        outcomes = {}
        for engine in ENGINES:
            memory = workload.make_memory()
            scope_copy = copy.deepcopy(compiled)
            scope_copy.scope.bind_constants(memory)
            try:
                outcomes[engine] = simulate(adg, scope_copy, memory,
                                            engine=engine)
            except SimulationError as exc:
                # Some stressed shapes genuinely deadlock the machine
                # model (e.g. depth-1 FIFOs under a join's pop burst);
                # parity then means the same error at the same cycle
                # with the same stall report.
                outcomes[engine] = str(exc)
        assert_engine_parity(outcomes)

    def test_functional_results_identical(self):
        adg, compiled = _compiled("mm", "softbrain")
        workload = make_kernel("mm", 0.05)
        memories = {}
        for engine in ENGINES:
            memory = workload.make_memory()
            scope_copy = copy.deepcopy(compiled)
            scope_copy.scope.bind_constants(memory)
            simulate(adg, scope_copy, memory, engine=engine)
            memories[engine] = memory
        for engine in ENGINES:
            for array in memories[engine]:
                assert all(
                    math.isclose(float(a), float(b),
                                 rel_tol=1e-12, abs_tol=1e-12)
                    for a, b in zip(memories[engine][array],
                                    memories["stepped"][array])
                ), (engine, array)


class TestFallbackEdgeCases:
    """Where bulk firing must fall back to stepping."""

    @pytest.mark.parametrize("name", ["pb_2mm", "pb_3mm"])
    def test_barrier_release(self, name):
        """Multi-region programs with barriers: batching must not leap
        over the cycle where a barrier region drains and its successors
        unblock."""
        adg, compiled = _compiled(name, "softbrain")
        assert compiled.ok
        assert compiled.scope.barriers, "expected a barriered scope"
        workload = make_kernel(name, 0.05)
        results, _ = run_all_engines(adg, compiled, workload)
        assert_engine_parity(results)

    @pytest.mark.parametrize("name", ["ellpack", "stencil2d", "mm"])
    def test_depth_one_fifo_boundaries(self, name):
        """Depth-1 sync FIFOs toggle full/empty every cycle — the worst
        case for steady-state detection."""
        adg, compiled = _compiled(name, "softbrain", depth=1)
        assert compiled.ok
        workload = make_kernel(name, 0.05)
        results, _ = run_all_engines(adg, compiled, workload)
        assert_engine_parity(results)

    def test_deadlock_diagnostics_identical(self, monkeypatch):
        """An impossible deadline trips the deadlock error at the same
        cycle in every engine, with the same per-region stall report."""
        adg, compiled = _compiled("mm", "softbrain")
        workload = make_kernel("mm", 0.05)
        monkeypatch.setattr(machine, "_DEADLOCK_FACTOR", 0)
        messages = {}
        for engine in ENGINES:
            memory = workload.make_memory()
            scope_copy = copy.deepcopy(compiled)
            scope_copy.scope.bind_constants(memory)
            with pytest.raises(SimulationError) as excinfo:
                simulate(adg, scope_copy, memory, engine=engine)
            messages[engine] = str(excinfo.value)
        assert_engine_parity(messages)
        report = messages["event"]
        assert "simulation deadlock at cycle" in report
        assert "unfinished regions" in report
        # The stall snapshot: per-region firing progress, port fills,
        # and active-segment detail.
        assert "fired" in report
        assert "fill" in report
        assert "words left" in report


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        adg, compiled = _compiled("pool", "softbrain")
        workload = make_kernel("pool", 0.05)
        memory = workload.make_memory()
        compiled.scope.bind_constants(memory)
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulate(adg, compiled, memory, engine="warp-speed")

    def test_event_engine_skips_cycles(self):
        """The point of the rewrite: on a long steady-state workload the
        event engine executes far fewer cycle-steps."""
        adg, compiled = _compiled("histogram", "softbrain")
        workload = make_kernel("histogram", 0.05)
        results, telemetries = run_all_engines(adg, compiled, workload)
        assert_engine_parity(results)
        stepped = telemetries["stepped"].counters["sim_steps_executed"]
        event = telemetries["event"].counters["sim_steps_executed"]
        assert stepped == results["stepped"].cycles
        assert event * 5 <= stepped
        assert telemetries["event"].counters["sim_bulk_fire_events"] > 0


def _per_block_repeats(values, first, base, size, count):
    """The emission-pattern check the event engine made before it
    compared slices: one generator per block."""
    repetition = 0
    while repetition < count:
        start = base + repetition * size
        if any(values[start + j] != values[first + j]
               for j in range(size)):
            break
        repetition += 1
    return repetition


class TestRepeatedBlocks:
    """The slice-comparison emission check counts exactly what the
    per-block generator counted."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_block_generator(self, data):
        words = st.integers(0, 2)
        size = data.draw(st.integers(1, 4), label="size")
        count = data.draw(st.integers(1, 12), label="count")
        head = data.draw(st.lists(words, min_size=1, max_size=8))
        first = data.draw(st.integers(0, len(head) - 1), label="first")
        pattern = (head + [0] * size)[first:first + size]
        values = head + [0] * max(0, first + size - len(head))
        base = len(values)
        repeats = data.draw(st.integers(0, count + 1), label="repeats")
        values += pattern * repeats
        values += data.draw(st.lists(words, min_size=count * size,
                                     max_size=count * size + 4))
        assert repeated_blocks(values, first, base, size, count) \
            == _per_block_repeats(values, first, base, size, count)
