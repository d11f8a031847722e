"""Tests for the cycle-level simulator."""

import copy
import math
from dataclasses import replace

import pytest

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.sim import CycleSimulator, simulate
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel


def compile_on(name, adg, scale=0.05, max_iters=120, seed=0):
    result = compile_kernel(
        make_kernel(name, scale), adg,
        rng=DeterministicRng(seed), max_iters=max_iters,
    )
    assert result.ok, f"{name} did not compile"
    return result


def run(name, adg, scale=0.05, **kwargs):
    workload = make_kernel(name, scale)
    result = compile_kernel(
        workload, adg, rng=DeterministicRng(0), max_iters=120,
    )
    assert result.ok
    memory = workload.make_memory()
    result.scope.bind_constants(memory)
    reference = copy.deepcopy(memory)
    sim = simulate(adg, result, memory, **kwargs)
    workload.reference(reference)
    return sim, memory, reference


class TestFunctionalEquivalence:
    @pytest.mark.parametrize(
        "name", ["mm", "ellpack", "histogram", "join", "pool", "chol"]
    )
    def test_simulation_matches_reference(self, name):
        adg = topologies.softbrain()
        sim, memory, reference = run(name, adg)
        for array in memory:
            assert all(
                math.isclose(float(a), float(b),
                             rel_tol=1e-9, abs_tol=1e-9)
                for a, b in zip(memory[array], reference[array])
            ), (name, array)
        assert sim.cycles > 0

    def test_deterministic_cycles(self):
        adg = topologies.softbrain()
        cycles = set()
        for _ in range(2):
            sim, _, _ = run("ellpack", adg)
            cycles.add(sim.cycles)
        assert len(cycles) == 1


class TestTimingBehaviour:
    def test_config_time_charged(self):
        adg = topologies.softbrain()
        workload = make_kernel("pool", 0.05)
        result = compile_kernel(
            workload, adg, rng=DeterministicRng(0), max_iters=100
        )
        memory1 = workload.make_memory()
        sim_short = CycleSimulator(
            adg, result.scope, result.schedule, result.program,
            config_cycles=1,
        ).run(memory1)
        memory2 = workload.make_memory()
        sim_long = CycleSimulator(
            adg, result.scope, result.schedule, result.program,
            config_cycles=500,
        ).run(memory2)
        assert sim_long.cycles > sim_short.cycles + 400

    def test_atomic_beats_scalarized_histogram(self):
        """The Figure 12 indirect story at the simulator level."""
        spu = topologies.spu()
        workload = make_kernel("histogram", 0.05)
        fast = compile_kernel(
            workload, spu, rng=DeterministicRng(0), max_iters=100
        )
        assert fast.params.use_atomic
        slow_kernel = replace(workload, space=replace(
            workload.space, has_atomic=False, has_indirect=False
        ))
        slow = compile_kernel(
            slow_kernel, spu, rng=DeterministicRng(0), max_iters=100
        )
        memory_fast = workload.make_memory()
        memory_slow = workload.make_memory()
        cycles_fast = simulate(spu, fast, memory_fast).cycles
        cycles_slow = simulate(spu, slow, memory_slow).cycles
        assert cycles_fast * 2 < cycles_slow
        assert memory_fast["H"] == memory_slow["H"]

    def test_join_transform_beats_fallback(self):
        spu = topologies.spu()
        workload = make_kernel("join", 0.05)
        fast = compile_kernel(
            workload, spu, rng=DeterministicRng(0), max_iters=100
        )
        assert fast.params.use_join
        slow = compile_kernel(
            replace(workload, space=replace(workload.space,
                                            has_join=False)), spu,
            rng=DeterministicRng(0), max_iters=100,
        )
        memory_fast = workload.make_memory()
        memory_slow = workload.make_memory()
        cycles_fast = simulate(spu, fast, memory_fast).cycles
        cycles_slow = simulate(spu, slow, memory_slow).cycles
        assert cycles_fast < cycles_slow
        assert memory_fast["OUT"] == memory_slow["OUT"]

    def test_memory_busy_accounted(self):
        adg = topologies.softbrain()
        sim, _, _ = run("mm", adg)
        assert sum(sim.memory_busy.values()) > 0

    def test_instances_counted(self):
        adg = topologies.softbrain()
        sim, _, _ = run("pool", adg)
        assert all(count > 0 for count in sim.instances.values())

    def test_region_finish_cycles_recorded(self):
        adg = topologies.softbrain()
        sim, _, _ = run("pb_2mm", adg)
        finishes = sim.region_cycles
        assert len(finishes) == 2
        # The barrier forces stage 1 to finish after stage 0.
        stage0, stage1 = sorted(finishes)
        assert finishes[stage1] >= finishes[stage0]


class TestBandwidthSensitivity:
    def test_narrower_scratchpad_slows_streaming(self):
        """Halving memory width must not speed anything up, and should
        slow a bandwidth-hungry kernel."""
        wide = topologies.softbrain()
        narrow = topologies.softbrain()
        for memory in narrow.memories():
            memory.width_bytes = 8
            memory.width = 64
        sim_wide, _, _ = run("stencil2d", wide, scale=0.1)
        sim_narrow, _, _ = run("stencil2d", narrow, scale=0.1)
        assert sim_narrow.cycles >= sim_wide.cycles
