"""The scheduler's cold-start refutation: a capacity matching that proves
a variant unmappable before the stochastic search draws a random number.

``Schedule.capacity_deficit`` matches instruction vertices to PE
instruction slots and port vertices to sync elements; a deficient
matching means every mapping leaves a vertex unplaced or a PE or sync
element overused. These tests pin the matching against brute force, pin
soundness against the search itself (with the check patched off, no
refuted variant ever maps), and pin what a refutation does to the
random stream, to warm starts, to ``compile_kernel``, to the manual
baselines and to the CLI's rejection report.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import topologies
from repro.baselines import manual
from repro.compiler import compile_kernel
from repro.compiler.kernel import VariantParams
from repro.errors import UnmappableError
from repro.scheduler import Schedule, SpatialScheduler
from repro.scheduler.schedule import _max_assignment
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.workloads import kernel as make_kernel
from tests.test_scheduler_parity import (
    ADGS,
    KERNELS,
    MAX_ITERS,
    SCALE,
    SEEDS,
)

PB_2MM_V8_DEFICIT = "20 of 32 instructions, 0 of 8 ports matched"


def _variant_scope(kernel_name, adg, unroll):
    for params, scope in make_kernel(kernel_name, SCALE).variants(
            adg.feature_set()):
        if params == VariantParams(unroll=unroll):
            return scope
    raise AssertionError(f"{kernel_name} has no V{unroll} variant")


# -- the matching --------------------------------------------------------
def _brute_force(demands, capacity):
    """The largest number of demands placed within capacity, by trying
    every target (or none) for every demand."""
    load = {}
    best = 0

    def walk(index, placed):
        nonlocal best
        if index == len(demands):
            best = max(best, placed)
            return
        walk(index + 1, placed)
        for target in demands[index]:
            if load.get(target, 0) < capacity[target]:
                load[target] = load.get(target, 0) + 1
                walk(index + 1, placed + 1)
                load[target] -= 1

    walk(0, 0)
    return best


@st.composite
def _instances(draw):
    targets = [f"pe{i}" for i in range(draw(st.integers(1, 4)))]
    capacity = {name: draw(st.integers(1, 3)) for name in targets}
    demands = draw(st.lists(
        st.lists(st.sampled_from(targets), unique=True,
                 max_size=len(targets)),
        max_size=6,
    ))
    return demands, capacity


@settings(max_examples=200, deadline=None)
@given(instance=_instances())
def test_matching_equals_brute_force(instance):
    demands, capacity = instance
    assert _max_assignment(demands, capacity.__getitem__) == \
        _brute_force(demands, capacity)


def test_deficit_names_both_matchings():
    adg = topologies.softbrain()
    scope = _variant_scope("pb_2mm", adg, 8)
    assert Schedule(scope, adg).capacity_deficit() == PB_2MM_V8_DEFICIT
    assert Schedule(_variant_scope("pb_2mm", adg, 2),
                    adg).capacity_deficit() is None


# -- soundness -----------------------------------------------------------
def _oracle_cases():
    for adg_name in ADGS:
        for kernel_name in KERNELS:
            for seed in SEEDS:
                yield adg_name, kernel_name, (
                    DeterministicRng(("parity", seed, kernel_name)), 1)
    for kernel_name in ("mm", "md", "ellpack"):
        yield "dse_initial", kernel_name, (
            DeterministicRng(("oracle", kernel_name)), 4)


def test_refuted_variants_never_map(monkeypatch):
    """With the refutation patched off, every scheduler call the check
    would have refuted searches in full and ends illegal."""
    calls = []
    search = SpatialScheduler.schedule

    def note_deficit(self, sched):
        self.deficit = sched.capacity_deficit()

    def schedule(self, scope, initial=None):
        self.deficit = None
        sched, cost = search(self, scope, initial=initial)
        calls.append((self.deficit, cost.is_legal))
        return sched, cost

    monkeypatch.setattr(SpatialScheduler, "_refute", note_deficit)
    monkeypatch.setattr(SpatialScheduler, "schedule", schedule)
    for adg_name, kernel_name, (rng, variants) in _oracle_cases():
        compile_kernel(
            make_kernel(kernel_name, SCALE), topologies.PRESETS[adg_name](),
            rng=rng, max_iters=MAX_ITERS, max_scheduled_variants=variants,
        )
    refuted = [legal for deficit, legal in calls if deficit is not None]
    assert len(refuted) >= 8  # pb_2mm V8, twice per compile, on both ADGs
    assert not any(refuted)


# -- what a refutation does ----------------------------------------------
def test_refutation_draws_no_random_number():
    adg = topologies.softbrain()
    rng = DeterministicRng(5)
    state = rng._random.getstate()
    scheduler = SpatialScheduler(adg, rng=rng, max_iters=MAX_ITERS)
    with pytest.raises(UnmappableError,
                       match=f"^unmappable: {PB_2MM_V8_DEFICIT}$"):
        scheduler.schedule(_variant_scope("pb_2mm", adg, 8))
    assert rng._random.getstate() == state


def test_warm_start_is_never_refuted():
    adg = topologies.softbrain()
    scope = _variant_scope("pb_2mm", adg, 8)
    telemetry = Telemetry()
    scheduler = SpatialScheduler(adg, rng=DeterministicRng(5),
                                 max_iters=5, telemetry=telemetry)
    _, cost = scheduler.schedule(scope, initial=Schedule(scope, adg))
    assert not cost.is_legal
    assert scheduler.last_iterations == 5
    assert "sched_unmappable" not in telemetry.counters


def test_compile_skips_a_refuted_variant():
    adg = topologies.softbrain()
    telemetry = Telemetry()
    result = compile_kernel(
        make_kernel("pb_2mm", SCALE), adg, rng=DeterministicRng(3),
        max_iters=MAX_ITERS, max_scheduled_variants=1, telemetry=telemetry,
    )
    assert result.ok
    reasons = {params.describe(): reason
               for params, reason in result.rejected}
    assert reasons["V8"] == f"unmappable: {PB_2MM_V8_DEFICIT}"
    # One refuted call: the retry was skipped, and it searched nothing.
    assert telemetry.counters["sched_unmappable"] == 1
    assert result.sched_effort == telemetry.counters["sched_iterations"]


def test_manual_baseline_falls_back_past_a_refuted_variant(monkeypatch):
    monkeypatch.setitem(manual._MANUAL_PARAMS, "pb_2mm",
                        {"*": VariantParams(unroll=8)})
    result = manual.manual_compile("pb_2mm", topologies.softbrain(),
                                   scale=SCALE, sched_iters=MAX_ITERS)
    assert result.ok
    assert result.params.unroll < 8


def test_cli_prints_the_deficit(capsys):
    from repro.cli import main

    code = main(["run", "pb_2mm", "--scale", str(SCALE),
                 "--sched-iters", str(MAX_ITERS), "--no-simulate"])
    assert code == 0
    assert f"  V8: unmappable: {PB_2MM_V8_DEFICIT}\n" in \
        capsys.readouterr().out
