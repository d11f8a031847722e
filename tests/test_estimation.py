"""Tests for the performance and power/area estimation models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import topologies
from repro.adg.components import ProcessingElement, Resourcing, Scheduling
from repro.compiler import compile_kernel
from repro.compiler.kernel import VariantParams
from repro.estimation import (
    default_model,
    estimate_area_power,
    generate_dataset,
    synthesize_adg,
    synthesize_component,
)
from repro.estimation.perf_model import PerformanceModel
from repro.estimation.regression import (
    component_features,
    fit_regression,
)
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel


@pytest.fixture(scope="module")
def model():
    return default_model()


class TestSynthDb:
    def test_dataset_covers_all_types(self):
        dataset = generate_dataset(samples_per_type=20)
        assert set(dataset) >= {
            "ProcessingElement", "Switch", "Memory", "SyncElement",
            "DelayFifo", "ControlCore",
        }

    def test_synthesis_deterministic(self):
        pe = ProcessingElement(name="p", op_names={"add", "mul"})
        assert synthesize_component(pe, 3, 3) == synthesize_component(
            pe, 3, 3
        )

    def test_dynamic_costs_more_than_static(self):
        static_pe = ProcessingElement(
            name="s", op_names={"add"}, scheduling=Scheduling.STATIC
        )
        dynamic_pe = ProcessingElement(
            name="d", op_names={"add"}, scheduling=Scheduling.DYNAMIC
        )
        static_area, _ = synthesize_component(static_pe, noisy=False)
        dynamic_area, _ = synthesize_component(dynamic_pe, noisy=False)
        assert dynamic_area > static_area

    def test_shared_costs_more_than_dedicated(self):
        dedicated = ProcessingElement(
            name="d", op_names={"add"},
        )
        shared = ProcessingElement(
            name="s", op_names={"add"},
            resourcing=Resourcing.SHARED, max_instructions=8,
        )
        area_dedicated, _ = synthesize_component(dedicated, noisy=False)
        area_shared, _ = synthesize_component(shared, noisy=False)
        assert area_shared > area_dedicated

    def test_wider_datapath_costs_more(self):
        narrow = ProcessingElement(name="n", width=32,
                                   decomposable_to=32,
                                   op_names={"add"})
        wide = ProcessingElement(name="w", width=128,
                                 decomposable_to=128,
                                 op_names={"add"})
        assert synthesize_component(wide, noisy=False)[0] > \
            synthesize_component(narrow, noisy=False)[0]


class TestRegression:
    def test_validation_error_small(self, model):
        """Mean relative area/power error of each fitted component
        model on its own dataset stays under 20%."""
        dataset = generate_dataset(samples_per_type=60)
        models = fit_regression(dataset)
        errors = {}
        for type_name, rows in dataset.items():
            rel = []
            for features, area, power in rows:
                pred_area, pred_power = models[type_name].predict(features)
                if area > 0:
                    rel.append(abs(pred_area - area) / area)
                if power > 0:
                    rel.append(abs(pred_power - power) / power)
            errors[type_name] = sum(rel) / len(rel) if rel else 0.0
        assert all(err < 0.20 for err in errors.values()), errors

    def test_estimate_below_synthesis_for_presets(self, model):
        """The Figure 15 property: estimates land a few percent below
        whole-fabric synthesis."""
        for name in ("softbrain", "spu", "triggered"):
            adg = topologies.PRESETS[name]()
            est_area, est_power = model.estimate(adg)
            syn_area, syn_power = synthesize_adg(adg)
            gap = (syn_area - est_area) / syn_area
            assert 0.0 < gap < 0.20, (name, gap)

    def test_feature_vector_shapes_stable(self):
        adg = topologies.spu()
        for component in adg.nodes():
            features = component_features(component, 2, 2)
            again = component_features(component, 2, 2)
            assert features == again

    def test_estimate_monotone_in_pe_count(self, model):
        small = topologies.build_mesh(2, 2)
        large = topologies.build_mesh(5, 5)
        assert model.estimate(large)[0] > model.estimate(small)[0]

    def test_breakdown_sums_to_estimate(self, model):
        adg = topologies.softbrain()
        total_area, total_power = model.estimate(adg)
        parts = [model.component_estimate(adg, component)
                 for component in adg.nodes()]
        assert sum(a for a, _ in parts) == pytest.approx(total_area)
        assert sum(p for _, p in parts) == pytest.approx(total_power)

    def test_convenience_wrapper(self):
        adg = topologies.cca()
        area, power = estimate_area_power(adg)
        assert area > 0 and power > 0


class TestPerformanceModel:
    def _timed(self, name, adg, scale=0.05):
        workload = make_kernel(name, scale)
        result = compile_kernel(
            workload, adg, rng=DeterministicRng(0), max_iters=100
        )
        assert result.ok
        return workload, result

    def test_estimate_without_schedule(self):
        workload = make_kernel("mm", 0.05)
        scope = workload.build(VariantParams(unroll=2))
        estimate = PerformanceModel().estimate(scope)
        assert estimate.cycles > 0
        assert estimate.ipc > 0

    def test_more_bandwidth_never_hurts(self):
        adg = topologies.softbrain()
        workload, result = self._timed("stencil2d", adg, scale=0.1)
        base = result.perf.cycles
        # Double every memory's width and re-estimate on same schedule.
        for memory in adg.memories():
            memory.width_bytes *= 2
            memory.width *= 2
        from repro.scheduler.router import RoutingGraph
        from repro.scheduler.timing import compute_timing

        timing = compute_timing(result.schedule, RoutingGraph(adg))
        boosted = PerformanceModel().estimate(
            result.scope, result.schedule, timing
        )
        assert boosted.cycles <= base + 1e-9

    def test_dependence_limits_serial_reductions(self):
        """A serial fp accumulator is dependence-limited (ratio 1/latency)
        unless parallel chains exist."""
        workload = make_kernel("classifier", 0.05)
        scope = workload.build(VariantParams(unroll=1))
        mac = scope.region(f"{workload.name}_mac")
        estimate = PerformanceModel().estimate(scope)
        perf = estimate.regions[mac.name]
        assert perf.dependence_ratio < 1.0
        mac.metadata["partial_sums"] = 8
        relaxed = PerformanceModel().estimate(scope)
        assert relaxed.regions[mac.name].dependence_ratio == 1.0

    def test_frequency_scales_cycles(self):
        workload = make_kernel("qr", 0.05)
        scope = workload.build(VariantParams())
        base = PerformanceModel().estimate(scope).cycles
        for region in scope.regions:
            region.frequency *= 2
        doubled = PerformanceModel().estimate(scope).cycles
        assert doubled > base * 1.5

    def test_scalarized_indirect_costs_more(self):
        workload = make_kernel("md", 0.05)
        fast_scope = workload.build(
            VariantParams(unroll=2, use_indirect=True)
        )
        slow_scope = workload.build(
            VariantParams(unroll=2, use_indirect=False)
        )
        model = PerformanceModel()
        assert model.estimate(slow_scope).cycles > model.estimate(
            fast_scope
        ).cycles

    @settings(max_examples=10, deadline=None)
    @given(unroll=st.sampled_from([1, 2, 4]))
    def test_estimates_always_positive(self, unroll):
        workload = make_kernel("ellpack", 0.05)
        scope = workload.build(VariantParams(unroll=unroll))
        estimate = PerformanceModel().estimate(scope)
        assert estimate.cycles >= 1.0
