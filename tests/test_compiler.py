"""Tests for the modular compilation layer."""

from dataclasses import replace

import pytest

from repro.adg import topologies
from repro.compiler import (
    Kernel,
    VariantParams,
    VariantSpace,
    compile_kernel,
)
from repro.compiler.codegen import CommandKind
from repro.compiler.transforms.inplace import (
    inplace_update_bindings,
    tile_for_buffer,
)
from repro.compiler.transforms.stream_join import (
    estimate_join_instances,
    make_join_region,
)
from repro.compiler.transforms.vectorize import (
    legal_unrolls,
    reduction_tree,
)
from repro.errors import CompilationError
from repro.ir import Dfg, LinearStream
from repro.ir.stream import RecurrenceStream, StreamDirection
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel


class TestVariantSpace:
    def test_fallback_always_present(self):
        space = VariantSpace(
            unroll_factors=(1, 2, 4), has_join=True, has_indirect=True,
            has_atomic=True,
        )
        variants = list(space.enumerate(None))
        assert VariantParams() in variants

    def test_features_pruned_by_hardware(self):
        space = VariantSpace(has_join=True, has_indirect=True)
        static_features = topologies.softbrain().feature_set()
        variants = list(space.enumerate(static_features))
        assert not any(v.use_join for v in variants)
        assert not any(v.use_indirect for v in variants)

    def test_capable_hardware_unlocks_features(self):
        space = VariantSpace(
            has_join=True, has_indirect=True, has_atomic=True
        )
        spu_features = topologies.spu().feature_set()
        variants = list(space.enumerate(spu_features))
        assert any(v.use_join for v in variants)
        assert any(v.use_atomic for v in variants)

    def test_atomic_requires_indirect_dimension(self):
        space = VariantSpace(has_indirect=True, has_atomic=True)
        for variant in space.enumerate(None):
            if variant.use_atomic:
                assert variant.use_indirect

    def test_describe(self):
        assert VariantParams().describe() == "V1"
        assert "join" in VariantParams(use_join=True).describe()
        assert "P4" in VariantParams(partial_sums=4).describe()


class TestKernel:
    def test_variants_skip_unbuildable(self):
        calls = []

        def builder(params):
            calls.append(params)
            if params.unroll > 2:
                raise CompilationError("too wide")
            return make_kernel("mm", 0.05).build(
                VariantParams(unroll=1)
            )

        kernel = Kernel(
            name="t", builder=builder,
            space=VariantSpace(unroll_factors=(1, 2, 4, 8)),
        )
        variants = list(kernel.variants(None))
        assert len(variants) == 2

    def test_no_buildable_variant_raises(self):
        def builder(params):
            raise CompilationError("never")

        kernel = Kernel(name="t", builder=builder)
        with pytest.raises(CompilationError):
            list(kernel.variants(None))

    def test_with_space_copies(self):
        kernel = make_kernel("histogram", 0.05)
        downgraded = replace(
            kernel, space=replace(kernel.space, has_atomic=False)
        )
        assert kernel.space.has_atomic
        assert not downgraded.space.has_atomic
        assert not any(
            params.use_atomic for params, _ in downgraded.variants()
        )


class TestCompileKernel:
    def test_picks_feature_variant_on_capable_hardware(self):
        adg = topologies.spu()
        result = compile_kernel(
            make_kernel("histogram", 0.05), adg,
            rng=DeterministicRng(0), max_iters=100,
        )
        assert result.ok
        assert result.params.use_atomic

    def test_falls_back_on_incapable_hardware(self):
        adg = topologies.softbrain()
        result = compile_kernel(
            make_kernel("histogram", 0.05), adg,
            rng=DeterministicRng(0), max_iters=100,
        )
        assert result.ok
        assert not result.params.use_atomic

    def test_result_carries_program(self):
        adg = topologies.softbrain()
        result = compile_kernel(
            make_kernel("pool", 0.1), adg,
            rng=DeterministicRng(0), max_iters=100,
        )
        assert result.ok
        kinds = {command.kind for command in result.program}
        assert CommandKind.CONFIG in kinds
        assert CommandKind.ISSUE_STREAM in kinds
        assert CommandKind.WAIT_ALL in kinds

    def test_deterministic(self):
        adg = topologies.softbrain()
        cycles = set()
        for _ in range(2):
            result = compile_kernel(
                make_kernel("ellpack", 0.05), adg,
                rng=DeterministicRng(7), max_iters=80,
            )
            cycles.add(result.perf.cycles)
        assert len(cycles) == 1


class TestCodegen:
    def _compiled(self):
        adg = topologies.softbrain()
        return adg, compile_kernel(
            make_kernel("mm", 0.05), adg,
            rng=DeterministicRng(1), max_iters=100,
        )

    def test_streams_ordered_reads_before_writes_per_region(self):
        _, result = self._compiled()
        commands = list(result.program)
        read_ports = {
            node.name for region in result.scope.regions
            for node in region.dfg.inputs()
        }
        seen_write = False
        for command in commands:
            if command.kind is not CommandKind.ISSUE_STREAM:
                continue
            if command.port in read_ports:
                assert not seen_write
            else:
                seen_write = True

    def test_issue_cycle_total_positive(self):
        _, result = self._compiled()
        issue_cycles = sum(
            command.issue_cycles for command in result.program.commands
        )
        assert issue_cycles > len(result.program)

    def test_barriers_emitted(self):
        adg = topologies.softbrain()
        result = compile_kernel(
            make_kernel("pb_2mm", 0.05), adg,
            rng=DeterministicRng(1), max_iters=120,
        )
        assert result.ok
        kinds = [command.kind for command in result.program]
        assert CommandKind.BARRIER in kinds


class TestTransforms:
    def test_legal_unrolls_capped_by_pes(self):
        features = topologies.cca().feature_set()
        assert max(legal_unrolls(features)) <= max(1, features.total_pes)

    def test_reduction_tree_depth(self):
        dfg = Dfg()
        inputs = [dfg.add_input(f"x{i}") for i in range(8)]
        root = reduction_tree(dfg, "add", inputs)
        # 8 leaves -> 7 adds; critical path log2(8) * 1 = 3.
        assert len(dfg.instructions()) == 7
        assert dfg.longest_path_latency() == 3
        del root

    def test_reduction_tree_empty_raises(self):
        with pytest.raises(ValueError):
            reduction_tree(Dfg(), "add", [])

    def test_tile_for_buffer(self):
        assert tile_for_buffer(16, 64) == 16      # fits whole
        assert tile_for_buffer(64, 16) == 16      # exact divisor
        assert tile_for_buffer(60, 16) == 15      # largest divisor <= 16
        assert tile_for_buffer(7, 0) == 1

    def test_inplace_bindings_tiled_structure(self):
        inputs, outputs, tile, _ = inplace_update_bindings(
            "C", base_offset=0, update_words=32, outer_trips=3,
            port_out="o", sync_buffer_words=16,
        )
        assert tile == 16
        # Two tiles: each contributes a read + recurrence on the input
        # side and a recurrence + write on the output side.
        recurrences = [
            s for s in outputs if isinstance(s, RecurrenceStream)
        ]
        assert len(recurrences) == 2
        total_read = sum(
            s.volume() for s in inputs
        )
        assert total_read == 3 * 32  # every trip's worth of values

    def test_join_region_forms(self):
        def build(use_join):
            dfg = Dfg()
            dfg.add_input("k0")
            dfg.add_input("k1")
            acc = dfg.add_instr(
                "acc", [dfg.add_instr("add", [0, 1])], reduction=True
            )
            dfg.add_output("o", acc)
            return make_join_region(
                "j", dfg,
                input_streams={
                    "k0": LinearStream("K0", length=4),
                    "k1": LinearStream("K1", length=4),
                },
                output_streams={
                    "o": LinearStream(
                        "O", direction=StreamDirection.WRITE, length=1
                    ),
                },
                left_key="k0", right_key="k1",
                use_join=use_join, expected_instances=8,
            )

        transformed = build(True)
        fallback = build(False)
        assert transformed.join_spec is not None
        assert not transformed.metadata.get("serial_join", False)
        assert fallback.metadata["serial_join"]
        assert fallback.metadata["forced_recurrence"] >= 2

    def test_estimate_join_instances(self):
        assert estimate_join_instances(10, 20) == 30
        with pytest.raises(CompilationError):
            estimate_join_instances(1, 1, mode="bogus")


class TestCompileVerify:
    """compile_kernel(verify=...) — the opt-in verification hook."""

    def test_verify_report_attached(self):
        adg = topologies.softbrain()
        result = compile_kernel(
            make_kernel("mm", 0.05), adg,
            rng=DeterministicRng(0), max_iters=120, verify="report",
        )
        assert result.ok
        assert result.verify_report is not None
        assert result.verify_report.ok, result.verify_report.describe()

    def test_verify_defaults_off(self):
        adg = topologies.softbrain()
        result = compile_kernel(
            make_kernel("mm", 0.05), adg,
            rng=DeterministicRng(0), max_iters=120,
        )
        assert result.verify_report is None

    def test_verify_strict_raises_on_corruption(self, monkeypatch):
        from repro.errors import VerificationError
        import repro.verify.lint as lint_mod

        real = lint_mod.lint_schedule

        def sabotaged(schedule, adg=None, **kwargs):
            key = next(iter(schedule._pe_load))
            schedule._pe_load[key] += 1
            return real(schedule, adg, **kwargs)

        import repro.verify as verify_mod
        monkeypatch.setattr(verify_mod, "lint_schedule", sabotaged)
        adg = topologies.softbrain()
        with pytest.raises(VerificationError):
            compile_kernel(
                make_kernel("mm", 0.05), adg,
                rng=DeterministicRng(0), max_iters=120, verify="strict",
            )

    def test_verify_rejects_unknown_mode(self):
        adg = topologies.softbrain()
        with pytest.raises(ValueError):
            compile_kernel(make_kernel("mm", 0.05), adg, verify="maybe")
