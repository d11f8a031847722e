"""Tests for the architecture description graph."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import (
    Adg,
    ControlCore,
    Direction,
    Memory,
    MemoryKind,
    ProcessingElement,
    Resourcing,
    Scheduling,
    Switch,
    SyncElement,
    adg_from_dict,
    adg_to_dict,
    topologies,
    validate_adg,
)
from repro.adg.components import DelayFifo
from repro.errors import AdgError, AdgValidationError


def tiny_fabric():
    """memory -> in port -> switch -> pe -> switch -> out port -> memory."""
    adg = Adg("tiny")
    mem = adg.add(Memory(name="spad0", width=512))
    inp = adg.add(SyncElement(name="in0", direction=Direction.INPUT))
    outp = adg.add(SyncElement(name="out0", direction=Direction.OUTPUT))
    sw_a = adg.add(Switch(name="sw0"))
    sw_b = adg.add(Switch(name="sw1"))
    pe = adg.add(ProcessingElement(name="pe0", op_names={"add", "mul"}))
    core = adg.add(ControlCore(name="core0"))
    adg.connect(mem, inp)
    adg.connect(inp, sw_a)
    adg.connect(sw_a, pe)
    adg.connect(pe, sw_b)
    adg.connect(sw_b, outp)
    adg.connect(outp, mem)
    adg.connect(core, sw_a)
    return adg


class TestGraphEditing:
    def test_add_and_lookup(self):
        adg = tiny_fabric()
        assert adg.node("pe0").KIND == "pe"
        assert "pe0" in adg
        assert len(adg) == 7

    def test_duplicate_name_rejected(self):
        adg = tiny_fabric()
        with pytest.raises(AdgError):
            adg.add(Switch(name="sw0"))

    def test_remove_node_removes_links(self):
        adg = tiny_fabric()
        before = len(adg.links())
        adg.remove("pe0")
        assert "pe0" not in adg
        assert len(adg.links()) == before - 2

    def test_missing_node_raises(self):
        adg = tiny_fabric()
        with pytest.raises(AdgError):
            adg.node("ghost")
        with pytest.raises(AdgError):
            adg.remove("ghost")

    def test_self_link_rejected(self):
        adg = tiny_fabric()
        with pytest.raises(AdgError):
            adg.connect("sw0", "sw0")

    def test_link_to_missing_node_rejected(self):
        adg = tiny_fabric()
        with pytest.raises(AdgError):
            adg.connect("sw0", "ghost")

    def test_parallel_links_allowed(self):
        adg = tiny_fabric()
        adg.connect("sw0", "pe0")
        assert len(adg.links_between("sw0", "pe0")) == 2

    def test_default_link_width_is_min_of_endpoints(self):
        adg = Adg()
        adg.add(Switch(name="wide", width=256))
        adg.add(Switch(name="narrow", width=64))
        link = adg.connect("wide", "narrow")
        assert link.width == 64

    def test_remove_link(self):
        adg = tiny_fabric()
        link = adg.links_between("sw0", "pe0")[0]
        adg.remove_link(link.link_id)
        assert not adg.links_between("sw0", "pe0")
        with pytest.raises(AdgError):
            adg.remove_link(link.link_id)

    def test_successors_predecessors(self):
        adg = tiny_fabric()
        assert adg.successors("sw0") == ["pe0"]
        assert {link.src for link in adg.in_links("sw0")} == {
            "core0", "in0",
        }

    def test_clone_is_deep(self):
        adg = tiny_fabric()
        twin = adg.clone()
        twin.node("pe0").op_names.add("sub")
        assert "sub" not in adg.node("pe0").op_names

    @pytest.mark.parametrize("preset", sorted(topologies.PRESETS))
    def test_clone_matches_deepcopy(self, preset):
        adg = topologies.PRESETS[preset]()
        assert adg_to_dict(adg.clone()) == adg_to_dict(copy.deepcopy(adg))

    def test_clone_edits_leave_original_unchanged(self):
        adg = topologies.softbrain()
        before = adg_to_dict(adg)
        twin = adg.clone()
        pe = twin.pes()[0]
        pe.op_names.add("sdiv")
        pe.op_names.discard("add")
        pe.delay_fifo_depth += 3
        pe.resourcing = Resourcing.SHARED
        twin.switches()[0].flop_output = False
        twin.remove(twin.switches()[1].name)
        twin.remove_link(twin.links()[0].link_id)
        name = twin.new_name("pe")
        twin.add(ProcessingElement(name=name))
        twin.connect(name, twin.switches()[0].name)
        assert adg_to_dict(adg) == before
        # The allocators advance independently.
        assert adg.new_name("pe") == name
        assert adg_to_dict(twin) != before

    def test_new_name_avoids_collisions(self):
        adg = tiny_fabric()
        name = adg.new_name("pe")
        assert name not in adg
        adg.add(ProcessingElement(name=name))
        assert adg.new_name("pe") != name

    def test_typed_accessors(self):
        adg = tiny_fabric()
        assert len(adg.pes()) == 1
        assert len(adg.switches()) == 2
        assert len(adg.input_ports()) == 1
        assert len(adg.output_ports()) == 1
        assert adg.control_core().name == "core0"
        assert adg.scratchpad().name == "spad0"
        assert adg.dma() is None


class TestComponentChecks:
    def test_non_power_of_two_width_rejected(self):
        with pytest.raises(AdgError):
            Adg().add(Switch(name="sw", width=48))

    def test_dedicated_pe_single_instruction(self):
        pe = ProcessingElement(
            name="pe", resourcing=Resourcing.DEDICATED, max_instructions=4
        )
        with pytest.raises(AdgError):
            pe.check()

    def test_shared_pe_needs_slots(self):
        pe = ProcessingElement(
            name="pe", resourcing=Resourcing.SHARED, max_instructions=1
        )
        with pytest.raises(AdgError):
            pe.check()

    def test_unknown_opcode_rejected(self):
        pe = ProcessingElement(name="pe", op_names={"frobnicate"})
        with pytest.raises(AdgError):
            pe.check()

    def test_atomic_requires_indirect(self):
        mem = Memory(name="m", width=512, atomic_update=True, indirect=False)
        with pytest.raises(AdgError):
            mem.check()

    def test_memory_banks_power_of_two(self):
        mem = Memory(name="m", width=512, banks=3)
        with pytest.raises(AdgError):
            mem.check()

    def test_pe_decomposable_support(self):
        pe = ProcessingElement(
            name="pe", width=64, decomposable_to=16, op_names={"add", "shl"}
        )
        assert pe.supports_op("add", 16)
        assert not pe.supports_op("add", 8)     # below decomposable_to
        assert not pe.supports_op("shl", 16)    # opcode not decomposable
        assert not pe.supports_op("add", 128)   # wider than datapath
        assert pe.lanes == 4

    def test_sync_element_lanes(self):
        port = SyncElement(name="p", width=256)
        assert port.lanes64 == 4

    def test_delay_fifo_depth_check(self):
        with pytest.raises(AdgError):
            DelayFifo(name="d", depth=0).check()

    def test_clone_renames(self):
        pe = ProcessingElement(name="pe0")
        twin = pe.clone("pe9")
        assert twin.name == "pe9"
        assert pe.name == "pe0"


class TestValidation:
    def test_tiny_fabric_valid(self):
        assert validate_adg(tiny_fabric(), strict=True) == []

    def test_memory_to_pe_bus_rejected(self):
        adg = tiny_fabric()
        adg.connect("spad0", "pe0", 64)
        with pytest.raises(AdgValidationError):
            validate_adg(adg)

    def test_input_port_fed_by_pe_rejected(self):
        adg = tiny_fabric()
        adg.connect("pe0", "in0")
        with pytest.raises(AdgValidationError):
            validate_adg(adg)

    def test_output_port_to_switch_rejected(self):
        adg = tiny_fabric()
        adg.connect("out0", "sw0")
        with pytest.raises(AdgValidationError):
            validate_adg(adg)

    def test_two_control_cores_rejected(self):
        adg = tiny_fabric()
        adg.add(ControlCore(name="core1"))
        with pytest.raises(AdgValidationError):
            validate_adg(adg)

    def test_unreachable_pe_warns(self):
        adg = tiny_fabric()
        adg.add(ProcessingElement(name="orphan"))
        with pytest.raises(AdgValidationError):
            validate_adg(adg, strict=True)
        warnings = validate_adg(adg, strict=False)
        assert any("orphan" in w for w in warnings)

    def test_core_without_fabric_link_rejected(self):
        adg = tiny_fabric()
        adg.remove("core0")
        adg.add(ControlCore(name="core0"))  # no link into fabric
        with pytest.raises(AdgValidationError):
            validate_adg(adg, strict=False)

    def test_overwide_link_rejected(self):
        adg = tiny_fabric()
        adg.connect("sw0", "pe0", width=256)
        with pytest.raises(AdgValidationError):
            validate_adg(adg)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(topologies.PRESETS))
    def test_preset_validates(self, name):
        adg = topologies.PRESETS[name]()
        assert validate_adg(adg, strict=True) == []

    def test_softbrain_is_static_dedicated(self):
        adg = topologies.softbrain()
        assert all(not pe.is_dynamic for pe in adg.pes())
        assert all(not pe.is_shared for pe in adg.pes())
        assert adg.scratchpad().banks == 1

    def test_triggered_is_dynamic_shared(self):
        adg = topologies.triggered()
        assert all(pe.is_dynamic and pe.is_shared for pe in adg.pes())

    def test_spu_has_indirect_banked_memory(self):
        adg = topologies.spu()
        spad = adg.scratchpad()
        assert spad.indirect and spad.atomic_update and spad.banks == 8

    def test_revel_mixes_execution_models(self):
        adg = topologies.revel()
        models = {pe.scheduling for pe in adg.pes()}
        assert models == {Scheduling.STATIC, Scheduling.DYNAMIC}

    def test_maeri_has_tree_shape(self):
        adg = topologies.maeri(leaves=8)
        leaf_pes = [pe for pe in adg.pes() if pe.name.startswith("leaf")]
        reducers = [pe for pe in adg.pes() if pe.name.startswith("red_")]
        assert len(leaf_pes) == 8
        assert len(reducers) == 7  # binary reduction of 8 leaves

    def test_tree_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            topologies.build_tree(6)

    def test_dse_initial_has_full_capability(self):
        adg = topologies.dse_initial()
        features = adg.feature_set()
        assert features.dynamic and features.indirect
        assert features.stream_join and features.decomposable
        assert len(adg.pes()) == 20  # 5x4

    def test_mesh_dimensions(self):
        adg = topologies.build_mesh(2, 3)
        assert len(adg.pes()) == 6
        assert len(adg.switches()) == 12  # (2+1)*(3+1)


class TestFeatureSet:
    def test_softbrain_features(self):
        features = topologies.softbrain().feature_set()
        assert not features.dynamic
        assert not features.indirect
        assert features.supports_op("fadd")
        assert features.total_pes == 20  # the 5x4 Softbrain unit

    def test_without_disables(self):
        features = topologies.spu().feature_set()
        assert features.dynamic
        downgraded = features.without("dynamic", "indirect")
        assert not downgraded.dynamic and not downgraded.indirect
        assert downgraded.stream_join == features.stream_join

    def test_without_unknown_raises(self):
        with pytest.raises(AttributeError):
            topologies.spu().feature_set().without("warpdrive")


class TestSerialization:
    @pytest.mark.parametrize("name", sorted(topologies.PRESETS))
    def test_round_trip_preserves_everything(self, name):
        adg = topologies.PRESETS[name]()
        clone = adg_from_dict(adg_to_dict(adg))
        assert adg_to_dict(clone) == adg_to_dict(adg)

    def test_round_trip_preserves_enums_and_sets(self):
        adg = topologies.spu()
        clone = adg_from_dict(adg_to_dict(adg))
        pe = clone.pes()[0]
        assert pe.scheduling is Scheduling.DYNAMIC
        assert isinstance(pe.op_names, set)
        assert clone.scratchpad().kind is MemoryKind.SPAD

    def test_unknown_kind_rejected(self):
        with pytest.raises(AdgError):
            adg_from_dict({"nodes": [{"type": "alien", "name": "x"}]})

    def test_unknown_field_rejected(self):
        with pytest.raises(AdgError):
            adg_from_dict(
                {"nodes": [{"type": "switch", "name": "s", "bogus": 1}]}
            )

    def test_save_load_file(self, tmp_path):
        from repro.adg import load_adg, save_adg

        path = tmp_path / "adg.json"
        adg = tiny_fabric()
        save_adg(adg, path)
        assert load_adg(path).stats() == adg.stats()

    @settings(max_examples=20)
    @given(
        rows=st.integers(min_value=1, max_value=3),
        cols=st.integers(min_value=1, max_value=3),
    )
    def test_any_mesh_validates_and_round_trips(self, rows, cols):
        adg = topologies.build_mesh(rows, cols)
        assert validate_adg(adg, strict=True) == []
        assert adg_from_dict(adg_to_dict(adg)).stats() == adg.stats()


class TestApproximationPresets:
    """Section III-C: approximating Plasticine and TABLA inside the
    design space."""

    def test_plasticine_structure(self):
        adg = topologies.plasticine()
        assert validate_adg(adg, strict=True) == []
        # Multiple PMUs (banked scratchpads) plus the DMA interface.
        assert len(adg.memories()) == 3
        assert all(not pe.is_dynamic for pe in adg.pes())
        assert all(not pe.is_shared for pe in adg.pes())

    def test_tabla_is_static_temporal(self):
        adg = topologies.tabla()
        assert validate_adg(adg, strict=True) == []
        assert all(
            pe.is_shared and not pe.is_dynamic for pe in adg.pes()
        )

    def test_plasticine_runs_dense_kernel(self):
        from repro.compiler import compile_kernel
        from repro.utils.rng import DeterministicRng
        from repro.workloads import kernel as make_kernel

        result = compile_kernel(
            make_kernel("pool", 0.05), topologies.plasticine(),
            rng=DeterministicRng(0), max_iters=200,
        )
        assert result.ok

    def test_tabla_runs_classifier(self):
        from repro.compiler import compile_kernel
        from repro.utils.rng import DeterministicRng
        from repro.workloads import kernel as make_kernel

        result = compile_kernel(
            make_kernel("classifier", 0.05), topologies.tabla(),
            rng=DeterministicRng(0), max_iters=200,
        )
        assert result.ok
