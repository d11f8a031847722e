"""Focused tests for the scheduler's timing model."""


from repro.adg import Adg, topologies
from repro.adg.components import (
    Direction,
    Memory,
    ProcessingElement,
    Scheduling,
    Switch,
    SyncElement,
)
from repro.ir import ConfigScope, Dfg, LinearStream, OffloadRegion
from repro.ir.stream import RecurrenceStream, StreamDirection
from repro.scheduler import RoutingGraph, Schedule
from repro.scheduler.schedule import Vertex
from repro.scheduler.timing import compute_timing


def chain_fabric(pe_count=3, dynamic=False, delay_depth=8):
    """in -> sw -> pe0 -> sw -> pe1 -> ... -> out, plus a bypass switch
    so two-operand joins are routable."""
    adg = Adg("chain")
    adg.add(Memory(name="m0", width=512))
    adg.add(SyncElement(name="in0", width=256,
                        direction=Direction.INPUT))
    adg.add(SyncElement(name="out0", width=256,
                        direction=Direction.OUTPUT))
    scheduling = Scheduling.DYNAMIC if dynamic else Scheduling.STATIC
    previous = adg.add(Switch(name="sw_in"))
    adg.connect("m0", "in0")
    adg.connect("in0", "sw_in")
    for index in range(pe_count):
        pe = adg.add(ProcessingElement(
            name=f"pe{index}",
            op_names={"add", "mul", "fmul", "fadd", "acc", "copy"},
            scheduling=scheduling,
            delay_fifo_depth=delay_depth,
        ))
        switch = adg.add(Switch(name=f"sw{index}"))
        adg.connect(previous, pe)
        adg.connect(previous, switch)  # bypass
        adg.connect(pe, switch)
        previous = switch
    adg.connect(previous, "out0")
    adg.connect("out0", "m0")
    from repro.adg.components import ControlCore

    core = adg.add(ControlCore(name="core0"))
    adg.connect(core, "sw_in")
    return adg


def two_op_scope(op_a="mul", op_b="add"):
    """x -> a; (x, a) -> b -> out: classic skew shape (the direct x path
    arrives much earlier than the path through a)."""
    dfg = Dfg("skew")
    x = dfg.add_input("x")
    a = dfg.add_instr(op_a, [x, x], name="a")
    b = dfg.add_instr(op_b, [x, a], name="b")
    dfg.add_output("o", b)
    region = OffloadRegion(
        "skew", dfg,
        input_streams={"x": LinearStream("X", length=8)},
        output_streams={
            "o": LinearStream("O", direction=StreamDirection.WRITE,
                              length=8),
        },
    )
    return ConfigScope("s", regions=[region]), dfg


def place_chain(adg, scope, dfg):
    sched = Schedule(scope, adg)
    sched.place(Vertex("skew", dfg.inputs()[0].node_id), "in0")
    sched.place(Vertex("skew", dfg.instructions()[0].node_id), "pe0")
    sched.place(Vertex("skew", dfg.instructions()[1].node_id), "pe1")
    sched.place(Vertex("skew", dfg.outputs()[0].node_id), "out0")
    routing = RoutingGraph(adg)
    for edge in sched.edges():
        src = sched.placement[edge.src]
        dst = sched.placement[edge.dst]
        path = routing.route(src, dst, sched.link_values(), edge.value)
        assert path is not None, (src, dst)
        sched.set_route(edge, path)
    return sched, routing


class TestSkewAndDelays:
    def test_skew_absorbed_by_deep_fifos(self):
        adg = chain_fabric(delay_depth=16)
        scope, dfg = two_op_scope()
        sched, routing = place_chain(adg, scope, dfg)
        timing = compute_timing(sched, routing)
        assert timing.regions["skew"].skew_violations == 0
        # The direct x->b edge must carry a positive configured delay.
        assert any(delay > 0 for delay in sched.input_delays.values())

    def test_shallow_fifos_violate(self):
        adg = chain_fabric(delay_depth=1)
        scope, dfg = two_op_scope(op_a="fmul")  # latency 4 + hops
        sched, routing = place_chain(adg, scope, dfg)
        timing = compute_timing(sched, routing)
        assert timing.regions["skew"].skew_violations > 0

    def test_dynamic_pes_have_no_skew_requirement(self):
        adg = chain_fabric(dynamic=True, delay_depth=1)
        scope, dfg = two_op_scope(op_a="fmul")
        sched, routing = place_chain(adg, scope, dfg)
        timing = compute_timing(sched, routing)
        assert timing.regions["skew"].skew_violations == 0

    def test_latency_includes_route_hops(self):
        adg = chain_fabric()
        scope, dfg = two_op_scope()
        sched, routing = place_chain(adg, scope, dfg)
        timing = compute_timing(sched, routing)
        # mul(3) + add(1) + at least two flopped switch hops.
        assert timing.regions["skew"].latency >= 6


class TestInitiationIntervals:
    def test_unpipelined_op_blocks_its_pe(self):
        adg = chain_fabric()
        dfg = Dfg("d")
        x = dfg.add_input("x")
        q = dfg.add_instr("fdiv" if False else "mul", [x, x])
        del q
        dfg2 = Dfg("div")
        x2 = dfg2.add_input("x")
        division = dfg2.add_instr("div", [x2, x2])
        dfg2.add_output("o", division)
        region = OffloadRegion(
            "div", dfg2,
            input_streams={"x": LinearStream("X", length=8)},
            output_streams={
                "o": LinearStream("O", direction=StreamDirection.WRITE,
                                  length=8),
            },
        )
        adg.node("pe0").op_names.add("div")
        scope = ConfigScope("s", regions=[region])
        sched = Schedule(scope, adg)
        sched.place(Vertex("div", x2.node_id), "in0")
        sched.place(Vertex("div", division.node_id), "pe0")
        sched.place(Vertex("div", dfg2.outputs()[0].node_id), "out0")
        routing = RoutingGraph(adg)
        for edge in sched.edges():
            path = routing.route(
                sched.placement[edge.src], sched.placement[edge.dst],
                sched.link_values(), edge.value,
            )
            sched.set_route(edge, path)
        timing = compute_timing(sched, routing)
        from repro.isa.opcodes import opcode

        assert timing.regions["div"].ii >= opcode("div").latency

    def test_low_rate_region_does_not_poison_high_rate(self):
        """Per-region II: the chol prologue's divide must not throttle
        the triangular update region."""
        from repro.compiler import compile_kernel
        from repro.scheduler.router import RoutingGraph as RG
        from repro.scheduler.timing import compute_timing as ct
        from repro.utils.rng import DeterministicRng
        from repro.workloads import kernel as make_kernel

        adg = topologies.softbrain()
        result = compile_kernel(
            make_kernel("chol", 0.05), adg,
            rng=DeterministicRng(0), max_iters=100,
        )
        assert result.ok
        timing = ct(result.schedule, RG(adg))
        assert timing.regions["chol_d"].ii > 4    # fdiv/fsqrt bound
        assert timing.regions["chol_u"].ii <= 2   # update stays pipelined


class TestRecurrenceTracking:
    def test_forced_recurrence_metadata_respected(self):
        adg = chain_fabric()
        scope, dfg = two_op_scope()
        scope.regions[0].metadata["forced_recurrence"] = 9
        sched, routing = place_chain(adg, scope, dfg)
        timing = compute_timing(sched, routing)
        assert timing.regions["skew"].recurrence_latency >= 9

    def test_reduction_recurrence_is_op_latency(self):
        adg = chain_fabric()
        dfg = Dfg("red")
        x = dfg.add_input("x")
        acc = dfg.add_instr("fadd", [x], reduction=True)
        dfg.add_output("o", acc)
        region = OffloadRegion(
            "red", dfg,
            input_streams={"x": LinearStream("X", length=8)},
            output_streams={
                "o": LinearStream("O", direction=StreamDirection.WRITE,
                                  length=1),
            },
        )
        scope = ConfigScope("s", regions=[region])
        sched = Schedule(scope, adg)
        routing = RoutingGraph(adg)
        timing = compute_timing(sched, routing)
        from repro.isa.opcodes import opcode

        assert timing.regions["red"].recurrence_latency == opcode(
            "fadd"
        ).latency

    def test_self_recurrence_loop_counts_datapath(self):
        adg = chain_fabric()
        dfg = Dfg("loop")
        x = dfg.add_input("x")
        c = dfg.add_input("c")
        s = dfg.add_instr("add", [x, c])
        dfg.add_output("c_out", s)
        region = OffloadRegion(
            "loop", dfg,
            input_streams={
                "x": LinearStream("X", length=8),
                "c": [
                    LinearStream("C", length=4),
                    RecurrenceStream(array="", source_port="c_out",
                                     length=4),
                ],
            },
            output_streams={
                "c_out": [
                    RecurrenceStream(array="", source_port="c_out",
                                     length=4,
                                     direction=StreamDirection.WRITE),
                    LinearStream("C", direction=StreamDirection.WRITE,
                                 length=4),
                ],
            },
        )
        scope = ConfigScope("s", regions=[region])
        sched = Schedule(scope, adg)
        routing = RoutingGraph(adg)
        timing = compute_timing(sched, routing)
        # Loop latency = add(1) + the 2-cycle port hop at minimum.
        assert timing.regions["loop"].recurrence_latency >= 3
