"""Tests for spatial scheduling: placement, routing, timing, repair."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adg import Adg, topologies
from repro.adg.components import (
    DelayFifo,
    Direction,
    Memory,
    ProcessingElement,
    Resourcing,
    Scheduling,
    Switch,
    SyncElement,
)
from repro.ir import ConfigScope, Dfg, LinearStream, OffloadRegion
from repro.ir.stream import StreamDirection
from repro.scheduler import (
    RoutingGraph,
    Schedule,
    SpatialScheduler,
    evaluate_schedule,
    repair_schedule,
)
from repro.scheduler import router
from repro.scheduler.repair import strip_invalid
from repro.scheduler.schedule import Vertex
from repro.scheduler.timing import compute_timing
from repro.utils.rng import DeterministicRng


def dot_scope(n=8, unroll=2, fp=False):
    mul_op = "fmul" if fp else "mul"
    add_op = "fadd" if fp else "add"
    dfg = Dfg("dot")
    a = dfg.add_input("a", lanes=unroll)
    b = dfg.add_input("b", lanes=unroll)
    products = [
        dfg.add_instr(mul_op, [(a, i), (b, i)]) for i in range(unroll)
    ]
    total = products[0]
    for product in products[1:]:
        total = dfg.add_instr(add_op, [total, product])
    acc = dfg.add_instr("acc" if not fp else "fadd", [total], reduction=True)
    dfg.add_output("c", acc)
    region = OffloadRegion(
        "dot", dfg,
        input_streams={
            "a": LinearStream("A", length=n),
            "b": LinearStream("B", length=n),
        },
        output_streams={
            "c": LinearStream("C", direction=StreamDirection.WRITE, length=1),
        },
    )
    return ConfigScope("s", regions=[region])


class TestRoutingGraph:
    def test_route_exists_in_mesh(self):
        adg = topologies.softbrain()
        routing = RoutingGraph(adg)
        path = routing.route("in0", "pe_0_0")
        assert path is not None
        assert adg.link(path[0]).src == "in0"
        assert adg.link(path[-1]).dst == "pe_0_0"

    def test_route_to_self_is_empty(self):
        adg = topologies.softbrain()
        routing = RoutingGraph(adg)
        assert routing.route("pe_0_0", "pe_0_0") == []

    def test_routes_do_not_pass_through_pes(self):
        adg = topologies.softbrain()
        routing = RoutingGraph(adg)
        for _ in range(3):
            path = routing.route("in0", "out0")
            assert path is not None
            interior = [adg.link(ln).src for ln in path[1:]]
            for name in interior:
                node = adg.node(name)
                assert node.KIND in ("switch", "delay")

    def test_unreachable_returns_none(self):
        adg = Adg()
        adg.add(Switch(name="sw0"))
        adg.add(Switch(name="sw1"))  # no link between them
        routing = RoutingGraph(adg)
        assert routing.route("sw0", "sw1") is None

    def test_congestion_diverts(self):
        # Two parallel 2-hop paths; loading one should push the second
        # value onto the other.
        adg = Adg()
        adg.add(Switch(name="entry"))
        adg.add(Switch(name="left"))
        adg.add(Switch(name="right"))
        adg.add(Switch(name="exit"))
        adg.connect("entry", "left")
        adg.connect("entry", "right")
        adg.connect("left", "exit")
        adg.connect("right", "exit")
        routing = RoutingGraph(adg)
        first = routing.route("entry", "exit", {}, value="v1")
        occupancy = {ln: {"v1"} for ln in first}
        second = routing.route("entry", "exit", occupancy, value="v2")
        assert set(first) != set(second)

    def test_multicast_reuses_links(self):
        adg = Adg()
        adg.add(Switch(name="entry"))
        adg.add(Switch(name="mid"))
        adg.add(Switch(name="exit"))
        adg.connect("entry", "mid")
        adg.connect("mid", "exit")
        routing = RoutingGraph(adg)
        first = routing.route("entry", "exit", {}, value="v")
        occupancy = {ln: {"v"} for ln in first}
        again = routing.route("entry", "exit", occupancy, value="v")
        assert again == first  # same value rides the same wires

    def test_path_latency_counts_flopped_switches(self):
        adg = topologies.softbrain()
        routing = RoutingGraph(adg)
        path = routing.route("in0", "pe_2_2")
        assert routing.path_latency(path) >= 1

    def test_tree_to_self_and_unreachable(self):
        adg = Adg()
        adg.add(Switch(name="sw0"))
        adg.add(Switch(name="sw1"))
        routing = RoutingGraph(adg)
        tree = routing.tree("sw0")
        assert routing.trace(tree, "sw0") == []
        assert routing.trace(tree, "sw1") is None


_ROUTING = {name: RoutingGraph(topologies.PRESETS[name]())
            for name in ("softbrain", "dse_initial")}


def _endpoints(adg):
    return [node.name for node in adg.pes() + adg.sync_elements()]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    adg_name=st.sampled_from(sorted(_ROUTING)),
    occupancy=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.integers(0, 3)), max_size=120),
    value=st.one_of(st.none(), st.integers(0, 4)),
    salt=st.integers(0, 10 ** 6),
)
def test_tree_traces_equal_routes(adg_name, occupancy, value, salt):
    """``trace(tree(s, L, v), d) == route(s, d, L, v)`` for every PE/sync
    pair, ties included; and the reuse rule of the scheduler: once
    another value's route that shares no link with a traced path joins
    the congestion, a fresh ``route`` still returns that path."""
    routing = _ROUTING[adg_name]
    link_ids = sorted(routing._links)
    link_values = {}
    for index, occupant in occupancy:
        link_values.setdefault(link_ids[index % len(link_ids)],
                               set()).add(occupant)
    names = _endpoints(routing.adg)
    trees = {src: routing.tree(src, link_values, value) for src in names}
    for src in names:
        for dst in names:
            assert routing.trace(trees[src], dst) == routing.route(
                src, dst, link_values, value), (src, dst)
    # Reuse rule, on pairs picked from the salt.
    for step in range(6):
        src = names[(salt + step) % len(names)]
        dst = names[(salt // 7 + 3 * step) % len(names)]
        other_src = names[(salt // 13 + step) % len(names)]
        other_dst = names[(salt // 17 + 5 * step) % len(names)]
        traced = routing.trace(trees[src], dst)
        other = routing.route(other_src, other_dst, link_values, "other")
        if traced is None or other is None or set(traced) & set(other):
            continue
        grown = {link: set(values) for link, values in link_values.items()}
        for link in other:
            grown.setdefault(link, set()).add("other")
        assert routing.route(src, dst, grown, value) == traced


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    adg_name=st.sampled_from(sorted(_ROUTING)),
    occupancy=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.integers(0, 3)), max_size=120),
    value=st.one_of(st.none(), st.integers(0, 4)),
)
def test_fast_path_routes_equal_full_search(adg_name, occupancy, value):
    """Given the value -> link-count index, ``route`` answers from the
    empty-fabric path cache exactly when the value is on no link and
    that path is unoccupied, and returns what a full search returns for
    every PE/sync pair, ties included."""
    routing = _ROUTING[adg_name]
    link_ids = sorted(routing._links)
    link_values = {}
    for index, occupant in occupancy:
        link_values.setdefault(link_ids[index % len(link_ids)],
                               set()).add(occupant)
    value_links = {}
    for values in link_values.values():
        for occupant in values:
            value_links[occupant] = value_links.get(occupant, 0) + 1
    names = _endpoints(routing.adg)
    expected_hits = 0
    hits_before = routing.fast_hits
    for src in names:
        for dst in names:
            full = routing.route(src, dst, link_values, value)
            free = routing.route(src, dst)
            if src != dst and value not in value_links and (
                    free is None
                    or not any(link_values.get(link) for link in free)):
                expected_hits += 1
            assert routing.route(src, dst, link_values, value,
                                 value_links) == full, (src, dst)
    assert routing.fast_hits - hits_before == expected_hits


def _adjacency_oracle(adg):
    """The adjacency routing must see, straight from ``adg``: per node,
    its out-links in ``adg.links()`` order with their step costs."""
    expected = {name: [] for name in adg.node_names()}
    for link in adg.links():
        dst = adg.node(link.dst)
        latency = dst.latency if isinstance(dst, Switch) else 1
        expected[link.src].append(
            (link.link_id, link.dst, RoutingGraph.LINK_COST + latency))
    return expected


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    adg_name=st.sampled_from(sorted(_ROUTING)),
    unflopped=st.lists(st.integers(0, 10 ** 6), max_size=6),
    occupancy=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.integers(0, 3)), max_size=120),
    value=st.one_of(st.none(), st.integers(0, 4)),
)
def test_shared_tables_equal_fresh_tables(adg_name, unflopped, occupancy,
                                          value):
    """A graph served by the fabric-shared tables (already used by other
    graphs) routes, traces trees and counts hops exactly like a graph
    whose tables were built with the cache emptied, and both tables hold
    the ADG's own adjacency, link order and switch latencies included."""
    base = topologies.PRESETS[adg_name]()
    variant = base.clone()
    switches = variant.switches()
    for index in unflopped:  # latency 0 on a few switches
        switches[index % len(switches)].flop_output = False
    RoutingGraph(base).tables()  # a structurally different neighbour
    warm = RoutingGraph(variant)
    names = _endpoints(variant)
    for src in names[::5]:
        warm.route(src, names[0], {}, None, {})
        warm.hops(src, names[-1])
    shared = RoutingGraph(variant.clone())
    assert shared.tables() is warm.tables()
    router._SHARED_TABLES.clear()
    fresh = RoutingGraph(variant)
    assert fresh.tables() is not shared.tables()
    oracle = _adjacency_oracle(variant)
    for graph in (shared, fresh):
        assert graph.tables().adjacency == oracle

    link_ids = sorted(shared._links)
    link_values = {}
    for index, occupant in occupancy:
        link_values.setdefault(link_ids[index % len(link_ids)],
                               set()).add(occupant)
    value_links = {}
    for values in link_values.values():
        for occupant in values:
            value_links[occupant] = value_links.get(occupant, 0) + 1
    for src in names:
        trees = [graph.tree(src, link_values, value)
                 for graph in (shared, fresh)]
        assert trees[0] == trees[1], src
        for dst in names:
            assert shared.route(src, dst, link_values, value) == \
                fresh.route(src, dst, link_values, value), (src, dst)
            assert shared.route(src, dst, link_values, value,
                                value_links) == fresh.route(
                src, dst, link_values, value, value_links), (src, dst)
            assert shared.hops(src, dst) == fresh.hops(src, dst)
    assert shared.fast_hits == fresh.fast_hits


def test_fabric_signature_tracks_what_routing_reads():
    base = topologies.softbrain()
    signature = router.fabric_signature(base)
    assert router.fabric_signature(base.clone()) == signature

    def edited(edit):
        adg = base.clone()
        edit(adg)
        return router.fabric_signature(adg)

    pe = base.pes()[0].name
    switch = base.switches()[0].name
    assert edited(lambda adg: adg.remove_link(adg.links()[7].link_id)) \
        != signature
    assert edited(lambda adg: adg.remove(pe)) != signature
    assert edited(lambda adg: setattr(adg.node(switch), "flop_output",
                                      False)) != signature
    # What routing does not read leaves it alone.
    assert edited(lambda adg: adg.node(pe).op_names.add("fdiv")) \
        == signature
    with_fifo = base.clone()
    fifo = with_fifo.add(DelayFifo(name="fifo0", depth=4))
    with_fifo.connect(switch, fifo.name)
    before = router.fabric_signature(with_fifo)
    assert before != signature
    fifo.depth = 16
    assert router.fabric_signature(with_fifo) == before


def test_shared_tables_keep_few_fabrics():
    base = topologies.softbrain()
    for index in range(router.SHARED_FABRICS + 3):
        adg = base.clone()
        adg.remove_link(adg.links()[index].link_id)
        RoutingGraph(adg).hops("in0", "pe_0_0")
    assert len(router._SHARED_TABLES) == router.SHARED_FABRICS


def test_path_latency_graph_builds_no_tables(monkeypatch):
    """The simulator builds a graph per replay only for path_latency:
    timing a schedule must not compute a signature or build tables."""
    adg = topologies.softbrain()
    sched, cost = SpatialScheduler(adg, max_iters=40).schedule(dot_scope())
    assert cost.is_legal

    def no_signature(adg):
        raise AssertionError("signature computed")

    monkeypatch.setattr(router, "fabric_signature", no_signature)
    sched.rebind(adg)  # every region re-timed, every route's latency read
    graph = RoutingGraph(adg)
    timing = compute_timing(sched, graph)
    assert timing.regions["dot"].latency > 0
    assert graph._link_latency
    assert graph._tables is None


class TestSchedule:
    def test_vertices_skip_constants(self):
        scope = dot_scope()
        scope.regions[0].dfg.add_const(5)
        sched = Schedule(scope, topologies.softbrain())
        kinds = {sched.node_of(v).kind.value for v in sched.vertices()}
        assert "const" not in kinds

    def test_candidates_respect_capability(self):
        adg = Adg()
        adg.add(ProcessingElement(name="ipe", op_names={"add"}))
        adg.add(ProcessingElement(name="fpe", op_names={"fmul", "fadd"}))
        scope = dot_scope(fp=True)
        sched = Schedule(scope, adg)
        fmul_vertex = next(
            v for v in sched.instruction_vertices()
            if sched.node_of(v).op == "fmul"
        )
        assert sched.candidates_for(fmul_vertex) == ["fpe"]

    def test_sjoin_needs_dynamic_pe(self):
        adg = Adg()
        adg.add(ProcessingElement(
            name="static_pe", op_names={"sjoin", "add"},
            scheduling=Scheduling.STATIC,
        ))
        adg.add(ProcessingElement(
            name="dyn_pe", op_names={"sjoin", "add"},
            scheduling=Scheduling.DYNAMIC,
        ))
        dfg = Dfg("j")
        a = dfg.add_input("a")
        b = dfg.add_input("b")
        sj = dfg.add_instr("sjoin", [a, b])
        dfg.add_output("o", sj)
        region = OffloadRegion(
            "j", dfg,
            input_streams={
                "a": LinearStream("A", length=4),
                "b": LinearStream("B", length=4),
            },
            output_streams={
                "o": LinearStream("O", direction=StreamDirection.WRITE,
                                  length=4),
            },
        )
        sched = Schedule(ConfigScope("s", regions=[region]), adg)
        vertex = Vertex("j", sj.node_id)
        assert sched.candidates_for(vertex) == ["dyn_pe"]

    def test_port_lane_capacity(self):
        adg = Adg()
        adg.add(SyncElement(name="narrow", width=64,
                            direction=Direction.INPUT))
        adg.add(SyncElement(name="wide", width=256,
                            direction=Direction.INPUT))
        scope = dot_scope(unroll=4)
        sched = Schedule(scope, adg)
        a_vertex = next(
            v for v in sched.port_vertices()
            if sched.node_of(v).name == "a"
        )
        assert sched.candidates_for(a_vertex) == ["wide"]

    def test_unplace_removes_routes(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        vertex = sched.instruction_vertices()[0]
        touching = len(sched.edges_of(vertex))
        routed_before = len(sched.routes)
        sched.unplace(vertex)
        assert vertex not in sched.placement
        assert len(sched.routes) <= routed_before - 1
        del touching

    def test_clone_independent(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        twin = sched.clone()
        twin.placement.clear()
        assert sched.placement


class TestStochasticScheduler:
    @pytest.mark.parametrize(
        "preset", ["softbrain", "spu", "triggered", "revel", "dse_initial"]
    )
    def test_dot_product_schedules_legally(self, preset):
        adg = topologies.PRESETS[preset]()
        scheduler = SpatialScheduler(adg, max_iters=150)
        sched, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal, cost
        assert sched.is_complete()

    def test_deterministic_given_seed(self):
        adg = topologies.softbrain()
        results = []
        for _ in range(2):
            scheduler = SpatialScheduler(
                adg, rng=DeterministicRng(42), max_iters=80
            )
            sched, cost = scheduler.schedule(dot_scope())
            results.append((cost.scalar(), sorted(
                (str(v), hw) for v, hw in sched.placement.items()
            )))
        assert results[0] == results[1]

    def test_streams_bound_to_capable_memory(self):
        adg = topologies.spu()  # banked indirect spad
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, cost = scheduler.schedule(dot_scope())
        for (region, port), memory_name in sched.stream_binding.items():
            assert adg.has_node(memory_name)

    def test_infeasible_capability_reported_illegal(self):
        # Integer dot product on a float-only fabric cannot map.
        adg = Adg()
        adg.add(Memory(name="dma0", width=512,
                       kind=__import__("repro.adg.components",
                                       fromlist=["MemoryKind"]).MemoryKind.DMA))
        adg.add(SyncElement(name="in0", width=256,
                            direction=Direction.INPUT))
        adg.add(SyncElement(name="out0", width=256,
                            direction=Direction.OUTPUT))
        adg.add(ProcessingElement(name="fpe", op_names={"fadd", "fmul"}))
        adg.add(Switch(name="sw0"))
        adg.connect("dma0", "in0")
        adg.connect("in0", "sw0")
        adg.connect("sw0", "fpe")
        adg.connect("fpe", "sw0")
        adg.connect("sw0", "out0")
        adg.connect("out0", "dma0")
        scheduler = SpatialScheduler(adg, max_iters=30)
        sched, cost = scheduler.schedule(dot_scope())
        assert not cost.is_legal
        assert cost.unplaced > 0

    def test_timing_assigns_delays_within_depth(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=100)
        sched, cost = scheduler.schedule(dot_scope(unroll=4))
        assert cost.is_legal
        timing = compute_timing(sched, scheduler.routing)
        assert timing.total_violations == 0
        depth = adg.pes()[0].delay_fifo_depth
        for delay in sched.input_delays.values():
            assert 0 <= delay <= depth


class TestRepair:
    def _legal_schedule(self, adg):
        scheduler = SpatialScheduler(adg, max_iters=120)
        sched, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        return sched

    def test_strip_after_pe_removal(self):
        adg = topologies.softbrain()
        sched = self._legal_schedule(adg)
        used_pes = set(sched.pe_load())
        victim = sorted(used_pes)[0]
        edited = adg.clone()
        edited.remove(victim)
        removed = strip_invalid(sched, edited)
        assert removed > 0
        assert all(
            edited.has_node(hw) for hw in sched.placement.values()
        )

    def test_repair_restores_legality(self):
        adg = topologies.softbrain()
        sched = self._legal_schedule(adg)
        victim = sorted(set(sched.pe_load()))[0]
        edited = adg.clone()
        edited.remove(victim)
        repaired, cost = repair_schedule(
            sched, edited, rng=DeterministicRng(1), max_iters=150
        )
        assert cost.is_legal, cost

    def test_identity_edit_strips_nothing(self):
        adg = topologies.softbrain()
        sched = self._legal_schedule(adg)
        edited = adg.clone()
        assert strip_invalid(sched, edited) == 0
        repaired, cost = repair_schedule(
            sched, edited, rng=DeterministicRng(1), max_iters=40
        )
        assert cost.is_legal

    def test_strip_handles_capability_downgrade(self):
        adg = topologies.spu()
        scheduler = SpatialScheduler(adg, max_iters=100)
        sched, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        edited = adg.clone()
        for pe in edited.pes():
            pe.op_names.discard("mul")
        removed = strip_invalid(sched, edited)
        assert removed > 0


class TestObjective:
    def test_legal_requires_everything_clean(self):
        from repro.scheduler.objective import ScheduleCost

        assert ScheduleCost().is_legal
        assert not ScheduleCost(unplaced=1).is_legal
        assert not ScheduleCost(overuse_link=1).is_legal
        assert not ScheduleCost(skew_violations=1).is_legal

    def test_scalar_ordering(self):
        from repro.scheduler.objective import ScheduleCost

        # Incompleteness dominates overuse dominates II.
        assert ScheduleCost(unplaced=1).scalar() > ScheduleCost(
            overuse_pe=5
        ).scalar()
        assert ScheduleCost(overuse_pe=1).scalar() > ScheduleCost(
            ii=5
        ).scalar()

    def test_evaluate_counts_shared_capacity(self):
        adg = Adg()
        adg.add(ProcessingElement(
            name="shared_pe", op_names={"add"},
            resourcing=Resourcing.SHARED,
            scheduling=Scheduling.DYNAMIC,
            max_instructions=4,
        ))
        dfg = Dfg("t")
        a = dfg.add_input("a")
        x = dfg.add_instr("add", [a, a])
        y = dfg.add_instr("add", [x, x])
        dfg.add_output("o", y)
        region = OffloadRegion(
            "t", dfg,
            input_streams={"a": LinearStream("A", length=4)},
            output_streams={
                "o": LinearStream("O", direction=StreamDirection.WRITE,
                                  length=4),
            },
        )
        sched = Schedule(ConfigScope("s", regions=[region]), adg)
        for vertex in sched.instruction_vertices():
            sched.place(vertex, "shared_pe")
        cost = evaluate_schedule(sched, RoutingGraph(adg))
        assert cost.overuse_pe == 0  # two instrs fit in four slots
