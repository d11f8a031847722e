"""Tests for the incremental schedule bookkeeping (PR 2).

The schedule maintains utilization counters (``pe_load``/``port_load``/
``link_values``/``memory_streams``/issue cost/route length, the value ->
link-count index, the link-width histogram and the PE, port, link and
memory overuse totals) live under mutation instead of
re-deriving them per objective evaluation. These tests pin the
incremental state to the from-scratch ``_recompute_*`` oracles under
randomized mutation sequences, pin change-driven re-timing to the
from-scratch ``_time_region`` oracle, and carry the regression
tests for the two move-operator bugs fixed in the same change
(`_swap_instructions` reporting progress after a revert,
`_reroute_congested` losing a route when an endpoint went unplaced).
"""

import gc
import pickle
import weakref

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adg import Adg, topologies
from repro.adg.components import (
    Direction,
    ProcessingElement,
    Resourcing,
    Scheduling,
    Switch,
    SyncElement,
)
from repro.ir import ConfigScope, Dfg, LinearStream, OffloadRegion
from repro.ir.dfg import NodeKind
from repro.ir.stream import RecurrenceStream, StreamDirection
from repro.scheduler import RoutingGraph, Schedule, SpatialScheduler
from repro.scheduler import stochastic as stochastic_mod
from repro.scheduler.objective import evaluate_schedule, resource_cost
from repro.scheduler.schedule import Edge, Vertex
from repro.scheduler.timing import (
    _pe_initiation_intervals,
    _time_region,
    compute_timing,
)
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry
from repro.verify import lint_schedule

from tests.test_scheduler import dot_scope


def two_region_scope():
    """Two independent dot-product regions (independently cached timings)."""
    regions = []
    for name, unroll in (("r0", 4), ("r1", 2)):
        donor = dot_scope(n=8, unroll=unroll).regions[0]
        regions.append(OffloadRegion(
            name, donor.dfg,
            input_streams=donor.input_streams,
            output_streams=donor.output_streams,
        ))
    return ConfigScope("s", regions=regions)


def assert_counters_match_oracles(sched):
    assert sched.pe_load() == sched._recompute_pe_load()
    assert sched.port_load() == sched._recompute_port_load()
    assert sched.pe_issue_cost() == sched._recompute_pe_issue_cost()
    assert sched.link_values() == sched._recompute_link_values()
    assert sched.route_length() == sched._recompute_route_length()
    assert sched.value_links() == sched._recompute_value_links()
    assert sched.link_widths() == sched._recompute_link_widths()
    assert sched.overuse()["memory"] == sched._recompute_memory_overuse()
    assert sched.overuse() == sched._recompute_overuse()
    # memory_streams order within a memory is unspecified.
    live = {m: sorted(keys) for m, keys in sched.memory_streams().items()}
    oracle = {
        m: sorted(keys)
        for m, keys in sched._recompute_memory_streams().items()
    }
    assert live == oracle
    # link_load is derived from link_values; check consistency too.
    assert sched.link_load() == {
        link: len(values)
        for link, values in sched._recompute_link_values().items()
    }
    # The verify linter runs the same drift oracles; it must agree that
    # the live state is clean even on structurally wild schedules (the
    # randomized routes are not connected paths, so only state.* counts).
    report = lint_schedule(sched, allow_partial=True)
    drift = report.select("state.")
    assert not drift, report.describe()


class TestIncrementalCounters:
    def test_randomized_mutations_match_oracles(self):
        adg = topologies.softbrain()
        sched = Schedule(dot_scope(n=8, unroll=4), adg)
        rng = DeterministicRng("parity")
        vertices = sched.vertices()
        edges = sched.edges()
        link_ids = [link.link_id for link in adg.links()]
        memories = [
            m.name for m in (adg.dma(), adg.scratchpad()) if m is not None
        ]
        for memory in memories:  # three ports: overuse comes and goes
            adg.node(memory).num_stream_slots = 1
        ports = [("dot", "a"), ("dot", "b"), ("dot", "c")]
        for step in range(400):
            op = rng.randint(0, 9)
            if op <= 2:
                vertex = rng.choice(vertices)
                pool = sched.candidates_for(vertex)
                if pool:
                    sched.place(vertex, rng.choice(pool))
            elif op == 3:
                sched.unplace(rng.choice(vertices))
            elif op == 4:
                # Raw observed-dict mutation (bypasses Schedule methods).
                sched.placement.pop(rng.choice(vertices), None)
            elif op <= 6:
                edge = rng.choice(edges)
                hops = rng.randint(0, 4)
                sched.set_route(edge, rng.sample(link_ids, hops))
            elif op == 7:
                sched.routes.pop(rng.choice(edges), None)
            elif op == 8:
                region, port = rng.choice(ports)
                sched.bind_stream(region, port, rng.choice(memories))
            else:
                sched.stream_binding.pop(rng.choice(ports), None)
            if step % 50 == 0:
                assert_counters_match_oracles(sched)
            if step == 200:
                sched = sched.clone()
            if step == 300:
                sched.clear()
                assert sched.pe_load() == {}
                assert sched.route_length() == 0
        assert_counters_match_oracles(sched)

    def test_wholesale_assignment_rebuilds_counters(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        rebuilt = Schedule(sched.scope, adg)
        rebuilt.placement = dict(sched.placement)
        rebuilt.routes = {
            edge: list(links) for edge, links in sched.routes.items()
        }
        rebuilt.stream_binding = dict(sched.stream_binding)
        rebuilt.input_delays = dict(sched.input_delays)
        assert_counters_match_oracles(rebuilt)
        assert rebuilt.pe_load() == sched.pe_load()
        assert rebuilt.link_values() == sched.link_values()

    def test_evaluation_parity_incremental_vs_rebuilt(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=80)
        sched, _ = scheduler.schedule(dot_scope(unroll=4))
        rebuilt = Schedule(sched.scope, adg)
        rebuilt.placement = dict(sched.placement)
        rebuilt.routes = {
            edge: list(links) for edge, links in sched.routes.items()
        }
        rebuilt.stream_binding = dict(sched.stream_binding)
        rebuilt.input_delays = dict(sched.input_delays)
        routing = RoutingGraph(adg)
        assert evaluate_schedule(sched, routing) == evaluate_schedule(
            rebuilt, routing
        )

    def test_clone_shares_immutable_views_not_counters(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        twin = sched.clone()
        # DFG-derived views are immutable and shared...
        assert twin.edges() is sched.edges()
        assert twin.vertices() == sched.vertices()
        # ...but mutation state is independent.
        for vertex in list(twin.placement):
            twin.unplace(vertex)
        assert twin.pe_load() == {}
        assert sched.placement
        assert_counters_match_oracles(sched)
        assert_counters_match_oracles(twin)

    def test_schedules_freed_without_cycle_collection(self):
        """A schedule is no reference cycle: it is freed as soon as its
        last reference goes, not when the cyclic collector next runs
        (garbage schedules piling up between collections raised peak
        memory)."""
        adg = topologies.softbrain()
        sched, _ = SpatialScheduler(adg, max_iters=30).schedule(dot_scope())
        twin = sched.clone()
        refs = [weakref.ref(sched), weakref.ref(twin)]
        gc.disable()
        try:
            del sched, twin
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_pickle_roundtrip_preserves_counters(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        loaded = pickle.loads(pickle.dumps(sched))
        assert dict(loaded.placement) == dict(sched.placement)
        assert dict(loaded.routes) == dict(sched.routes)
        assert loaded.pe_load() == sched.pe_load()
        assert loaded.link_values() == sched.link_values()
        assert_counters_match_oracles(loaded)

    def test_rebind_recounts_pe_overuse(self):
        adg = topologies.softbrain()
        sched = Schedule(dot_scope(unroll=4), adg)
        pes = [pe.name for pe in adg.pes()]
        for vertex in sched.instruction_vertices():
            sched.place(vertex, pes[0])  # all on one dedicated PE
        sched.place(sched.instruction_vertices()[0], pes[1])
        assert sched.overuse()["pe"] == len(
            sched.instruction_vertices()) - 2
        # The edited hardware shares the crowded PE and drops the other.
        edited = adg.clone()
        crowded = edited.node(pes[0])
        crowded.resourcing = Resourcing.SHARED
        crowded.max_instructions = 4
        edited.remove(pes[1])
        sched.rebind(edited)
        assert sched.overuse() == sched._recompute_overuse()
        assert sched.overuse()["pe"] == max(
            0, len(sched.instruction_vertices()) - 1 - 4)
        # Stripping the placement on the removed PE keeps them in step.
        sched.unplace(sched.instruction_vertices()[0])
        assert_counters_match_oracles(sched)

    def test_memory_overuse_is_a_running_count(self):
        adg = topologies.softbrain()
        dma = adg.dma().name
        adg.node(dma).num_stream_slots = 1
        sched = Schedule(dot_scope(), adg)
        for port in ("a", "b", "c"):
            sched.bind_stream("dot", port, dma)
        assert sched.overuse()["memory"] == 2
        assert resource_cost(sched).overuse_memory == 2
        sched.stream_binding.pop(("dot", "a"))
        assert sched.overuse()["memory"] == 1
        # More slots on the edited hardware: rebind recounts.
        edited = adg.clone()
        edited.node(dma).num_stream_slots = 2
        sched.rebind(edited)
        assert sched.overuse()["memory"] == 0
        sched.bind_stream("dot", "a", dma)
        assert sched.overuse()["memory"] == 1
        assert_counters_match_oracles(sched)
        twin = sched.clone()
        twin.stream_binding = {}
        assert twin.overuse()["memory"] == 0
        assert sched.overuse()["memory"] == 1
        assert_counters_match_oracles(twin)

    def test_unrouted_edges_is_set_difference(self):
        adg = topologies.softbrain()
        sched = Schedule(dot_scope(unroll=4), adg)
        link_ids = [link.link_id for link in adg.links()]
        edges = sched.edges()
        for edge in edges[::2]:
            sched.set_route(edge, link_ids[:2])
        assert set(sched.unrouted_edges()) == set(edges) - set(sched.routes)


class TestTimingCache:
    def test_regions_cached_until_mutated(self):
        adg = topologies.dse_initial()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("cache"), max_iters=200,
        )
        sched, cost = scheduler.schedule(two_region_scope())
        assert cost.is_legal
        before = dict(telemetry.counters)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)

        def delta(name):
            return telemetry.counters.get(name, 0) - before.get(name, 0)

        # First call may hit (the search already timed this exact state);
        # the second call must be served fully from cache.
        assert delta("timing_region_cache_hits") >= 2
        recomputes = delta("timing_region_recomputes")
        # Mutating r0 invalidates only r0.
        vertex = next(v for v in sched.placement if v.region == "r0")
        hw = sched.placement[vertex]
        sched.placement.pop(vertex)
        sched.place(vertex, hw)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert delta("timing_region_recomputes") == recomputes + 1
        assert delta("timing_region_cache_hits") >= 3

    def test_delay_flag_upgrades_recompute(self):
        adg = topologies.softbrain()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        sched.placement.pop(next(iter(sched.placement)))  # dirties the region
        compute_timing(sched, scheduler.routing, assign_delays=False,
                       telemetry=telemetry)
        hits = telemetry.counters.get("timing_region_cache_hits", 0)
        # A no-delays entry cannot serve an assign_delays request.
        compute_timing(sched, scheduler.routing, assign_delays=True,
                       telemetry=telemetry)
        assert telemetry.counters["timing_region_recomputes"] >= 2
        # ...but the delays entry serves both kinds afterwards.
        compute_timing(sched, scheduler.routing, assign_delays=False,
                       telemetry=telemetry)
        compute_timing(sched, scheduler.routing, assign_delays=True,
                       telemetry=telemetry)
        assert telemetry.counters["timing_region_cache_hits"] >= hits + 2

    def test_rebind_invalidates_cache(self):
        adg = topologies.softbrain()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, _ = scheduler.schedule(dot_scope())
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        recomputes = telemetry.counters.get("timing_region_recomputes", 0)
        sched.rebind(adg.clone())
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert telemetry.counters[
            "timing_region_recomputes"
        ] == recomputes + 1


def mixed_fabric():
    """Softbrain with a mix of PE execution models: some dynamic, some
    shared, some with one-deep delay FIFOs — so flow and skew violations
    both occur under random placements."""
    adg = topologies.softbrain()
    for index, pe in enumerate(adg.pes()):
        if index % 4 == 1:
            pe.scheduling = Scheduling.DYNAMIC
        elif index % 4 == 2:
            pe.resourcing = Resourcing.SHARED
            pe.max_instructions = 4
        elif index % 4 == 3:
            pe.delay_fifo_depth = 1
    return adg


def timing_scope():
    """Two regions covering every timing feature: constant and lane
    operands, a predicate edge, a reduction, two outputs, and a
    self-recurrence stream looping an output back into an input."""
    dfg = Dfg("p")
    x = dfg.add_input("x", lanes=2)
    k = dfg.add_const(3)
    m0 = dfg.add_instr("mul", [(x, 0), k])
    m1 = dfg.add_instr("mul", [(x, 1), (x, 0)])
    guard = dfg.add_instr("cmp_gt", [m0, m1])
    total = dfg.add_instr("add", [m0, m1], predicate=guard)
    acc = dfg.add_instr("acc", [total], reduction=True)
    dfg.add_output("o", acc)
    dfg.add_output("q", total)
    pred = OffloadRegion(
        "p", dfg,
        input_streams={"x": LinearStream("X", length=8)},
        output_streams={
            "o": LinearStream("O", direction=StreamDirection.WRITE,
                              length=1),
            "q": LinearStream("Q", direction=StreamDirection.WRITE,
                              length=8),
        },
    )
    loop_dfg = Dfg("loop")
    y = loop_dfg.add_input("y")
    c = loop_dfg.add_input("c")
    step = loop_dfg.add_instr("fmul", [y, c])
    loop_dfg.add_output("c_out", loop_dfg.add_instr("add", [step, c]))
    loop = OffloadRegion(
        "loop", loop_dfg,
        input_streams={
            "y": LinearStream("Y", length=8),
            "c": [
                LinearStream("C", length=4),
                RecurrenceStream(array="", source_port="c_out", length=4),
            ],
        },
        output_streams={
            "c_out": LinearStream("C", direction=StreamDirection.WRITE,
                                  length=4),
        },
    )
    return ConfigScope("s", regions=[pred, loop])


def assert_timing_matches_oracle(sched, routing, assign_delays):
    """The cached, dirty-suffix ``compute_timing`` equals the
    from-scratch ``_time_region`` on a fresh clone, field by field, and
    leaves ``input_delays`` identical, insertion order included."""
    twin = sched.clone()
    live = compute_timing(sched, routing, assign_delays=assign_delays)
    per_pe = _pe_initiation_intervals(twin)
    ii_link = max(
        (len(values) for values in twin._recompute_link_values().values()),
        default=1,
    )
    for region in twin.regions():
        oracle, oracle_ready = _time_region(twin, routing, region,
                                            assign_delays)
        pes = {
            twin.placement.get(Vertex(region.name, node.node_id))
            for node in region.dfg.instructions()
        }
        oracle.ii = max(
            oracle.ii, ii_link,
            max((per_pe.get(hw, 1) for hw in pes if hw is not None),
                default=1),
        )
        got = live.regions[region.name]
        for name in ("latency", "ii", "recurrence_latency",
                     "skew_violations", "flow_violations"):
            assert getattr(got, name) == getattr(oracle, name), (
                region.name, name)
        state, _seeds = sched.cached_region_timing(region.name)
        ready = state.ready_times(sched.timing_plan(region.name))
        assert list(ready.items()) == list(oracle_ready.items())
    assert list(sched.input_delays.items()) == list(
        twin.input_delays.items()
    )


MUTATIONS = ("place", "place", "place", "unplace", "route", "route",
             "unroute", "reroute", "swap_revert", "clone", "rebind",
             "clear")


class TestDirtySuffixTiming:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 999),
                  st.integers(0, 999)),
        min_size=1, max_size=40,
    ))
    def test_matches_from_scratch_oracle(self, steps):
        adg = mixed_fabric()
        routing = RoutingGraph(adg)
        sched = Schedule(timing_scope(), adg)
        vertices = sched.vertices()
        edges = sched.edges()
        link_ids = [link.link_id for link in adg.links()]
        instrs = sched.instruction_vertices()

        def route(edge, salt):
            src = sched.placement.get(edge.src)
            dst = sched.placement.get(edge.dst)
            if src is not None and dst is not None:
                path = routing.route(src, dst, sched.link_values(),
                                     edge.value)
            else:  # searches carry routes whose endpoint moved away
                path = [link_ids[(salt + 7 * i) % len(link_ids)]
                        for i in range(salt % 4)]
            if path is not None:
                sched.set_route(edge, path)

        for op, first, second in steps:
            edge = edges[first % len(edges)]
            if op == "place":
                vertex = vertices[first % len(vertices)]
                pool = sched.candidates_for(vertex)
                if pool:
                    sched.place(vertex, pool[second % len(pool)])
            elif op == "unplace":
                sched.unplace(vertices[first % len(vertices)])
            elif op == "route":
                route(edge, second)
            elif op == "unroute":
                sched.routes.pop(edge, None)
            elif op == "reroute":
                old = sched.routes.pop(edge, None)
                route(edge, second)
                if edge not in sched.routes and old is not None:
                    sched.set_route(edge, old)
            elif op == "swap_revert":
                # The scheduler's swap move, timed mid-swap, then undone.
                a = instrs[first % len(instrs)]
                b = instrs[second % len(instrs)]
                hw_a = sched.placement.get(a)
                hw_b = sched.placement.get(b)
                if a == b or hw_a is None or hw_b is None:
                    continue
                touched = dict.fromkeys(sched.edges_of(a) + sched.edges_of(b))
                saved = {e: list(sched.routes[e])
                         for e in touched if e in sched.routes}
                sched.unplace(a)
                sched.unplace(b)
                sched.place(a, hw_b)
                sched.place(b, hw_a)
                for moved in (a, b):
                    for swapped in sched.edges_of(moved):
                        route(swapped, second)
                assert_timing_matches_oracle(sched, routing, True)
                sched.unplace(a)
                sched.unplace(b)
                sched.place(a, hw_a)
                sched.place(b, hw_b)
                for saved_edge, links in saved.items():
                    sched.set_route(saved_edge, links)
            elif op == "clone":
                sched = sched.clone()
            elif op == "rebind":
                sched.rebind(adg if second % 2 else adg.clone())
            else:
                sched.clear()
            assert sched.overuse() == sched._recompute_overuse()
            assert sched.value_links() == sched._recompute_value_links()
            assert sched.link_widths() == sched._recompute_link_widths()
            # Leave some mutations to accumulate before the next check,
            # so one re-time covers several dirty positions.
            if second % 3:
                assert_timing_matches_oracle(sched, routing,
                                             bool(second % 2))
        assert_timing_matches_oracle(sched, routing, True)
        assert_timing_matches_oracle(sched, routing, False)

    def test_unplacing_an_unplaced_producer_rewrites_delays(self):
        # Unplacing drops the delays of every edge of the vertex, placed
        # or not; the consumer's cached timing must not hide that.
        adg = mixed_fabric()
        routing = RoutingGraph(adg)
        sched = Schedule(timing_scope(), adg)
        consumer = Vertex("loop", 2)
        static = next(
            name for name in sched.candidates_for(consumer)
            if not adg.node(name).is_dynamic
        )
        sched.place(consumer, static)
        assert_timing_matches_oracle(sched, routing, True)
        sched.unplace(Vertex("loop", 0))  # never placed
        assert_timing_matches_oracle(sched, routing, True)

    def test_moving_a_producer_retimes_its_consumer(self):
        # A consumer's flow violations follow its producer's PE, so a
        # producer that changes PE (same finish time, no route touched)
        # must re-time the consumer too.
        adg = mixed_fabric()
        routing = RoutingGraph(adg)
        sched = Schedule(timing_scope(), adg)
        producer, consumer = Vertex("loop", 2), Vertex("loop", 3)
        pool = sched.candidates_for(producer)
        static = next(n for n in pool if not adg.node(n).is_dynamic)
        dynamic = next(n for n in pool if adg.node(n).is_dynamic)
        sched.place(consumer, next(
            n for n in sched.candidates_for(consumer)
            if adg.node(n).is_dynamic and n != dynamic))
        sched.place(producer, static)
        assert compute_timing(sched, routing).regions["loop"] \
            .flow_violations == 1
        sched.place(producer, dynamic)
        assert compute_timing(sched, routing).regions["loop"] \
            .flow_violations == 0
        assert_timing_matches_oracle(sched, routing, True)

    def test_late_mutation_retimes_only_the_suffix(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=60)
        sched, cost = scheduler.schedule(dot_scope(unroll=4))
        assert cost.is_legal
        plan = sched.timing_plan("dot")
        telemetry = Telemetry()
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert telemetry.counters.get("timing_nodes_retimed", 0) == 0
        # The reduction feeds only the output. Re-placing it on the same
        # PE changes neither its finish time nor its PE: it alone is
        # re-timed, and the output keeps its cached timing.
        acc = next(
            v for v in sched.instruction_vertices()
            if sched.node_of(v).reduction
        )
        hw = sched.placement[acc]
        sched.placement.pop(acc)
        sched.place(acc, hw)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert telemetry.counters["timing_region_recomputes"] == 1
        assert telemetry.counters["timing_nodes_retimed"] == 1
        assert_timing_matches_oracle(sched, scheduler.routing, True)
        # Dropping the routed operand into the reduction moves its
        # finish time, which propagates to the output: two positions.
        into_acc = next(edge for edge in sched.edges_of(acc)
                        if edge.dst == acc)
        assert scheduler.routing.path_latency(sched.routes[into_acc]) > 0
        output = plan.consumers[plan.position[acc.node_id]]
        assert len(output) == 1 and plan.steps[output[0]][1] is False
        before, _ = sched.cached_region_timing("dot")
        sched.routes.pop(into_acc)
        compute_timing(sched, scheduler.routing, telemetry=telemetry)
        assert telemetry.counters["timing_region_recomputes"] == 2
        assert telemetry.counters["timing_nodes_retimed"] == 1 + 2
        after, _ = sched.cached_region_timing("dot")
        assert after.finish[output[0]] < before.finish[output[0]]
        assert_timing_matches_oracle(sched, scheduler.routing, True)


class TestDeterminism:
    def test_fixed_seed_trajectory_identical(self):
        adg = topologies.dse_initial()
        outcomes = []
        for _ in range(2):
            telemetry = Telemetry()
            scheduler = SpatialScheduler(
                adg, rng=DeterministicRng("traj"), max_iters=120,
                telemetry=telemetry,
            )
            sched, cost = scheduler.schedule(dot_scope(unroll=4))
            outcomes.append((
                cost,
                sorted((str(v), hw) for v, hw in sched.placement.items()),
                sorted(
                    (str(e), tuple(links))
                    for e, links in sched.routes.items()
                ),
                dict(telemetry.counters),
            ))
        assert outcomes[0] == outcomes[1]


class _ForcedCost:
    def __init__(self, scalar):
        self._scalar = scalar

    def scalar(self):
        return self._scalar


class TestMoveOperatorBugfixes:
    def test_swap_revert_reports_no_progress(self, monkeypatch):
        """A reverted swap must return False and leave the schedule
        bit-identical (regression: it returned True after reverting,
        starving the caller's escape perturbation)."""
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("swap"), max_iters=80,
        )
        sched, cost = scheduler.schedule(dot_scope(unroll=4))
        assert cost.is_legal
        placement_before = dict(sched.placement)
        routes_before = {
            edge: list(links) for edge, links in sched.routes.items()
        }
        calls = {"n": 0}

        def worse_every_time(schedule, routing, timing_result=None,
                             telemetry=None):
            calls["n"] += 1
            return _ForcedCost(float(calls["n"]))

        monkeypatch.setattr(
            stochastic_mod, "evaluate_schedule", worse_every_time
        )
        telemetry = Telemetry()
        scheduler.telemetry = telemetry
        # Some attempts bail early on placement legality without
        # mutating anything; retry until a swap was actually tried.
        returned = None
        for _ in range(20):
            calls["n"] = 0
            returned = scheduler._swap_instructions(sched)
            if calls["n"] >= 2:  # before and after were both evaluated
                break
        assert calls["n"] >= 2
        assert returned is False
        assert dict(sched.placement) == placement_before
        assert {
            edge: list(links) for edge, links in sched.routes.items()
        } == routes_before
        assert telemetry.counters.get("sched_moves_swap_reverted", 0) >= 1
        assert_counters_match_oracles(sched)

    def test_reroute_congested_keeps_route_when_endpoint_unplaced(self):
        """Popping a congested route whose endpoint is unplaced must not
        lose the route (regression: the route was popped, then the move
        bailed out without restoring it)."""
        adg = Adg()
        adg.add(SyncElement(name="in_a", direction=Direction.INPUT))
        adg.add(SyncElement(name="in_b", direction=Direction.INPUT))
        adg.add(Switch(name="sw"))
        adg.add(ProcessingElement(name="pe", op_names={"add"}))
        l1 = adg.connect("in_a", "sw").link_id
        l2 = adg.connect("in_b", "sw").link_id
        l3 = adg.connect("sw", "pe").link_id

        dfg = Dfg("r")
        a = dfg.add_input("a")
        b = dfg.add_input("b")
        x = dfg.add_instr("add", [a, b])
        dfg.add_output("o", x)
        region = OffloadRegion(
            "r", dfg,
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
        sched.place(Vertex("r", x.node_id), "pe")
        e1 = Edge("r", a.node_id, x.node_id, 0)
        e2 = Edge("r", b.node_id, x.node_id, 1)
        # Two distinct values share l3: the link is congested.
        sched.set_route(e1, [l1, l3])
        sched.set_route(e2, [l2, l3])
        assert sched.link_load()[l3] == 2
        # Input vertices were never placed, so both congested routes
        # have an unplaced endpoint.
        scheduler = SpatialScheduler(adg, rng=DeterministicRng("rr"))
        assert scheduler._reroute_congested(sched) is False
        assert sched.routes[e1] == [l1, l3]
        assert sched.routes[e2] == [l2, l3]
        assert_counters_match_oracles(sched)

    def test_reroute_congested_still_reroutes_placed_edges(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng("rr2"), max_iters=40, patience=1,
        )
        sched, _ = scheduler.schedule(dot_scope(unroll=4))
        # Manufacture congestion on a fully placed schedule.
        edges = [
            e for e in sched.edges()
            if e.src in sched.placement and e.dst in sched.placement
        ]
        if len(edges) >= 2:
            shared = list(sched.routes.get(edges[0], [])) or None
            if shared:
                sched.set_route(edges[1], shared)
                routed_before = len(sched.routes)
                if sched.link_load() and max(
                    sched.link_load().values()
                ) > 1:
                    scheduler._reroute_congested(sched)
                    assert len(sched.routes) == routed_before
        assert_counters_match_oracles(sched)


# SpatialScheduler._pick_victim before victim choice read the live
# counters, verbatim: the oracle for the counter-driven victim pool.
def _pick_victim_oracle(self, sched):
    """Prefer vertices that contribute to cost: unplaced ones, those
    on overused resources, then anything."""
    unplaced = sched.unplaced_vertices()
    if unplaced:
        return self.rng.choice(unplaced)
    overused = []
    pe_load = sched.pe_load()
    port_load = sched.port_load()
    for vertex, hw_name in sched.placement.items():
        node = sched.node_of(vertex)
        if node.kind is NodeKind.INSTR:
            hw = sched.adg.node(hw_name)
            capacity = getattr(hw, "max_instructions", 1)
            if pe_load.get(hw_name, 0) > capacity:
                overused.append(vertex)
        elif port_load.get(hw_name, 0) > 1:
            overused.append(vertex)
    link_load = sched.link_load()
    hot_links = {
        link_id for link_id, load in link_load.items() if load > 1
    }
    for edge, links in sched.routes.items():
        if any(link_id in hot_links for link_id in links):
            if edge.dst in sched.placement:
                overused.append(edge.dst)
    # Execution-model flow violations (Section III-B): either endpoint
    # of a static->dynamic or dedicated->shared edge is a good victim.
    from repro.adg.components import ProcessingElement as _PE

    for edge in sched.edges():
        src_hw = sched.placement.get(edge.src)
        dst_hw = sched.placement.get(edge.dst)
        if src_hw is None or dst_hw is None:
            continue
        src_node = sched.adg.node(src_hw)
        dst_node = sched.adg.node(dst_hw)
        if not (isinstance(src_node, _PE) and isinstance(dst_node, _PE)):
            continue
        if (not src_node.is_dynamic and dst_node.is_dynamic) or (
            not src_node.is_shared and dst_node.is_shared
        ):
            overused.append(edge.src)
            overused.append(edge.dst)
    unrouted = [
        edge.src for edge in sched.edges()
        if edge not in sched.routes and edge.src in sched.placement
    ]
    pool = overused or unrouted
    if pool:
        return self.rng.choice(pool)
    everything = [v for v in sched.vertices() if v in sched.placement]
    return self.rng.choice(everything) if everything else None


class _RecordingRng:
    """A rng that records each sequence it is asked to choose from."""

    def __init__(self, seed):
        self.rng = DeterministicRng(seed)
        self.pools = []

    def choice(self, sequence):
        self.pools.append(list(sequence))
        return self.rng.choice(sequence)


class _OracleScheduler:
    def __init__(self, seed):
        self.rng = _RecordingRng(seed)


def random_victim_state(seed):
    """A schedule, mostly on :func:`mixed_fabric`, with random placements
    (PEs and sync elements over capacity, flow-violating edges), random
    routes (links carrying several values) and, sometimes, unplaced
    vertices or unrouted edges — or, spread out, no overuse at all."""
    rng = DeterministicRng(("victims", seed))
    # Plain softbrain (no flow violations) lets the later pools show;
    # a static fabric with shared PEs has only dedicated->shared ones.
    fabric = rng.choice(["mixed", "mixed", "shared", "plain"])
    adg = mixed_fabric() if fabric == "mixed" else topologies.softbrain()
    if fabric == "shared":
        for pe in adg.pes()[::3]:
            pe.resourcing = Resourcing.SHARED
            pe.max_instructions = 4
    sched = Schedule(two_region_scope(), adg)
    pes = rng.shuffle([pe.name for pe in adg.pes()])
    syncs = rng.shuffle([sync.name for sync in adg.sync_elements()])
    link_ids = rng.shuffle([link.link_id for link in adg.links()])
    # Spread resources take one vertex per hw node or one route per
    # link: no overuse of that kind.
    spread_pes, spread_syncs, spread_links = (
        rng.accept(0.4) for _ in range(3))
    if not spread_pes:
        pes = pes[:rng.randint(1, len(pes))]
    if not spread_syncs:
        syncs = syncs[:rng.randint(1, len(syncs))]
    if not spread_links:
        link_ids = link_ids[:rng.randint(3, 60)]
    keep_unplaced = rng.accept(0.2)
    for vertex in sched.vertices():
        if keep_unplaced and rng.accept(0.2):
            continue
        if sched.node_of(vertex).kind is NodeKind.INSTR:
            pool, spread = pes, spread_pes
        else:
            pool, spread = syncs, spread_syncs
        sched.place(vertex, pool.pop() if spread else rng.choice(pool))
    route_share = rng.choice([0.0, 0.5, 1.0])
    for edge in sched.edges():
        if rng.accept(route_share):
            hops = rng.randint(1, 3)
            if spread_links:
                sched.set_route(edge, [link_ids.pop() for _ in range(hops)])
            else:
                sched.set_route(edge, rng.sample(link_ids, hops))
    return adg, sched


class TestVictimPool:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), draw=st.integers(0, 10 ** 6))
    def test_pool_and_draw_match_oracle(self, seed, draw):
        adg, sched = random_victim_state(seed)
        oracle = _OracleScheduler(("draw", draw))
        expected = _pick_victim_oracle(oracle, sched)
        scheduler = SpatialScheduler(adg,
                                     rng=DeterministicRng(("draw", draw)))
        pool = scheduler._victim_pool(sched)
        if expected is None:
            assert pool == [] and oracle.rng.pools == []
        else:
            assert oracle.rng.pools == [pool]
        assert scheduler._pick_victim(sched) == expected
        # Same again from the scheduler's cached PE flags.
        assert scheduler._victim_pool(sched) == pool

    def test_states_cover_every_pool(self):
        """The random states reach each source of the pool: unplaced
        vertices, PE, port and link overuse each alone, flow violations
        alone, unrouted edges and, failing all of them, every placed
        vertex."""
        kinds = set()
        for seed in range(200):
            _adg, sched = random_victim_state(seed)
            oracle = _OracleScheduler(seed)
            _pick_victim_oracle(oracle, sched)
            overuse = sched.overuse()
            kinds.update(kind + " alone" for kind in ("pe", "port", "link")
                         if overuse[kind] == sum(overuse.values()) > 0)
            unrouted = [edge.src for edge in sched.unrouted_edges()
                        if edge.src in sched.placement]
            pool = oracle.rng.pools[0]
            if pool == sched.unplaced_vertices():
                kinds.add("unplaced")
            elif not any(overuse.values()) and pool != unrouted:
                kinds.add("flow only")
            elif pool == unrouted:
                kinds.add("unrouted")
            elif not unrouted:
                kinds.add("everything")
        assert kinds == {"unplaced", "pe alone", "port alone", "link alone",
                         "flow only", "unrouted", "everything"}


class TestSchedulerTelemetry:
    def test_run_counters_populated(self):
        adg = topologies.softbrain()
        telemetry = Telemetry()
        scheduler = SpatialScheduler(
            adg, rng=DeterministicRng(7), max_iters=60,
            telemetry=telemetry,
        )
        _, cost = scheduler.schedule(dot_scope())
        assert cost.is_legal
        counters = telemetry.counters
        assert counters["sched_runs"] == 1
        assert counters["sched_evaluations"] > 0
        assert counters.get("timing_region_recomputes", 0) > 0
        assert counters.get("sched_route_fast_hits", 0) > 0
        for phase in ("sched/greedy_place", "sched/route_all",
                      "sched/search"):
            assert phase in telemetry.timings

    def test_disabled_telemetry_is_default_and_silent(self):
        adg = topologies.softbrain()
        scheduler = SpatialScheduler(adg, max_iters=40)
        assert scheduler.telemetry.enabled is False
        _, cost = scheduler.schedule(dot_scope())
        assert scheduler.telemetry.counters == {}
