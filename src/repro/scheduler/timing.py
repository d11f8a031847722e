"""Operand-arrival timing for spatial schedules.

Responsibility 3 of the scheduler (Section IV-C): "match the timing of
operand arrival (for static components)". For every placed-and-routed
region this module computes:

* per-vertex ready/finish times following routed path latencies;
* delay-FIFO assignments that equalize operand skew at static PEs, plus
  the violation amount where the FIFO depth is insufficient (throughput
  loss is proportional to residual imbalance [64]);
* the fabric initiation interval (dedicated vs shared vs unpipelined);
* recurrence-path latencies (reductions and self-recurrence streams);
* execution-model flow violations (static -> dynamic without a sync
  element, dedicated -> shared).

Each region is timed over its static
:class:`~repro.scheduler.schedule.RegionPlan` — nodes in topological
order with their operand edges and consumers resolved once per scope.
The schedule caches, per region, the per-node finish times, PEs and
skew/flow contributions of the last timing together with the *seed*
positions its mutation observers recorded since (see
:class:`repro.scheduler.schedule.Schedule`). A node's timing depends
only on its producers' finish times and PEs and on the routes into it,
so a call re-times the seeds in topological order and, from each node
whose finish time or PE came out changed, its consumers; every other
node keeps its cached timing, and a region nothing touched is served
whole. The cross-region components (shared-PE contention, link
time-multiplexing) are read every call from the schedule's live
counters, which is cheap, and merged into the cached per-region result
without mutating it.

:func:`_time_region` is the from-scratch derivation of the same result,
kept as the oracle the property tests compare against.
"""

import heapq
from dataclasses import dataclass, field

from repro.adg.components import ProcessingElement
from repro.ir.dfg import NodeKind
from repro.ir.region import as_stream_list
from repro.ir.stream import RecurrenceStream
from repro.isa.opcodes import OPCODES
from repro.scheduler.schedule import Edge, Vertex


@dataclass
class RegionTiming:
    """Timing summary for one region."""

    latency: int = 0               # input fire -> last output arrival
    ii: int = 1                    # initiation interval (cycles/instance)
    recurrence_latency: int = 0    # longest dependence cycle
    skew_violations: int = 0       # delay-FIFO shortfall (cycles)
    flow_violations: int = 0       # illegal execution-model edges


@dataclass
class TimingResult:
    """Timing for every region of a schedule."""

    regions: dict = field(default_factory=dict)

    @property
    def max_ii(self):
        return max((t.ii for t in self.regions.values()), default=1)


def _node_latency(node):
    if node.kind is NodeKind.INSTR:
        return OPCODES[node.op].latency
    return 0


class _RegionState:
    """One region's cached timing: per plan position, the finish time,
    skew and flow violations and the instruction's PE, with the
    :class:`RegionTiming` they sum up to. Never mutated once stored:
    clones share it, and a re-time copies the lists."""

    __slots__ = ("has_delays", "finish", "skew", "flow", "pes", "timing",
                 "region_pes")

    def __init__(self, has_delays, finish, skew, flow, pes, timing):
        self.has_delays = has_delays
        self.finish = finish
        self.skew = skew
        self.flow = flow
        self.pes = pes
        self.timing = timing
        self.region_pes = set(pes)

    def ready_times(self, plan):
        """Node id -> ready time (finish time less latency) for every
        node but the constants, in topological order; derived on
        demand, for comparison with :func:`_time_region`."""
        ready = {}
        for node_id in plan.timed:
            position = plan.position[node_id]
            step = plan.steps[position]
            ready[node_id] = self.finish[position] - step[2] if step else 0
        return ready


def compute_timing(schedule, routing, assign_delays=True, telemetry=None):
    """Compute :class:`TimingResult` for ``schedule``.

    Unplaced/unrouted regions still produce entries (with their placed
    subset timed) so repair can reason about partial schedules. When
    ``assign_delays`` is set, the computed per-edge delay-FIFO settings
    are written into ``schedule.input_delays``.

    Each region re-times only its seed positions and the consumers their
    changes reach; a region with no seeds is served whole from the
    schedule's cache. ``telemetry`` (a
    :class:`repro.utils.telemetry.Telemetry`) counts
    ``timing_region_recomputes`` (any re-time, partial or full) vs
    ``timing_region_cache_hits``, and ``timing_nodes_retimed``, the
    positions the re-times recomputed.
    """
    result = TimingResult()
    # Live counters, read without copying.
    per_pe = schedule._pe_issue_cost
    ii_link = _link_initiation_interval(schedule)
    for region in schedule.regions():
        plan = schedule.timing_plan(region.name)
        state, seeds = schedule.cached_region_timing(region.name)
        # Re-time every position when nothing is cached, everything is
        # stale, or delays are asked for and were never written.
        if state is None or seeds is None \
                or (assign_delays and not state.has_delays):
            state, seeds = None, range(len(plan))
        if state is None or seeds:
            state, retimed = _retime_region(
                schedule, routing, plan, state, seeds, assign_delays)
            schedule.store_region_timing(region.name, state)
            if telemetry is not None:
                telemetry.incr("timing_region_recomputes")
                telemetry.incr("timing_nodes_retimed", retimed)
        elif telemetry is not None:
            telemetry.incr("timing_region_cache_hits")
        # A region's II is bounded by the PEs *it* occupies (a once-per-
        # launch divide in a low-rate region must not throttle the
        # high-rate region it feeds) — but contention on shared PEs it
        # co-occupies with other regions is included via per-PE totals.
        # This cross-region component is merged on a copy so the cached
        # per-region result stays valid when *other* regions move.
        base = state.timing
        region_ii = max(
            (per_pe.get(hw, 1) for hw in state.region_pes
             if hw is not None),
            default=1,
        )
        result.regions[region.name] = RegionTiming(
            base.latency, max(base.ii, region_ii, ii_link),
            base.recurrence_latency, base.skew_violations,
            base.flow_violations,
        )
    return result


def _retime_region(schedule, routing, plan, cached, seeds, assign_delays):
    """Re-time the positions in ``seeds`` of the region of ``plan`` and,
    in topological order, every consumer of a position whose finish time
    or PE came out changed; the other positions keep their timing from
    ``cached`` (a :class:`_RegionState`, or None, with ``seeds`` then
    covering every position). Returns the new state and the number of
    positions re-timed.

    A position left alone would get the same arrivals and PE, so the
    same timing, and its delays are already in ``input_delays``: only an
    unplace drops delays, and it seeds the consumer.
    """
    if cached is None:
        size = len(plan)
        finish = [0] * size
        skew = [0] * size
        flow = [0] * size
        pes = [None] * size
        skew_total = flow_total = 0
    else:
        finish = list(cached.finish)
        skew = list(cached.skew)
        flow = list(cached.flow)
        pes = list(cached.pes)
        skew_total = cached.timing.skew_violations
        flow_total = cached.timing.flow_violations
    steps = plan.steps
    consumers = plan.consumers
    # The dicts behind the read-only views: their bound ``get`` is the
    # cheaper one, and this loop runs per re-timed node.
    route_of = schedule._routes.get
    hw_of = schedule._placement.get
    adg_node = schedule.adg.node
    path_latency = routing.path_latency
    heappush, heappop = heapq.heappush, heapq.heappop

    pending = sorted(seeds)  # a sorted list is a heap
    queued = set(pending)
    while pending:
        position = heappop(pending)
        step = steps[position]
        if step is None:
            continue  # inputs fire at t=0, constants are resident
        vertex, is_instr, latency, operands = step
        arrivals = []
        target = 0
        for edge, producer, _source in operands:
            time = finish[producer]
            route = route_of(edge)
            if route is not None:
                time += path_latency(route)
            arrivals.append((edge, time))
            if time > target:
                target = time
        end = target + latency
        changed = end != finish[position]
        finish[position] = end
        if is_instr:
            hw_name = hw_of(vertex)
            if hw_name != pes[position]:
                pes[position] = hw_name
                changed = True
            node_skew = node_flow = 0
            if hw_name is not None:
                hw = adg_node(hw_name)
                if isinstance(hw, ProcessingElement) and not hw.is_dynamic:
                    node_skew = _assign_delays(
                        schedule, hw, arrivals, target, assign_delays
                    )
                node_flow = _plan_flow_violations(schedule, operands, hw)
            skew_total += node_skew - skew[position]
            skew[position] = node_skew
            flow_total += node_flow - flow[position]
            flow[position] = node_flow
        if changed:
            for consumer in consumers[position]:
                if consumer not in queued:
                    queued.add(consumer)
                    heappush(pending, consumer)

    timing = RegionTiming(
        latency=max(finish, default=0),
        recurrence_latency=_plan_recurrence_latency(plan, finish),
        skew_violations=skew_total,
        flow_violations=flow_total,
    )
    state = _RegionState(assign_delays, finish, skew, flow, pes, timing)
    return state, len(queued)


def _plan_flow_violations(schedule, operands, hw):
    """:func:`_flow_violations` over a plan step's operands."""
    violations = 0
    for _edge, _producer, source in operands:
        if source is None:
            continue  # only instruction producers carry a model
        producer_hw_name = schedule.placement.get(source)
        if producer_hw_name is None:
            continue
        producer_hw = schedule.adg.node(producer_hw_name)
        if not isinstance(producer_hw, ProcessingElement):
            continue
        if not producer_hw.is_dynamic and hw.is_dynamic:
            violations += 1
        if not producer_hw.is_shared and hw.is_shared:
            violations += 1
    return violations


def _plan_recurrence_latency(plan, finish):
    """:func:`_recurrence_latency` from per-position finish times."""
    longest = plan.recurrence_floor
    for source in plan.recurrence_sources:
        loop = finish[source] + 2
        if loop > longest:
            longest = loop
    return longest


def _pe_initiation_intervals(schedule):
    """Per-PE issue cost: dedicated pipelined PEs sustain one op/cycle;
    shared PEs issue one of their k instructions per cycle; unpipelined
    opcodes block for their latency. Returns ``{pe_name: cost}``.

    From-scratch oracle for ``Schedule.pe_issue_cost()`` (which serves
    the same table from live counters); kept for the parity tests.
    """
    per_pe = {}
    for vertex, hw_name in schedule.placement.items():
        node = schedule.node_of(vertex)
        if node.kind is not NodeKind.INSTR:
            continue
        op = OPCODES[node.op]
        cost = op.latency if not op.pipelined else 1
        per_pe[hw_name] = per_pe.get(hw_name, 0) + cost
    return per_pe


def _link_initiation_interval(schedule):
    """A link carrying k software edges time-multiplexes k words per
    instance: the widest link, read off the live link-width histogram."""
    return max(schedule._link_widths, default=1)


def _time_region(schedule, routing, region, assign_delays):
    """From-scratch timing of one region, straight from its DFG: its
    :class:`RegionTiming` and its ready times by node id.

    The oracle for the cached, plan-based :func:`compute_timing`; only
    the tests call it.
    """
    timing = RegionTiming()
    dfg = region.dfg
    ready = {}
    finish = {}

    for node_id in dfg.topological_order():
        node = dfg.node(node_id)
        vertex = Vertex(region.name, node_id)
        if node.kind is NodeKind.CONST:
            finish[node_id] = 0
            continue
        if node.kind is NodeKind.INPUT:
            # Sync elements release all inputs simultaneously at t=0.
            ready[node_id] = 0
            finish[node_id] = 0
            continue

        arrivals = []
        refs = list(node.operands)
        if node.predicate is not None:
            refs.append(node.predicate)
        for index, ref in enumerate(refs):
            producer = dfg.node(ref.node_id)
            if producer.kind is NodeKind.CONST:
                continue  # constants are resident in the PE configuration
            operand_index = index if index < len(node.operands) else -1
            edge = Edge(region.name, ref.node_id, node_id, operand_index,
                        ref.lane)
            base = finish.get(ref.node_id, 0)
            route = schedule.routes.get(edge)
            hop = routing.path_latency(route) if route is not None else 0
            arrivals.append((edge, base + hop))

        if arrivals:
            target = max(time for _, time in arrivals)
        else:
            target = 0
        ready[node_id] = target
        finish[node_id] = target + _node_latency(node)

        hw_name = schedule.placement.get(vertex)
        if hw_name is not None and node.kind is NodeKind.INSTR:
            hw = schedule.adg.node(hw_name)
            if isinstance(hw, ProcessingElement) and not hw.is_dynamic:
                timing.skew_violations += _assign_delays(
                    schedule, hw, arrivals, target, assign_delays
                )
            timing.flow_violations += _flow_violations(
                schedule, region, node, hw
            )

    timing.latency = max(finish.values(), default=0)
    timing.recurrence_latency = _recurrence_latency(
        schedule, routing, region, finish
    )
    if timing.recurrence_latency:
        timing.ii = max(timing.ii, 1)
    return timing, ready


def _assign_delays(schedule, pe, arrivals, target, assign):
    """Equalize operand skew through the PE's input delay FIFOs; returns
    violation cycles that exceed the FIFO depth."""
    violations = 0
    for edge, time in arrivals:
        skew = target - time
        absorbed = min(skew, pe.delay_fifo_depth)
        if assign:
            schedule.input_delays[edge] = absorbed
        violations += skew - absorbed
    return violations


def _flow_violations(schedule, region, node, hw):
    """Count illegal execution-model edges into this instruction
    (Section III-B): static producer -> dynamic consumer (needs a sync
    element) and dedicated producer -> shared consumer."""
    violations = 0
    refs = list(node.operands)
    if node.predicate is not None:
        refs.append(node.predicate)
    for ref in refs:
        producer = region.dfg.node(ref.node_id)
        if producer.kind is not NodeKind.INSTR:
            continue
        producer_hw_name = schedule.placement.get(
            Vertex(region.name, producer.node_id)
        )
        if producer_hw_name is None:
            continue
        producer_hw = schedule.adg.node(producer_hw_name)
        if not isinstance(producer_hw, ProcessingElement):
            continue
        if not producer_hw.is_dynamic and hw.is_dynamic:
            violations += 1
        if not producer_hw.is_shared and hw.is_shared:
            violations += 1
    return violations


def _recurrence_latency(schedule, routing, region, finish):
    """Longest dependence cycle: reduction opcodes recur internally with
    their own latency; self-recurrence streams (output port recycled into
    an input port) loop through the whole routed datapath."""
    # Fallback transforms may force a serialized dependence (e.g. the
    # naive join's pointer-chasing loop, Section IV-E).
    longest = region.metadata.get("forced_recurrence", 0)
    for node in region.dfg.instructions():
        if node.reduction:
            longest = max(longest, OPCODES[node.op].latency)
    output_names = {n.name: n for n in region.dfg.outputs()}
    for port, binding in region.input_streams.items():
        for stream in as_stream_list(binding):
            if not isinstance(stream, RecurrenceStream):
                continue
            source = output_names.get(stream.source_port)
            if source is None:
                continue  # cross-region forward: pipelined, not a cycle
            # Loop: output arrival + 2 cycles through the port pair.
            loop = finish.get(source.node_id, 0) + 2
            longest = max(longest, loop)
    return longest
