"""Schedule legality linting from first principles.

:func:`lint_schedule` re-derives every legality condition a finished
mapping must satisfy directly from the ADG and the DFGs — independently
of the scheduler's own objective/cost code — and reports violations as
structured :class:`~repro.verify.diagnostics.Diagnostic` records:

* every placed vertex sits on a capability-compatible component
  (PE supports the opcode, sync element faces the right direction and
  has enough lanes, execution-model rules of Section III-B hold);
* every route is a connected path of links that exist, starting at the
  producer's component, ending at the consumer's, passing only through
  switches and delay FIFOs, with no link carrying two distinct values;
* delay-FIFO assignments respect the consumer PE's physical depth;
* stream bindings reference real memories with enough stream slots;
* the schedule's live utilization counters agree with from-scratch
  recomputation (``state.*`` drift — incremental-bookkeeping bugs).

With ``allow_partial=True`` the conditions the stochastic search is
explicitly allowed to violate while exploring (incompleteness, resource
overuse, unbound streams — Section IV-C) are reported as warnings
instead of errors, so partial or repaired-but-unconverged schedules can
be linted for *structural* damage without drowning in search noise.
"""

from repro.adg.components import (
    DelayFifo,
    Direction,
    Memory,
    ProcessingElement,
    Switch,
    SyncElement,
)
from repro.errors import AdgError
from repro.ir.dfg import NodeKind
from repro.ir.region import as_stream_list
from repro.ir.stream import ConstStream, RecurrenceStream
from repro.verify.diagnostics import VerifyReport


def lint_schedule(schedule, adg=None, allow_partial=False,
                  check_state=True):
    """Lint ``schedule`` against ``adg`` (default: its own ADG).

    Returns a :class:`~repro.verify.diagnostics.VerifyReport`; never
    raises for mapping problems. ``check_state=False`` skips the live-
    counter drift oracle (useful when linting foreign schedule-like
    objects).
    """
    adg = adg if adg is not None else schedule.adg
    report = VerifyReport(checker="lint")
    tolerated = "warning" if allow_partial else "error"

    vertex_set = set(schedule.vertices())
    edge_set = set(schedule.edges())

    _lint_placement(schedule, adg, report, vertex_set, tolerated)
    _lint_completeness(schedule, report, tolerated)
    _lint_routes(schedule, adg, report, edge_set, tolerated)
    _lint_delays(schedule, adg, report, edge_set)
    _lint_streams(schedule, adg, report, tolerated)
    if check_state:
        _lint_counter_state(schedule, report)
    return report


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def _lint_placement(schedule, adg, report, vertex_set, tolerated):
    pe_instrs = {}
    port_hosts = {}
    for vertex, hw_name in schedule.placement.items():
        if vertex not in vertex_set:
            report.add(
                "placement.unknown-vertex",
                f"placement key {vertex!r} is not a vertex of the scope",
                subject=vertex,
            )
            continue
        if not adg.has_node(hw_name):
            report.add(
                "placement.unknown-node",
                f"{vertex!r} placed on {hw_name!r}, which is not in the ADG",
                region=vertex.region, subject=vertex, hw=hw_name,
            )
            continue
        node = schedule.node_of(vertex)
        hw = adg.node(hw_name)
        if node.kind is NodeKind.INSTR:
            _lint_instruction_placement(
                schedule, report, vertex, node, hw
            )
            if isinstance(hw, ProcessingElement):
                pe_instrs.setdefault(hw_name, []).append(vertex)
        elif node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            _lint_port_placement(report, vertex, node, hw)
            if isinstance(hw, SyncElement):
                port_hosts.setdefault(hw_name, []).append(vertex)
        else:
            report.add(
                "placement.kind",
                f"{vertex!r} is a {node.kind.value} node and should never "
                "be placed",
                region=vertex.region, subject=vertex,
            )

    for hw_name, vertices in pe_instrs.items():
        capacity = adg.node(hw_name).max_instructions
        if len(vertices) > capacity:
            report.add(
                "placement.pe-overuse",
                f"PE {hw_name!r} hosts {len(vertices)} instructions but "
                f"fits {capacity}",
                severity=tolerated,
                subject=hw_name, count=len(vertices), capacity=capacity,
            )
    for hw_name, vertices in port_hosts.items():
        if len(vertices) > 1:
            report.add(
                "placement.port-overuse",
                f"sync element {hw_name!r} hosts {len(vertices)} DFG ports "
                "but fits 1",
                severity=tolerated,
                subject=hw_name, count=len(vertices),
            )


def _lint_instruction_placement(schedule, report, vertex, node, hw):
    if not isinstance(hw, ProcessingElement):
        report.add(
            "placement.kind",
            f"instruction {vertex!r} placed on non-PE {hw.name!r} "
            f"({type(hw).__name__})",
            region=vertex.region, subject=vertex, hw=hw.name,
        )
        return
    if not hw.supports_op(node.op):
        report.add(
            "placement.capability",
            f"PE {hw.name!r} does not implement opcode {node.op!r} "
            f"needed by {vertex!r}",
            region=vertex.region, subject=vertex, hw=hw.name, op=node.op,
        )
    if node.op == "sjoin" and not hw.is_dynamic:
        report.add(
            "placement.capability",
            f"stream-join instruction {vertex!r} on statically scheduled "
            f"PE {hw.name!r} (sjoin needs dynamic dataflow)",
            region=vertex.region, subject=vertex, hw=hw.name,
        )
    region = schedule.region(vertex.region)
    if (
        region.join_spec is not None
        and not region.metadata.get("serial_join", False)
        and not hw.is_dynamic
    ):
        report.add(
            "placement.capability",
            f"{vertex!r} belongs to stream-join region "
            f"{vertex.region!r} but sits on static PE {hw.name!r} "
            "(data-dependent operand consumption needs dynamic PEs)",
            region=vertex.region, subject=vertex, hw=hw.name,
        )


def _lint_port_placement(report, vertex, node, hw):
    if not isinstance(hw, SyncElement):
        report.add(
            "placement.kind",
            f"DFG port {vertex!r} placed on non-sync component "
            f"{hw.name!r} ({type(hw).__name__})",
            region=vertex.region, subject=vertex, hw=hw.name,
        )
        return
    wanted = (
        Direction.INPUT if node.kind is NodeKind.INPUT else Direction.OUTPUT
    )
    if hw.direction is not wanted:
        report.add(
            "placement.capability",
            f"{node.kind.value} port {vertex!r} placed on "
            f"{hw.direction.value}-facing sync element {hw.name!r}",
            region=vertex.region, subject=vertex, hw=hw.name,
        )
    lanes_needed = (
        node.lanes if node.kind is NodeKind.INPUT else len(node.operands)
    )
    if hw.lanes64 < lanes_needed:
        report.add(
            "placement.capability",
            f"sync element {hw.name!r} has {hw.lanes64} lane(s) but "
            f"{vertex!r} needs {lanes_needed}",
            region=vertex.region, subject=vertex, hw=hw.name,
            lanes=hw.lanes64, needed=lanes_needed,
        )


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------

def _lint_completeness(schedule, report, tolerated):
    for vertex in schedule.unplaced_vertices():
        report.add(
            "completeness.unplaced",
            f"vertex {vertex!r} has no placement",
            severity=tolerated, region=vertex.region, subject=vertex,
        )
    for edge in schedule.unrouted_edges():
        src_hw = schedule.placement.get(edge.src)
        if src_hw is not None \
                and src_hw == schedule.placement.get(edge.dst):
            continue  # co-located endpoints need no links
        report.add(
            "completeness.unrouted",
            f"edge {edge!r} has no route",
            severity=tolerated, region=edge.region, subject=edge,
        )


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

def _lint_routes(schedule, adg, report, edge_set, tolerated):
    link_values = {}
    for edge, links in schedule.routes.items():
        if edge not in edge_set:
            report.add(
                "route.unknown-edge",
                f"route key {edge!r} is not an edge of the scope",
                subject=edge,
            )
            continue
        src_hw = schedule.placement.get(edge.src)
        dst_hw = schedule.placement.get(edge.dst)
        if src_hw is None or dst_hw is None:
            report.add(
                "route.dangling",
                f"edge {edge!r} is routed but an endpoint is unplaced "
                f"(src={src_hw!r}, dst={dst_hw!r})",
                region=edge.region, subject=edge,
            )
            continue
        _lint_route_path(adg, report, edge, links, src_hw, dst_hw)
        for link_id in links:
            try:
                adg.link(link_id)
            except AdgError:
                continue  # already reported by the path walk
            link_values.setdefault(link_id, set()).add(edge.value)

    for link_id, values in link_values.items():
        if len(values) > 1:
            report.add(
                "route.oversubscribed",
                f"link {link_id} carries {len(values)} distinct values "
                "(dedicated links carry one)",
                severity=tolerated, subject=link_id,
                values=sorted(map(str, values)),
            )


def _lint_route_path(adg, report, edge, links, src_hw, dst_hw):
    if not links:
        if src_hw != dst_hw:
            report.add(
                "route.empty",
                f"edge {edge!r} has an empty route but its endpoints sit "
                f"on different components ({src_hw!r} -> {dst_hw!r})",
                region=edge.region, subject=edge,
            )
        return
    position = src_hw
    for index, link_id in enumerate(links):
        try:
            link = adg.link(link_id)
        except AdgError:
            report.add(
                "route.unknown-link",
                f"edge {edge!r} routes over link {link_id}, which is not "
                "in the ADG",
                region=edge.region, subject=edge, link=link_id,
            )
            return
        if link.src != position:
            report.add(
                "route.disconnected",
                f"edge {edge!r}: hop {index} starts at {link.src!r} but "
                f"the path is at {position!r}",
                region=edge.region, subject=edge, hop=index,
            )
            return
        if index > 0:
            interior = adg.node(position)
            if not isinstance(interior, (Switch, DelayFifo)):
                report.add(
                    "route.through-terminal",
                    f"edge {edge!r} passes through {position!r} "
                    f"({type(interior).__name__}); only switches and "
                    "delay FIFOs forward traffic",
                    region=edge.region, subject=edge, node=position,
                )
                return
        position = link.dst
    if position != dst_hw:
        report.add(
            "route.sink-mismatch",
            f"edge {edge!r} ends at {position!r} but its consumer is "
            f"placed on {dst_hw!r}",
            region=edge.region, subject=edge, actual=position,
            expected=dst_hw,
        )


# ---------------------------------------------------------------------------
# Delay FIFOs
# ---------------------------------------------------------------------------

def _lint_delays(schedule, adg, report, edge_set):
    for edge, delay in schedule.input_delays.items():
        if edge not in edge_set:
            report.add(
                "delay.unknown-edge",
                f"delay assigned to {edge!r}, which is not an edge of "
                "the scope",
                severity="warning", subject=edge,
            )
            continue
        if delay < 0:
            report.add(
                "delay.negative",
                f"edge {edge!r} assigned a negative delay ({delay})",
                region=edge.region, subject=edge, delay=delay,
            )
            continue
        hw_name = schedule.placement.get(edge.dst)
        if hw_name is None or not adg.has_node(hw_name):
            continue  # dangling routes are reported separately
        hw = adg.node(hw_name)
        if isinstance(hw, ProcessingElement) \
                and delay > hw.delay_fifo_depth:
            report.add(
                "delay.depth",
                f"edge {edge!r} needs {delay} delay cycles but PE "
                f"{hw_name!r} has {hw.delay_fifo_depth}-deep FIFOs",
                region=edge.region, subject=edge, delay=delay,
                depth=hw.delay_fifo_depth,
            )


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _lint_streams(schedule, adg, report, tolerated):
    per_memory = {}
    region_names = {region.name for region in schedule.regions()}
    for (region_name, port), memory_name in \
            schedule.stream_binding.items():
        subject = f"{region_name}:{port}"
        if region_name not in region_names:
            report.add(
                "stream.unknown-region",
                f"stream binding for unknown region {region_name!r}",
                subject=subject,
            )
            continue
        if not adg.has_node(memory_name):
            report.add(
                "stream.unknown-memory",
                f"stream {subject} bound to {memory_name!r}, which is "
                "not in the ADG",
                region=region_name, subject=subject, memory=memory_name,
            )
            continue
        memory = adg.node(memory_name)
        if not isinstance(memory, Memory):
            report.add(
                "stream.not-a-memory",
                f"stream {subject} bound to non-memory component "
                f"{memory_name!r} ({type(memory).__name__})",
                region=region_name, subject=subject, memory=memory_name,
            )
            continue
        per_memory.setdefault(memory_name, []).append(subject)

    for memory_name, subjects in per_memory.items():
        slots = adg.node(memory_name).num_stream_slots
        if len(subjects) > slots:
            report.add(
                "stream.oversubscribed",
                f"memory {memory_name!r} hosts {len(subjects)} streams "
                f"but has {slots} slots",
                severity=tolerated, subject=memory_name,
                streams=subjects, slots=slots,
            )

    for region in schedule.regions():
        bindings = list(region.input_streams.items())
        bindings += list(region.output_streams.items())
        for port, binding in bindings:
            needs_memory = any(
                not isinstance(stream, (ConstStream, RecurrenceStream))
                for stream in as_stream_list(binding)
            )
            if needs_memory \
                    and (region.name, port) not in schedule.stream_binding:
                report.add(
                    "stream.unbound",
                    f"memory stream on port {region.name}:{port} has no "
                    "memory binding",
                    severity=tolerated, region=region.name,
                    subject=f"{region.name}:{port}",
                )


# ---------------------------------------------------------------------------
# Live-counter state (drift oracle)
# ---------------------------------------------------------------------------

def _lint_counter_state(schedule, report):
    """Diff every live utilization counter against the from-scratch
    recomputation; any difference is an incremental-bookkeeping bug."""
    pairs = (
        ("pe-load", schedule.pe_load(), schedule._recompute_pe_load()),
        ("port-load", schedule.port_load(),
         schedule._recompute_port_load()),
        ("issue-cost", schedule.pe_issue_cost(),
         schedule._recompute_pe_issue_cost()),
        ("link-values", schedule.link_values(),
         schedule._recompute_link_values()),
        ("value-links", schedule.value_links(),
         schedule._recompute_value_links()),
        ("link-widths", schedule.link_widths(),
         schedule._recompute_link_widths()),
        ("overuse", schedule.overuse(), schedule._recompute_overuse()),
    )
    for name, live, oracle in pairs:
        if live != oracle:
            drifted = sorted(
                key for key in set(live) | set(oracle)
                if live.get(key) != oracle.get(key)
            )
            report.add(
                f"state.{name}-drift",
                f"live {name.replace('-', ' ')} counters drifted from "
                f"recomputation on {len(drifted)} key(s)",
                subject=", ".join(map(str, drifted[:4])),
                keys=drifted,
            )

    live_streams = {
        memory: sorted(keys)
        for memory, keys in schedule.memory_streams().items()
    }
    oracle_streams = {
        memory: sorted(keys)
        for memory, keys in schedule._recompute_memory_streams().items()
    }
    if live_streams != oracle_streams:
        report.add(
            "state.memory-streams-drift",
            "live memory-stream table drifted from recomputation",
            live=live_streams, oracle=oracle_streams,
        )

    live_length = schedule.route_length()
    oracle_length = schedule._recompute_route_length()
    if live_length != oracle_length:
        report.add(
            "state.route-length-drift",
            f"live route length {live_length} != recomputed "
            f"{oracle_length}",
            live=live_length, oracle=oracle_length,
        )
