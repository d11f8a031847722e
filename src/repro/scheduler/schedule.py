"""The spatial schedule: a (partial) mapping of a scope onto an ADG.

A schedule maps three kinds of software objects:

* DFG vertices — ``Vertex(region, node_id)`` — onto hardware nodes
  (instructions onto PEs, DFG inputs/outputs onto sync elements);
* DFG edges onto network routes (ordered link lists);
* streams onto memories.

The schedule deliberately allows illegal intermediate states
(overutilized PEs/links, unplaced vertices): the stochastic search
minimizes these through the objective rather than forbidding them
("to avoid local minima during the search, the routing and PE resources
are allowed to be overutilized", Section IV-C).

Utilization state (``pe_load``/``port_load``/``link_values``/
``memory_streams``/per-PE issue cost/total route length, the value ->
link-count index, the link-width histogram, and the PE, port, link and
memory overuse totals the objective charges) is maintained
*incrementally*: the mapping methods (:meth:`Schedule.place`,
:meth:`~Schedule.set_route`, :meth:`~Schedule.bind_stream` and their
removals) are the only writers of ``placement``, ``routes`` and
``stream_binding``, and each updates the live counters as it goes, so
the objective reads its resource terms in constant time rather than
re-deriving every table per call. The three mappings are exposed as
live read-only views; a write through one raises ``TypeError``. The
from-scratch derivations are kept as ``_recompute_*`` oracles for
property tests.

Timing is cached per region together with its per-node finish times,
PEs and skew/flow contributions (see :mod:`repro.scheduler.timing`).
Each region has a static :class:`RegionPlan` — its nodes in topological
order, with each node's consumers — and a set of *seed* positions the
mapping methods add to: placing or unplacing vertex ``v`` seeds the
position of ``v``, adding or removing the route of edge ``e`` (or
dropping its delay) seeds the position of ``e.dst``, and ``clear``/
``load``/``rebind`` drop the seeds, which marks every position stale.
A node's timing depends only on its producers' finish times and PEs and
on the routes into it, so ``compute_timing`` re-times the seeds and,
from them, only the consumers whose producers came out changed.

Invariants callers must respect (all existing callers do):

* placement keys are vertices of :meth:`vertices`, route keys are edges
  of :meth:`edges` (so incompleteness is pure count arithmetic);
* route link-lists are never mutated in place — replace them through
  :meth:`set_route`.
"""

from operator import attrgetter
from types import MappingProxyType

from repro.adg.components import (
    Direction,
    Memory,
    ProcessingElement,
    SyncElement,
)
from repro.errors import SchedulingError
from repro.ir.dfg import NodeKind
from repro.ir.region import as_stream_list
from repro.ir.stream import RecurrenceStream
from repro.isa.opcodes import OPCODES

#: Process-wide count of from-scratch derived-state rebuilds
#: (:meth:`Schedule.load`, which unpickling also runs). The scheduler
#: snapshots this around a run to surface it as the
#: ``sched_load_rebuilds`` telemetry counter.
STATS = {"load_rebuilds": 0}


_set = object.__setattr__


class _Identity:
    """Base of the immutable schedule keys :class:`Vertex` and
    :class:`Edge`. Each compares by its fields and hashes once, at
    construction, to the hash of its field tuple — the value a frozen
    dataclass gives, so set and dict iteration order are as before. It
    pickles from its fields alone: a copy loaded under another
    ``PYTHONHASHSEED`` hashes afresh instead of carrying a stale hash."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        # Pickles of the former frozen dataclasses carry a field dict.
        self.__init__(**state)


class Vertex(_Identity):
    """A software vertex: one DFG node of one region."""

    __slots__ = ("region", "node_id", "_hash")

    def __init__(self, region, node_id):
        _set(self, "region", region)
        _set(self, "node_id", node_id)
        _set(self, "_hash", hash((region, node_id)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is Vertex:
            return (self.node_id == other.node_id
                    and self.region == other.region)
        return NotImplemented

    def __reduce__(self):
        return Vertex, (self.region, self.node_id)

    def __repr__(self):
        return f"{self.region}#{self.node_id}"


class Edge(_Identity):
    """A software dependence: producer vertex -> consumer operand slot.

    ``operand_index`` is -1 for predicate inputs. ``lane`` selects the
    producer word being consumed. ``src``/``dst`` are the producer and
    consumer :class:`Vertex`; ``value`` — ``(region, src_id, lane)`` —
    is the value identity used for multicast routing: edges carrying
    the same value may share network links (fanout), edges carrying
    different values may not (on dedicated/static switches). All three
    are built once, at construction.
    """

    __slots__ = ("region", "src_id", "dst_id", "operand_index", "lane",
                 "src", "dst", "value", "_hash")

    def __init__(self, region, src_id, dst_id, operand_index, lane=0):
        _set(self, "region", region)
        _set(self, "src_id", src_id)
        _set(self, "dst_id", dst_id)
        _set(self, "operand_index", operand_index)
        _set(self, "lane", lane)
        _set(self, "src", Vertex(region, src_id))
        _set(self, "dst", Vertex(region, dst_id))
        _set(self, "value", (region, src_id, lane))
        _set(self, "_hash",
             hash((region, src_id, dst_id, operand_index, lane)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is Edge:
            return (self.dst_id == other.dst_id
                    and self.src_id == other.src_id
                    and self.operand_index == other.operand_index
                    and self.lane == other.lane
                    and self.region == other.region)
        return NotImplemented

    def __reduce__(self):
        return Edge, (self.region, self.src_id, self.dst_id,
                      self.operand_index, self.lane)

    def __repr__(self):
        return (f"Edge(region={self.region!r}, src_id={self.src_id!r}, "
                f"dst_id={self.dst_id!r}, "
                f"operand_index={self.operand_index!r}, lane={self.lane!r})")


class RegionPlan:
    """Static timing view of one region: its nodes in topological order.

    Built once per scope from the DFG (fixed after lowering) and shared
    by :meth:`Schedule.clone`, like the edge list. For the node at
    topological position ``i``, ``steps[i]`` is None for inputs and
    constants (their timing never changes) and otherwise
    ``(vertex, is_instr, latency, operands)``; ``operands`` holds one
    ``(edge, producer_position, producer_vertex)`` per non-constant
    operand, predicate last, with ``producer_vertex`` None unless the
    producer is an instruction. ``consumers[i]`` holds the positions
    whose operands read position ``i``. ``timed`` lists the ids of every
    node but the constants, which have no ready time, in topological
    order. ``position`` maps node ids to positions and ``outputs`` maps
    output port names to positions. ``recurrence_floor`` is the longest
    reduction opcode latency or forced recurrence, and
    ``recurrence_sources`` holds the position of the output each
    self-recurrence stream loops back.
    """

    __slots__ = ("position", "steps", "consumers", "timed", "outputs",
                 "recurrence_floor", "recurrence_sources")

    def __init__(self, region):
        dfg = region.dfg
        order = dfg.topological_order()
        self.position = {node_id: index for index, node_id in enumerate(order)}
        self.timed = []
        self.steps = []
        consumers = [set() for _ in order]
        self.recurrence_floor = region.metadata.get("forced_recurrence", 0)
        for node_id in order:
            node = dfg.node(node_id)
            if node.kind is not NodeKind.CONST:
                self.timed.append(node_id)
            if node.kind in (NodeKind.CONST, NodeKind.INPUT):
                self.steps.append(None)
                continue
            refs = list(enumerate(node.operands))
            if node.predicate is not None:
                refs.append((-1, node.predicate))
            operands = []
            for index, ref in refs:
                producer = dfg.node(ref.node_id)
                if producer.kind is NodeKind.CONST:
                    continue  # resident in the PE configuration
                source = None
                if producer.kind is NodeKind.INSTR:
                    source = Vertex(region.name, ref.node_id)
                producer_position = self.position[ref.node_id]
                operands.append((
                    Edge(region.name, ref.node_id, node_id, index, ref.lane),
                    producer_position,
                    source,
                ))
                consumers[producer_position].add(self.position[node_id])
            self.steps.append((
                Vertex(region.name, node_id), node.is_instr, node.latency,
                tuple(operands),
            ))
            if node.reduction:
                self.recurrence_floor = max(
                    self.recurrence_floor, node.latency
                )
        self.consumers = [tuple(sorted(found)) for found in consumers]
        self.outputs = {
            node.name: self.position[node.node_id] for node in dfg.outputs()
        }
        self.recurrence_sources = tuple(
            self.outputs[stream.source_port]
            for binding in region.input_streams.values()
            for stream in as_stream_list(binding)
            if isinstance(stream, RecurrenceStream)
            and stream.source_port in self.outputs
        )

    def __len__(self):
        return len(self.steps)


def _instruction_capacity(adg, hw_name):
    """Instructions ``hw_name`` hosts without overuse: the instruction
    buffer of a PE, else 1 (also for a name no longer in ``adg``)."""
    hw = adg.node(hw_name) if adg.has_node(hw_name) else None
    return hw.max_instructions if isinstance(hw, ProcessingElement) else 1


def _stream_slots(adg, memory_name):
    """Streams ``memory_name`` hosts without overuse: the stream slots
    of a memory, else 1 (also for a name no longer in ``adg``)."""
    memory = adg.node(memory_name) if adg.has_node(memory_name) else None
    return memory.num_stream_slots if isinstance(memory, Memory) else 1


def _max_assignment(demands, capacity):
    """The size of a maximum assignment of ``demands`` — one list of
    candidate targets per unit demand — to targets that each take
    ``capacity(target)`` demands.

    Each demand in turn searches breadth-first for an augmenting path: a
    chain of assigned demands moving one target along that ends at a
    target with a free slot. A demand that finds none stays unassigned:
    an unmatched vertex without an augmenting path never gains one as
    the matching grows, so the result is maximum.
    """
    holders = {}   # target -> indices of the demands assigned to it
    assigned = 0
    for index, targets in enumerate(demands):
        # target -> (target its mover leaves, or None, and that mover)
        came_from = {}
        frontier = []
        for target in targets:
            if target not in came_from:
                came_from[target] = (None, index)
                frontier.append(target)
        end = None
        for target in frontier:  # grows while it is walked
            held = holders.get(target, ())
            if len(held) < capacity(target):
                end = target
                break
            for mover in held:
                for onward in demands[mover]:
                    if onward not in came_from:
                        came_from[onward] = (target, mover)
                        frontier.append(onward)
        if end is None:
            continue
        assigned += 1
        while end is not None:
            left, mover = came_from[end]
            holders.setdefault(end, []).append(mover)
            if left is not None:
                holders[left].remove(mover)
            end = left
    return assigned


def _issue_cost(op_name):
    """Per-instance issue cost of one instruction on its PE: pipelined
    opcodes sustain one issue per cycle, unpipelined ones block."""
    op = OPCODES[op_name]
    return 1 if op.pipelined else op.latency


class Schedule:
    """Mapping state for one configuration scope on one ADG."""

    def __init__(self, scope, adg):
        self.scope = scope
        self.adg = adg
        self.input_delays = {}    # Edge -> extra delay-FIFO cycles
        self._region_by_name = {r.name: r for r in scope.regions}
        # Immutable software-side views, built lazily, shared by clones.
        self._edges = None
        self._edges_by_vertex = None
        self._all_vertices = None
        self._vertex_nodes = None   # Vertex -> DFG node
        # Vertex -> legal hw names on ``adg``: shared by clones, replaced
        # (not cleared: clones may still use it) by rebind.
        self._candidates = {}
        # Live utilization counters (see module docstring).
        self._pe_load = {}          # PE name -> mapped instruction count
        self._port_load = {}        # sync name -> mapped DFG port count
        self._pe_issue_cost = {}    # PE name -> summed issue cost
        self._link_value_refs = {}  # link_id -> {value: route refcount}
        self._value_links = {}      # value -> links carrying it
        self._link_widths = {}      # k -> links carrying k distinct values
        self._memory_streams = {}   # memory name -> [(region, port), ...]
        self._route_length = 0      # total links across all routes
        # Overuse totals: instructions beyond PE capacity, ports beyond
        # one per sync element, values beyond one per link, streams
        # beyond a memory's stream slots.
        self._overuse_pe = 0
        self._overuse_port = 0
        self._overuse_link = 0
        self._overuse_memory = 0
        self._pe_capacity = {}      # hw name -> instruction capacity
        self._memory_slots = {}     # memory name -> stream slots
        # Timing-cache state (see repro.scheduler.timing): the static
        # per-region plans (shared by clones), the cached per-region
        # entries (never mutated once stored, so clones share them) and
        # the positions each entry must re-time. A region without a
        # seed set is stale at every position.
        self._timing_plans = None
        self._timing_cache = {}     # region -> cached timing entry
        self._timing_seeds = {}     # region -> {seed position, ...}
        # The mappings, written only by the mapping methods below and
        # read through live read-only views.
        self._placement = {}        # Vertex -> hw node name
        self._routes = {}           # Edge -> [link_id, ...]
        self._stream_binding = {}   # (region, port) -> memory name
        self._placement_view = MappingProxyType(self._placement)
        self._routes_view = MappingProxyType(self._routes)
        self._stream_binding_view = MappingProxyType(self._stream_binding)

    placement = property(
        attrgetter("_placement_view"),
        doc="Vertex -> hw node name (a live read-only view).",
    )
    routes = property(
        attrgetter("_routes_view"),
        doc="Edge -> [link_id, ...] (a live read-only view).",
    )
    stream_binding = property(
        attrgetter("_stream_binding_view"),
        doc="(region, port) -> memory name (a live read-only view).",
    )

    # ------------------------------------------------------------------
    # Counter helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _decrement(table, key, amount):
        remaining = table.get(key, 0) - amount
        if remaining > 0:
            table[key] = remaining
        else:
            table.pop(key, None)

    def _capacity(self, hw_name):
        """:func:`_instruction_capacity`, cached until :meth:`rebind`."""
        capacity = self._pe_capacity.get(hw_name)
        if capacity is None:
            capacity = _instruction_capacity(self.adg, hw_name)
            self._pe_capacity[hw_name] = capacity
        return capacity

    def _slots(self, memory_name):
        """:func:`_stream_slots`, cached until :meth:`rebind`."""
        slots = self._memory_slots.get(memory_name)
        if slots is None:
            slots = _stream_slots(self.adg, memory_name)
            self._memory_slots[memory_name] = slots
        return slots

    # ------------------------------------------------------------------
    # Software-side views
    # ------------------------------------------------------------------
    def regions(self):
        return self.scope.regions

    def region(self, name):
        region = self._region_by_name.get(name)
        if region is None:
            region = self.scope.region(name)  # raises for unknown names
            self._region_by_name[name] = region
        return region

    def vertices(self, kinds=None):
        """All software vertices, optionally filtered by NodeKind set."""
        if self._all_vertices is None:
            nodes = {}
            for region in self.scope.regions:
                for node in region.dfg.nodes():
                    if node.kind is NodeKind.CONST:
                        continue  # constants are baked into PE config
                    nodes[Vertex(region.name, node.node_id)] = node
            self._vertex_nodes = nodes
            self._all_vertices = list(nodes)
        if kinds is None:
            return list(self._all_vertices)
        nodes = self._vertex_nodes
        return [v for v in self._all_vertices if nodes[v].kind in kinds]

    def num_vertices(self):
        if self._all_vertices is None:
            self.vertices()
        return len(self._all_vertices)

    def node_of(self, vertex):
        """The DFG node behind a vertex (a table lookup for the vertices
        of :meth:`vertices`)."""
        if self._vertex_nodes is None:
            self.vertices()
        node = self._vertex_nodes.get(vertex)
        if node is None:  # a constant, or not a vertex of this scope
            node = self.region(vertex.region).dfg.node(vertex.node_id)
        return node

    def edges(self):
        """All software dependence edges (cached, shared with clones)."""
        if self._edges is None:
            edges = []
            by_vertex = {}
            for region in self.scope.regions:
                dfg = region.dfg
                for src, dst, idx, lane in dfg.edges():
                    if dfg.node(src).kind is NodeKind.CONST:
                        continue  # no route needed: consts live in config
                    edge = Edge(region.name, src, dst, idx, lane)
                    edges.append(edge)
                    by_vertex.setdefault(edge.src, []).append(edge)
                    if edge.dst != edge.src:
                        by_vertex.setdefault(edge.dst, []).append(edge)
            self._edges = edges
            self._edges_by_vertex = by_vertex
        return self._edges

    def num_edges(self):
        return len(self.edges())

    def edges_of(self, vertex):
        """Edges touching a vertex (indexed, not a linear scan)."""
        if self._edges_by_vertex is None:
            self.edges()
        return list(self._edges_by_vertex.get(vertex, ()))

    # ------------------------------------------------------------------
    # Mapping operations: the only writers of the three mappings. Each
    # keeps the live counters and the timing seeds in step. The seed
    # update is written out in each (three lines: this is the hot path
    # of the search) instead of calling a helper.
    # ------------------------------------------------------------------
    def place(self, vertex, hw_name):
        """Place ``vertex`` on ``hw_name``, replacing its placement if it
        has one (its routes stay)."""
        if not self.adg.has_node(hw_name):
            raise SchedulingError(f"placement target {hw_name!r} not in ADG")
        self._place(vertex, hw_name)

    def _place(self, vertex, hw_name):
        """:meth:`place` without checking that ``hw_name`` exists."""
        old = self._placement.get(vertex)
        if old is not None:
            self._unplaced(vertex, old)
        self._placement[vertex] = hw_name
        node = self.node_of(vertex)
        if node.kind is NodeKind.INSTR:
            load = self._pe_load.get(hw_name, 0)
            if load >= self._capacity(hw_name):
                self._overuse_pe += 1
            self._pe_load[hw_name] = load + 1
            self._pe_issue_cost[hw_name] = (
                self._pe_issue_cost.get(hw_name, 0) + _issue_cost(node.op)
            )
        elif node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            load = self._port_load.get(hw_name, 0)
            if load:
                self._overuse_port += 1
            self._port_load[hw_name] = load + 1
        seeds = self._timing_seeds.get(vertex.region)
        if seeds is not None:  # None: stale everywhere already
            seeds.add(self._timing_plans[vertex.region].position[
                vertex.node_id])

    def remove_placement(self, vertex):
        """Drop the placement of ``vertex`` only: unlike :meth:`unplace`
        its routes and input delays stay (a candidate rollback)."""
        hw_name = self._placement.pop(vertex, None)
        if hw_name is not None:
            self._unplaced(vertex, hw_name)

    def _unplaced(self, vertex, hw_name):
        """Take the placement ``vertex -> hw_name`` out of the counters."""
        node = self.node_of(vertex)
        if node.kind is NodeKind.INSTR:
            if self._pe_load.get(hw_name, 0) > self._capacity(hw_name):
                self._overuse_pe -= 1
            self._decrement(self._pe_load, hw_name, 1)
            self._decrement(
                self._pe_issue_cost, hw_name, _issue_cost(node.op)
            )
        elif node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            if self._port_load.get(hw_name, 0) > 1:
                self._overuse_port -= 1
            self._decrement(self._port_load, hw_name, 1)
        seeds = self._timing_seeds.get(vertex.region)
        if seeds is not None:
            seeds.add(self._timing_plans[vertex.region].position[
                vertex.node_id])

    def unplace(self, vertex):
        """Remove a vertex's placement and every route touching it,
        with their input delays."""
        self.remove_placement(vertex)
        for edge in self.edges_of(vertex):
            self.remove_route(edge)
            if self.input_delays.pop(edge, None) is not None:
                # The consumer's delays must be written again, even when
                # nothing else about it changed (vertex already unplaced).
                seeds = self._timing_seeds.get(edge.region)
                if seeds is not None:
                    seeds.add(self._timing_plans[edge.region].position[
                        edge.dst_id])

    def set_route(self, edge, links):
        """Route ``edge`` over ``links``, replacing its route if it has
        one."""
        links = list(links)
        old = self._routes.get(edge)
        if old is not None:
            self._unrouted(edge, old)
        self._routes[edge] = links
        value = edge.value
        link_value_refs = self._link_value_refs
        widths = self._link_widths
        joined = 0  # links the value was not on yet
        for link_id in links:
            refs = link_value_refs.get(link_id)
            if refs is None:
                link_value_refs[link_id] = {value: 1}
                widths[1] = widths.get(1, 0) + 1
            elif value in refs:
                refs[value] += 1
                continue
            else:
                # The link widens by one value and joins the overuse.
                width = len(refs)
                refs[value] = 1
                self._overuse_link += 1
                if widths[width] == 1:
                    del widths[width]
                else:
                    widths[width] -= 1
                widths[width + 1] = widths.get(width + 1, 0) + 1
            joined += 1
        if joined:
            value_links = self._value_links
            value_links[value] = value_links.get(value, 0) + joined
        self._route_length += len(links)
        seeds = self._timing_seeds.get(edge.region)
        if seeds is not None:
            seeds.add(self._timing_plans[edge.region].position[edge.dst_id])

    def remove_route(self, edge):
        """Drop the route of ``edge`` (its input delay stays); returns its
        links, or None when it had no route."""
        links = self._routes.pop(edge, None)
        if links is not None:
            self._unrouted(edge, links)
        return links

    def _unrouted(self, edge, links):
        """Take the route ``edge -> links`` out of the counters."""
        value = edge.value
        link_value_refs = self._link_value_refs
        widths = self._link_widths
        left = 0  # links the value is no longer on
        for link_id in links:
            refs = link_value_refs.get(link_id)
            if refs is None or value not in refs:
                continue
            remaining = refs[value] - 1
            if remaining:
                refs[value] = remaining
                continue
            del refs[value]
            left += 1
            width = len(refs) + 1  # the link narrows from this width
            if widths[width] == 1:
                del widths[width]
            else:
                widths[width] -= 1
            if refs:
                widths[width - 1] = widths.get(width - 1, 0) + 1
                self._overuse_link -= 1  # leaves a still-occupied link
            else:
                del link_value_refs[link_id]
        if left:
            self._decrement(self._value_links, value, left)
        self._route_length -= len(links)
        seeds = self._timing_seeds.get(edge.region)
        if seeds is not None:
            seeds.add(self._timing_plans[edge.region].position[edge.dst_id])

    def bind_stream(self, region_name, port, memory_name):
        """Bind the stream of ``(region_name, port)`` to ``memory_name``,
        replacing its binding if it has one."""
        if not self.adg.has_node(memory_name):
            raise SchedulingError(f"memory {memory_name!r} not in ADG")
        self._bind_stream((region_name, port), memory_name)

    def _bind_stream(self, key, memory_name):
        """:meth:`bind_stream` without checking that the memory exists."""
        old = self._stream_binding.get(key)
        if old is not None:
            self._unbound(key, old)
        self._stream_binding[key] = memory_name
        keys = self._memory_streams.setdefault(memory_name, [])
        keys.append(key)
        if len(keys) > self._slots(memory_name):
            self._overuse_memory += 1

    def unbind_stream(self, region_name, port):
        """Drop the binding of the stream of ``(region_name, port)``."""
        key = (region_name, port)
        memory_name = self._stream_binding.pop(key, None)
        if memory_name is not None:
            self._unbound(key, memory_name)

    def _unbound(self, key, memory_name):
        """Take the binding ``key -> memory_name`` out of the counters."""
        keys = self._memory_streams.get(memory_name)
        if keys is None:
            return
        if len(keys) > self._slots(memory_name):
            self._overuse_memory -= 1
        keys.remove(key)
        if not keys:
            del self._memory_streams[memory_name]

    def clear(self):
        """Drop the whole mapping and reset the counters wholesale."""
        self._placement.clear()
        self._routes.clear()
        self._stream_binding.clear()
        self.input_delays.clear()
        self._pe_load.clear()
        self._port_load.clear()
        self._pe_issue_cost.clear()
        self._link_value_refs.clear()
        self._value_links.clear()
        self._link_widths.clear()
        self._memory_streams.clear()
        self._route_length = 0
        self._overuse_pe = self._overuse_port = self._overuse_link = 0
        self._overuse_memory = 0
        self._timing_seeds.clear()

    def load(self, placement, routes, stream_binding):
        """Replace the whole mapping with the given ones (input delays
        are dropped) and rebuild the counters from them.

        Targets are not checked against the ADG: an unpickled or a
        translated schedule may name hardware that the caller's next
        :func:`~repro.scheduler.repair.strip_invalid` removes.
        """
        STATS["load_rebuilds"] += 1
        self.clear()
        for vertex, hw_name in placement.items():
            self._place(vertex, hw_name)
        for edge, links in routes.items():
            self.set_route(edge, links)
        for key, memory_name in stream_binding.items():
            self._bind_stream(key, memory_name)

    def clone(self):
        twin = Schedule(self.scope, self.adg)
        # Copy the mappings and the live counters directly: adding every
        # entry through the mapping methods would redo O(schedule) work
        # on every accepted search iteration.
        twin._placement.update(self._placement)
        twin._routes.update(
            {edge: list(links) for edge, links in self._routes.items()}
        )
        twin._stream_binding.update(self._stream_binding)
        twin.input_delays = dict(self.input_delays)
        twin._pe_load = dict(self._pe_load)
        twin._port_load = dict(self._port_load)
        twin._pe_issue_cost = dict(self._pe_issue_cost)
        twin._link_value_refs = {
            link_id: dict(refs)
            for link_id, refs in self._link_value_refs.items()
        }
        twin._value_links = dict(self._value_links)
        twin._link_widths = dict(self._link_widths)
        twin._memory_streams = {
            memory: list(keys)
            for memory, keys in self._memory_streams.items()
        }
        twin._route_length = self._route_length
        twin._overuse_pe = self._overuse_pe
        twin._overuse_port = self._overuse_port
        twin._overuse_link = self._overuse_link
        twin._overuse_memory = self._overuse_memory
        twin._pe_capacity = self._pe_capacity  # same ADG: share
        twin._memory_slots = self._memory_slots
        twin._timing_cache = dict(self._timing_cache)
        twin._timing_seeds = {
            region: set(seeds)
            for region, seeds in self._timing_seeds.items()
        }
        # The DFG-derived views are immutable: share them with the twin.
        self.edges()
        twin._edges = self._edges
        twin._edges_by_vertex = self._edges_by_vertex
        twin._all_vertices = self._all_vertices
        twin._vertex_nodes = self._vertex_nodes
        twin._candidates = self._candidates  # same ADG: share
        twin._timing_plans = self._timing_plans
        return twin

    def rebind(self, adg):
        """Reattach the schedule to a (possibly edited) ADG clone."""
        self.adg = adg
        # Routed path latencies and component properties may differ on
        # the new hardware: every cached region timing is suspect.
        self._timing_seeds.clear()
        # So may PE capacities and memory stream slots (and a PE or a
        # memory may be gone, until the caller strips what used it):
        # recount PE and memory overuse.
        self._pe_capacity = {}
        self._candidates = {}
        self._overuse_pe = sum(
            max(0, load - self._capacity(hw_name))
            for hw_name, load in self._pe_load.items()
        )
        self._memory_slots = {}
        self._overuse_memory = sum(
            max(0, len(keys) - self._slots(memory_name))
            for memory_name, keys in self._memory_streams.items()
        )

    # ------------------------------------------------------------------
    # Pickling (warm schedules cross the DSE worker-process boundary)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "scope": self.scope,
            "adg": self.adg,
            "placement": dict(self._placement),
            "routes": {
                edge: list(links) for edge, links in self._routes.items()
            },
            "stream_binding": dict(self._stream_binding),
            "input_delays": dict(self.input_delays),
        }

    def __setstate__(self, state):
        self.__init__(state["scope"], state["adg"])
        self.load(state["placement"], state["routes"],
                  state["stream_binding"])
        self.input_delays = dict(state["input_delays"])

    # ------------------------------------------------------------------
    # Status queries
    # ------------------------------------------------------------------
    def unplaced_vertices(self):
        return [v for v in self.vertices() if v not in self._placement]

    def unrouted_edges(self):
        return [edge for edge in self.edges() if edge not in self._routes]

    # ------------------------------------------------------------------
    # Utilization (served from the live counters)
    # ------------------------------------------------------------------
    def pe_load(self):
        """PE name -> number of instructions mapped to it."""
        return dict(self._pe_load)

    def port_load(self):
        """Sync element name -> number of DFG ports mapped to it."""
        return dict(self._port_load)

    def link_load(self):
        """link_id -> number of *distinct values* routed through it.

        Fanout is free: several edges carrying the same (producer, lane)
        value share a link as one multicast copy.
        """
        return {
            link_id: len(refs)
            for link_id, refs in self._link_value_refs.items()
        }

    def link_values(self):
        """link_id -> set of value identities routed through it.

        Returns a fresh copy, which later mutations leave alone (the
        scheduler's shared routing trees are built over one). The
        router can also read ``_link_value_refs`` live: its inner dicts
        answer the same membership and length queries as these sets.
        """
        return {
            link_id: set(refs)
            for link_id, refs in self._link_value_refs.items()
        }

    def value_links(self):
        """value identity -> number of links carrying it. A value it
        lacks is on no link (the router's fast path relies on this)."""
        return dict(self._value_links)

    def link_widths(self):
        """k -> number of links carrying exactly k distinct values
        (k >= 1); the largest k is the link initiation interval."""
        return dict(self._link_widths)

    def memory_streams(self):
        """memory name -> list of (region, port) bound to it.

        Entry order within a memory is unspecified (it follows binding
        order, not the binding-dict order).
        """
        return {
            memory: list(keys)
            for memory, keys in self._memory_streams.items()
        }

    def pe_issue_cost(self):
        """PE name -> summed per-instance issue cost of its instructions
        (pipelined opcodes cost 1, unpipelined ones their latency)."""
        return dict(self._pe_issue_cost)

    def route_length(self):
        """Total number of links across all routes."""
        return self._route_length

    def overuse(self):
        """Live overuse totals: ``{"pe", "port", "link", "memory"}`` ->
        instructions beyond PE capacity, ports beyond one per sync
        element, values beyond one per link, streams beyond a memory's
        stream slots."""
        return {"pe": self._overuse_pe, "port": self._overuse_port,
                "link": self._overuse_link, "memory": self._overuse_memory}

    # ------------------------------------------------------------------
    # Region timing cache (used by repro.scheduler.timing)
    # ------------------------------------------------------------------
    def timing_plan(self, region_name):
        """The region's :class:`RegionPlan` (built once, shared by
        clones)."""
        if self._timing_plans is None:
            self._timing_plans = {
                region.name: RegionPlan(region)
                for region in self.scope.regions
            }
        return self._timing_plans[region_name]

    def cached_region_timing(self, region_name):
        """``(entry, seeds)``: the region's cached timing entry (None when
        there is none) and the set of positions mutated since it was
        stored (None when every position is stale). The caller must not
        modify the set."""
        return (self._timing_cache.get(region_name),
                self._timing_seeds.get(region_name))

    def store_region_timing(self, region_name, entry):
        """Cache ``entry`` as the region's timing for the current state."""
        self.timing_plan(region_name)  # the mapping methods read the plans
        self._timing_cache[region_name] = entry
        self._timing_seeds[region_name] = set()

    # ------------------------------------------------------------------
    # From-scratch oracles (property-test ground truth for the counters)
    # ------------------------------------------------------------------
    def _recompute_pe_load(self):
        load = {}
        for vertex, hw_name in self._placement.items():
            if self.node_of(vertex).kind is NodeKind.INSTR:
                load[hw_name] = load.get(hw_name, 0) + 1
        return load

    def _recompute_port_load(self):
        load = {}
        for vertex, hw_name in self._placement.items():
            if self.node_of(vertex).kind in (NodeKind.INPUT,
                                             NodeKind.OUTPUT):
                load[hw_name] = load.get(hw_name, 0) + 1
        return load

    def _recompute_pe_issue_cost(self):
        cost = {}
        for vertex, hw_name in self._placement.items():
            node = self.node_of(vertex)
            if node.kind is NodeKind.INSTR:
                cost[hw_name] = cost.get(hw_name, 0) + _issue_cost(node.op)
        return cost

    def _recompute_link_values(self):
        values = {}
        for edge, links in self._routes.items():
            for link_id in links:
                values.setdefault(link_id, set()).add(edge.value)
        return values

    def _recompute_memory_streams(self):
        result = {}
        for key, memory_name in self._stream_binding.items():
            result.setdefault(memory_name, []).append(key)
        return result

    def _recompute_route_length(self):
        return sum(len(links) for links in self._routes.values())

    def _recompute_value_links(self):
        counts = {}
        for values in self._recompute_link_values().values():
            for value in values:
                counts[value] = counts.get(value, 0) + 1
        return counts

    def _recompute_link_widths(self):
        widths = {}
        for values in self._recompute_link_values().values():
            widths[len(values)] = widths.get(len(values), 0) + 1
        return widths

    def _recompute_memory_overuse(self):
        return sum(
            max(0, len(keys) - _stream_slots(self.adg, memory_name))
            for memory_name, keys in self._recompute_memory_streams().items()
        )

    def _recompute_overuse(self):
        port_load = self._recompute_port_load()
        link_values = self._recompute_link_values()
        return {
            "pe": sum(
                max(0, load - _instruction_capacity(self.adg, hw_name))
                for hw_name, load in self._recompute_pe_load().items()
            ),
            "port": sum(port_load.values()) - len(port_load),
            "link": sum(map(len, link_values.values())) - len(link_values),
            "memory": self._recompute_memory_overuse(),
        }

    # ------------------------------------------------------------------
    # Legality helpers (composition rules of Section III-B)
    # ------------------------------------------------------------------
    def placement_legal(self, vertex, hw_name):
        """Is ``hw_name`` an acceptable placement target for ``vertex``?

        Checks capability only; execution-model flow rules are costed in
        the objective so the search can pass through illegal states.
        """
        node = self.node_of(vertex)
        hw = self.adg.node(hw_name)
        if node.kind is NodeKind.INSTR:
            if not isinstance(hw, ProcessingElement):
                return False
            if not hw.supports_op(node.op):
                return False
            if node.op == "sjoin" and not hw.is_dynamic:
                return False
            region = self.region(vertex.region)
            if (
                region.join_spec is not None
                and not region.metadata.get("serial_join", False)
                and not hw.is_dynamic
            ):
                # Transformed stream-join regions consume operands
                # data-dependently; only dynamic PEs support that
                # (Section IV-E). The serialized fallback maps anywhere.
                return False
            return True
        if node.kind is NodeKind.INPUT:
            if not isinstance(hw, SyncElement):
                return False
            if hw.direction is not Direction.INPUT:
                return False
            return hw.lanes64 >= node.lanes
        if node.kind is NodeKind.OUTPUT:
            if not isinstance(hw, SyncElement):
                return False
            if hw.direction is not Direction.OUTPUT:
                return False
            return hw.lanes64 >= len(node.operands)
        return False

    def candidates_for(self, vertex):
        """All legal hardware targets for a vertex, as a new list (found
        once per vertex until :meth:`rebind`)."""
        names = self._candidates.get(vertex)
        if names is None:
            if self.node_of(vertex).kind is NodeKind.INSTR:
                pool = self.adg.pes()
            else:
                pool = self.adg.sync_elements()
            names = self._candidates[vertex] = tuple(
                hw.name for hw in pool
                if self.placement_legal(vertex, hw.name)
            )
        return list(names)

    def capacity_deficit(self):
        """Why no legal mapping of the scope can exist, or None.

        Two maximum matchings: instruction vertices to PE instruction
        slots (:meth:`candidates_for` targets, :meth:`_capacity` slots
        each), and port vertices to sync elements (one slot each: every
        port beyond one per sync element counts as port overuse). A
        legal mapping places every vertex on a candidate with no PE or
        port overuse, so it would be a full matching of both; a
        deficient one, e.g. ``"20 of 32 instructions, 0 of 8 ports
        matched"``, proves there is none.
        """
        instrs, ports = [], []
        for vertex in self.vertices():
            if self.node_of(vertex).kind is NodeKind.INSTR:
                instrs.append(self.candidates_for(vertex))
            else:
                ports.append(self.candidates_for(vertex))
        placed_instrs = _max_assignment(instrs, self._capacity)
        placed_ports = _max_assignment(ports, lambda name: 1)
        if placed_instrs == len(instrs) and placed_ports == len(ports):
            return None
        return (f"{placed_instrs} of {len(instrs)} instructions, "
                f"{placed_ports} of {len(ports)} ports matched")

    def summary(self):
        return {
            "placed": len(self._placement),
            "vertices": self.num_vertices(),
            "routed": len(self._routes),
            "edges": self.num_edges(),
            "streams_bound": len(self._stream_binding),
        }
