"""The :class:`Adg` container: nodes, links, editing, feature queries.

The graph is the single hardware artifact every subsystem consumes: the
scheduler places dataflow onto it, the estimator costs it, the DSE mutates
it, and the hardware generator emits RTL from it.
"""

import copy
from dataclasses import dataclass

from repro.adg.components import (
    Component,
    ControlCore,
    DelayFifo,
    Direction,
    Memory,
    MemoryKind,
    ProcessingElement,
    Switch,
    SyncElement,
)
from repro.errors import AdgError
from repro.utils.ids import IdAllocator


@dataclass(frozen=True)
class Link:
    """A directed point-to-point connection between two components.

    ``width`` is the wire width in bits; it may be narrower than either
    endpoint's datapath (the switch connectivity matrix allows mixed-width
    connections, Section III-A "Switches").
    """

    link_id: int
    src: str
    dst: str
    width: int

    def __str__(self):
        return f"{self.src}->{self.dst}[{self.width}b]"


class Adg:
    """An architecture description graph.

    Nodes are :class:`~repro.adg.components.Component` instances keyed by
    name; edges are :class:`Link` objects. Multiple parallel links between
    the same pair of nodes are allowed (they are distinct wires).
    """

    def __init__(self, name="adg"):
        self.name = name
        self._nodes = {}
        self._links = {}
        self._out = {}   # node name -> set of link ids
        self._in = {}    # node name -> set of link ids
        self._ids = IdAllocator()
        self._next_link_id = 0

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add(self, component):
        """Add a component; returns it for chaining."""
        if not isinstance(component, Component):
            raise AdgError(f"not a component: {component!r}")
        if component.name in self._nodes:
            raise AdgError(f"duplicate node name {component.name!r}")
        component.check()
        self._nodes[component.name] = component
        self._out[component.name] = set()
        self._in[component.name] = set()
        self._ids.reserve(component.name)
        return component

    def new_name(self, prefix):
        """Allocate a fresh node name with the given prefix."""
        name = self._ids.allocate(prefix)
        while name in self._nodes:
            name = self._ids.allocate(prefix)
        return name

    def remove(self, name):
        """Remove a node and every link touching it."""
        if name not in self._nodes:
            raise AdgError(f"no such node {name!r}")
        for link_id in list(self._out[name] | self._in[name]):
            self.remove_link(link_id)
        del self._nodes[name]
        del self._out[name]
        del self._in[name]

    def node(self, name):
        """Look up a component by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise AdgError(f"no such node {name!r}") from None

    def has_node(self, name):
        return name in self._nodes

    def nodes(self, kind=None):
        """All components, optionally filtered by class."""
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if isinstance(n, kind)]

    def node_names(self):
        return list(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def __contains__(self, name):
        return name in self._nodes

    # Typed accessors -----------------------------------------------------
    def pes(self):
        return self.nodes(ProcessingElement)

    def switches(self):
        return self.nodes(Switch)

    def memories(self):
        return self.nodes(Memory)

    def sync_elements(self, direction=None):
        elements = self.nodes(SyncElement)
        if direction is None:
            return elements
        return [e for e in elements if e.direction is direction]

    def input_ports(self):
        return self.sync_elements(Direction.INPUT)

    def output_ports(self):
        return self.sync_elements(Direction.OUTPUT)

    def delay_fifos(self):
        return self.nodes(DelayFifo)

    def control_core(self):
        """The (single) control core, or None."""
        cores = self.nodes(ControlCore)
        if len(cores) > 1:
            raise AdgError("ADG models a single control core (Section III-C)")
        return cores[0] if cores else None

    def scratchpad(self):
        """The scratchpad memory, or None."""
        spads = [m for m in self.memories() if m.kind is MemoryKind.SPAD]
        return spads[0] if spads else None

    def dma(self):
        """The DMA / L2 interface memory, or None."""
        dmas = [m for m in self.memories() if m.kind is MemoryKind.DMA]
        return dmas[0] if dmas else None

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------
    def connect(self, src, dst, width=None):
        """Add a directed link; returns the :class:`Link`.

        ``width`` defaults to the narrower of the two endpoint widths.
        """
        src_name = src.name if isinstance(src, Component) else src
        dst_name = dst.name if isinstance(dst, Component) else dst
        if src_name not in self._nodes:
            raise AdgError(f"link source {src_name!r} not in graph")
        if dst_name not in self._nodes:
            raise AdgError(f"link destination {dst_name!r} not in graph")
        if src_name == dst_name:
            raise AdgError(f"self-link on {src_name!r}")
        if width is None:
            width = min(self._nodes[src_name].width, self._nodes[dst_name].width)
        link = Link(self._next_link_id, src_name, dst_name, width)
        self._next_link_id += 1
        self._links[link.link_id] = link
        self._out[src_name].add(link.link_id)
        self._in[dst_name].add(link.link_id)
        return link

    def connect_bidir(self, a, b, width=None):
        """Add links in both directions; returns the pair."""
        return self.connect(a, b, width), self.connect(b, a, width)

    def remove_link(self, link_id):
        link = self._links.pop(link_id, None)
        if link is None:
            raise AdgError(f"no such link id {link_id}")
        self._out[link.src].discard(link_id)
        self._in[link.dst].discard(link_id)

    def link(self, link_id):
        try:
            return self._links[link_id]
        except KeyError:
            raise AdgError(f"no such link id {link_id}") from None

    def links(self):
        return list(self._links.values())

    def out_links(self, name):
        """Links leaving ``name``, sorted by id for determinism."""
        return [self._links[i] for i in sorted(self._out[name])]

    def in_links(self, name):
        return [self._links[i] for i in sorted(self._in[name])]

    def successors(self, name):
        """Distinct successor node names."""
        return sorted({self._links[i].dst for i in self._out[name]})

    def links_between(self, src, dst):
        return [
            self._links[i] for i in sorted(self._out[src])
            if self._links[i].dst == dst
        ]

    def degree(self, name):
        return len(self._out[name]) + len(self._in[name])

    # ------------------------------------------------------------------
    # Whole-graph operations
    # ------------------------------------------------------------------
    def clone(self):
        """Independent copy of the entire graph (used per DSE candidate).

        Structural rather than a deep copy: each component is copied
        shallowly with a fresh ``op_names`` set, its only mutable field;
        the frozen :class:`Link` objects are shared; the adjacency sets
        and the name allocator's counters are copied. Editing either
        graph, or a component of either, leaves the other unchanged.
        """
        twin = Adg(self.name)
        for name, component in self._nodes.items():
            duplicate = copy.copy(component)
            if isinstance(component, ProcessingElement):
                duplicate.op_names = set(component.op_names)
            twin._nodes[name] = duplicate
        twin._links = dict(self._links)
        twin._out = {name: set(ids) for name, ids in self._out.items()}
        twin._in = {name: set(ids) for name, ids in self._in.items()}
        twin._ids = self._ids.copy()
        twin._next_link_id = self._next_link_id
        return twin

    def stats(self):
        """Summary counts used in logs and reports."""
        return {
            "nodes": len(self._nodes),
            "links": len(self._links),
            "pes": len(self.pes()),
            "switches": len(self.switches()),
            "memories": len(self.memories()),
            "sync_in": len(self.input_ports()),
            "sync_out": len(self.output_ports()),
            "delay_fifos": len(self.delay_fifos()),
        }

    # ------------------------------------------------------------------
    # Hardware-feature queries (drive modular compilation, Section IV-C)
    # ------------------------------------------------------------------
    def has_dynamic_pes(self):
        return any(pe.is_dynamic for pe in self.pes())

    def has_shared_pes(self):
        return any(pe.is_shared for pe in self.pes())

    def has_indirect_memory(self):
        return any(m.indirect for m in self.memories())

    def has_atomic_update(self):
        return any(m.atomic_update for m in self.memories())

    def has_stream_join(self):
        """Stream-join needs dynamic PEs with the sjoin opcode."""
        return any(
            pe.is_dynamic and "sjoin" in pe.op_names for pe in self.pes()
        )

    def supported_ops(self):
        """Union of opcodes across all PEs."""
        ops = set()
        for pe in self.pes():
            ops |= set(pe.op_names)
        return ops

    def feature_set(self):
        """Feature flags consumed by the modular compiler."""
        from repro.adg.features import FeatureSet

        return FeatureSet.from_adg(self)

    def __repr__(self):
        s = self.stats()
        return (
            f"Adg({self.name!r}, pes={s['pes']}, switches={s['switches']}, "
            f"memories={s['memories']}, links={s['links']})"
        )
