"""Congestion-aware shortest-path routing over the ADG network.

"Route this instruction's operands and dependences to the network using
Dijkstra's algorithm" (Algorithm 1). :class:`RoutingGraph` fetches its
adjacency on first use from tables shared by every graph of a
structurally equal fabric (:func:`fabric_signature`), so each compile on
a fabric already seen pays only for the search; :meth:`route` finds a
cheapest path whose interior traverses only switches and delay FIFOs,
with link costs inflated by current congestion so the stochastic search
negotiates away overuse (in the spirit of PathFinder [51]). :meth:`tree`
runs the same search from one source to every node, so several routes
out of one source under one congestion view share it.

Congestion only raises link costs, and a value already on some link is
the only thing that lowers one (multicast fanout). So when the routed
value is on no link and the shortest path of the empty fabric is still
unoccupied, that path is the answer: it keeps its cost, every other path
costs at least its empty-fabric cost, and each node on it keeps the
first minimal predecessor it had in the same ``(cost, name)`` pop order.
:meth:`route` returns it from the fabric's cache without a search when
the caller passes the value -> link-count index that proves the first
condition, tracing it from one empty-fabric :meth:`tree` per source.
"""

import heapq
from collections import OrderedDict

from repro.adg.components import DelayFifo, Switch

#: Fabrics whose routing tables are kept (least recently used dropped).
SHARED_FABRICS = 8
# fabric_signature(adg) -> _FabricTables, most recently used last: one
# cache per process, as compiles build their graphs internally (a
# process runs one compile at a time; the server's is a serial thread).
_SHARED_TABLES = OrderedDict()


def fabric_signature(adg):
    """Everything the routing tables read from ``adg``, in build order.

    Node names in :meth:`Adg.node_names` order, each with its component
    class and, for switches, its latency; then ``(link_id, src, dst)``
    per link in :meth:`Adg.links` order. Order is part of the key:
    adjacency order breaks equal-cost ties. Any topology edit, or a
    switch latency change, gives a new signature; edits the router does
    not read (delay-FIFO depths, PE ops, link widths) do not.
    """
    nodes = []
    for name in adg.node_names():
        node = adg.node(name)
        nodes.append((name, type(node),
                      node.latency if isinstance(node, Switch) else None))
    links = tuple((link.link_id, link.src, link.dst) for link in adg.links())
    return tuple(nodes), links


class _FabricTables:
    """The routing tables of one fabric signature, built from the
    signature alone so they cannot depend on anything it leaves out.

    ``adjacency`` maps each node name to its ``(link_id, dst, LINK_COST
    + hop latency)`` entries; ``passable`` holds the switches and delay
    FIFOs; ``forward``/``terminal`` split the entries for
    :meth:`RoutingGraph.route` — those into passable nodes by source
    node, the rest by destination node, then by source node.
    ``free_trees`` (src -> empty-fabric :meth:`RoutingGraph.tree`) and
    ``hop_tables`` (src -> BFS hop table) fill on first use.
    """

    __slots__ = ("adjacency", "passable", "forward", "terminal",
                 "free_trees", "hop_tables")

    def __init__(self, signature):
        nodes, links = signature
        link_cost = RoutingGraph.LINK_COST
        latency = {}
        passable = set()
        for name, kind, switch_latency in nodes:
            latency[name] = 1 if switch_latency is None else switch_latency
            if issubclass(kind, (Switch, DelayFifo)):
                passable.add(name)
        adjacency = {name: [] for name, _kind, _latency in nodes}
        for link_id, src, dst in links:
            adjacency[src].append((link_id, dst, link_cost + latency[dst]))
        self.adjacency = adjacency
        self.passable = passable = frozenset(passable)
        self.forward = {}
        self.terminal = {}
        for name, entries in adjacency.items():
            self.forward[name] = [
                entry for entry in entries if entry[1] in passable
            ]
            for entry in entries:
                if entry[1] not in passable:
                    self.terminal.setdefault(entry[1], {}).setdefault(
                        name, []).append(entry)
        self.free_trees = {}
        self.hop_tables = {}


def _fabric_tables(adg):
    """The shared tables for ``adg``'s signature, built on a miss."""
    signature = fabric_signature(adg)
    tables = _SHARED_TABLES.get(signature)
    if tables is None:
        tables = _SHARED_TABLES[signature] = _FabricTables(signature)
        if len(_SHARED_TABLES) > SHARED_FABRICS:
            _SHARED_TABLES.popitem(last=False)
    else:
        _SHARED_TABLES.move_to_end(signature)
    return tables


class RoutingGraph:
    """Routing view of an ADG.

    Rebuild after any topology edit (the repair pass does this). The
    routing tables are looked up by :func:`fabric_signature` on first
    routing use and shared by every graph of a structurally equal
    fabric; the link latencies of :meth:`path_latency` and
    :attr:`fast_hits` stay per graph.
    """

    #: Cost of traversing one link.
    LINK_COST = 1.0
    #: Extra cost per already-routed edge sharing a link. Must exceed the
    #: cost of several detour hops or Dijkstra will happily share links
    #: the objective then counts as overuse (PathFinder prices congestion
    #: high for the same reason).
    CONGESTION_COST = 12.0

    def __init__(self, adg):
        self.adg = adg
        self._links = {link.link_id: link for link in adg.links()}
        # The shared tables only serve routing queries (``route``/
        # ``tree``/``hops``) and are fetched on first use, and per-link
        # path latencies are filled as links are first timed, so
        # timing-only consumers — the simulator builds a RoutingGraph per
        # replay just for ``path_latency`` — pay the link dict and
        # nothing else, not even the signature.
        self._tables = None
        self._link_latency = {}  # link_id -> pipeline cycles it adds
        #: Routes answered from the empty-fabric cache, without a search.
        self.fast_hits = 0

    def link(self, link_id):
        return self._links[link_id]

    def tables(self):
        """This graph's (shared) :class:`_FabricTables`."""
        if self._tables is None:
            self._tables = _fabric_tables(self.adg)
        return self._tables

    def route(self, src, dst, link_values=None, value=None,
              value_links=None):
        """Cheapest path from hardware node ``src`` to ``dst``.

        Returns a list of link ids, or None when unreachable. Interior
        nodes must be switches or delay FIFOs; ``src``/``dst`` may be any
        component.

        ``link_values`` maps link ids to the set of value identities
        already routed through them; ``value`` is the identity this route
        will carry. Links already carrying the *same* value are nearly
        free (multicast fanout reuses the wire); links carrying other
        values are congestion-priced.

        ``value_links``, when given, maps each value identity on a link
        of ``link_values`` to a (positive) count of such links. When
        ``value`` is not in it and the empty-fabric path is unoccupied,
        that path is returned without a search (see the module
        docstring); the result is the same either way.
        """
        if src == dst:
            return []
        tables = self._tables or self.tables()
        if value_links is not None and value not in value_links:
            # The empty-fabric route, traced from one tree per source.
            free = tables.free_trees.get(src)
            if free is None:
                free = tables.free_trees[src] = self.tree(src)
            path = self.trace(free, dst)
            if path is None or not link_values \
                    or not any(map(link_values.get, path)):
                self.fast_hits += 1
                return path
        # Only switches and delay FIFOs forward traffic, so any other
        # neighbour but ``dst`` is a dead end: the search only relaxes
        # the entries into passable nodes and those into ``dst``. Heap
        # order is total on (cost, name), so leaving the dead ends out
        # does not change the order the remaining ones pop in.
        forward = tables.forward
        into_dst = {}
        if dst not in tables.passable:
            into_dst = tables.terminal.get(dst, into_dst)
        link_values = link_values or {}
        congestion = self.CONGESTION_COST
        heappush, heappop = heapq.heappush, heapq.heappop
        unreached = float("inf")
        best = {src: 0.0}
        parent = {}
        heap = [(0.0, src)]
        visited = set()
        while heap:
            cost, name = heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            if name == dst:
                break
            entries = forward[name]
            if name in into_dst:
                entries = entries + into_dst[name]
            for link_id, neighbor, base_step in entries:
                occupants = link_values.get(link_id)
                if not occupants:
                    step = base_step
                elif value is not None and value in occupants:
                    # Fanout reuse: the wire already carries this value.
                    step = 0.1
                else:
                    step = base_step + congestion * len(occupants)
                candidate = cost + step
                if candidate < best.get(neighbor, unreached):
                    best[neighbor] = candidate
                    parent[neighbor] = (name, link_id)
                    heappush(heap, (candidate, neighbor))
        return self.trace((src, parent), dst)

    def tree(self, src, link_values=None, value=None):
        """The search of :meth:`route` from ``src`` run to every node:
        ``trace(tree(src, L, v), dst) == route(src, dst, L, v)`` for any
        ``dst``.

        Same step costs, same strict-improvement relaxation and the same
        ``(cost, name)`` pop order; only ``src`` and passable nodes are
        expanded. Other nodes get a parent but are never pushed — a
        route to one stops when it pops, and no later relaxation can
        lower its cost, so its parent is already final. Returns
        ``(src, parent)``; the result keeps no reference to
        ``link_values``.
        """
        tables = self._tables or self.tables()
        adjacency, passable = tables.adjacency, tables.passable
        link_values = link_values or {}
        congestion = self.CONGESTION_COST
        heappush, heappop = heapq.heappush, heapq.heappop
        unreached = float("inf")
        best = {src: 0.0}
        parent = {}
        heap = [(0.0, src)]
        visited = set()
        while heap:
            cost, name = heappop(heap)
            if name in visited:
                continue
            visited.add(name)
            for link_id, neighbor, base_step in adjacency[name]:
                occupants = link_values.get(link_id)
                if not occupants:
                    step = base_step
                elif value is not None and value in occupants:
                    step = 0.1
                else:
                    step = base_step + congestion * len(occupants)
                candidate = cost + step
                if candidate < best.get(neighbor, unreached):
                    best[neighbor] = candidate
                    parent[neighbor] = (name, link_id)
                    if neighbor in passable:
                        heappush(heap, (candidate, neighbor))
        return src, parent

    @staticmethod
    def trace(tree, dst):
        """The path to ``dst`` in a :meth:`tree` (or :meth:`route`) parent
        map, as a list of link ids; None when unreachable."""
        src, parent = tree
        if dst == src:
            return []
        if dst not in parent:
            return None
        path = []
        name = dst
        while name != src:
            previous, link_id = parent[name]
            path.append(link_id)
            name = previous
        path.reverse()
        return path

    def path_latency(self, links):
        """Pipeline latency of a routed path (flopped switches add a cycle
        each; the final hop into the consumer is combinational)."""
        table = self._link_latency
        latency = 0
        for link_id in links:
            hop = table.get(link_id)
            if hop is None:
                hop = table[link_id] = self._hop_latency(link_id)
            latency += hop
        return latency

    def _hop_latency(self, link_id):
        dst = self.adg.node(self._links[link_id].dst)
        if isinstance(dst, Switch):
            return dst.latency
        if isinstance(dst, DelayFifo):
            return 1
        return 0

    def hops(self, src, dst):
        """Congestion-free hop distance; inf when unreachable (interior
        hops through switches and delay FIFOs only). The BFS table from
        ``src`` is filled on first use and shared with the fabric's
        other graphs. Used to bias placement toward nearby tiles."""
        tables = self._tables or self.tables()
        table = tables.hop_tables.get(src)
        if table is None:
            table = tables.hop_tables[src] = _bfs_hops(tables, src)
        return table.get(dst, float("inf"))


def _bfs_hops(tables, src):
    """BFS hop table from ``src`` over a fabric's tables."""
    adjacency, passable = tables.adjacency, tables.passable
    table = {src: 0}
    frontier = [src]
    while frontier:
        next_frontier = []
        for name in frontier:
            if name != src and name not in passable:
                continue
            for _link_id, neighbor, _step in adjacency[name]:
                if neighbor not in table:
                    table[neighbor] = table[name] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return table
