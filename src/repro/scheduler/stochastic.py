"""The iterative stochastic spatial scheduler (Algorithm 1).

Each iteration unmaps one or more mapped instructions (or streams), then
for each candidate PE (or memory) routes the dependences with Dijkstra,
recomputes timing, evaluates the objective, and commits the best target.
Candidates that provably cannot beat the best one so far are dropped
before that work is finished (:func:`candidate_lower_bound`), so the
committed target is the one an exhaustive evaluation would pick.
The search stops when the mapping is legal and the objective has been
stable for ``patience`` iterations, or after ``max_iters``.

Repair (Section V-A) falls out naturally: passing a partially valid
schedule as the starting point resumes the same loop.
"""

from repro.adg.components import ProcessingElement
from repro.errors import UnmappableError
from repro.ir.dfg import NodeKind
from repro.ir.region import as_stream_list
from repro.ir.stream import (
    ConstStream,
    IndirectStream,
    RecurrenceStream,
    UpdateStream,
)
from repro.scheduler.objective import ScheduleCost, evaluate_schedule
from repro.scheduler.router import RoutingGraph
from repro.scheduler.schedule import STATS as SCHEDULE_STATS
from repro.scheduler.schedule import Schedule
from repro.scheduler.timing import compute_timing
from repro.utils.rng import DeterministicRng
from repro.utils.telemetry import Telemetry


def candidate_lower_bound(sched, pending):
    """A lower bound on the objective scalar of ``sched`` after up to
    ``pending`` more routes are added and its timing is computed.

    It equals ``resource_cost(sched, pending).scalar()``, read straight
    from the live counters: the same float expression as
    :meth:`ScheduleCost.scalar` without the timing terms, which are zero
    there and adding 0.0 changes no float. Those terms are never
    negative and float addition is monotone, so the bound never exceeds
    the scalar :func:`evaluate_schedule` would return.
    """
    return (
        ScheduleCost.W_INCOMPLETE * (
            sched.num_vertices() - len(sched._placement)
            + (sched.num_edges() - len(sched._routes) - pending)
        )
        + ScheduleCost.W_OVERUSE * (
            sched._overuse_pe + sched._overuse_port
            + sched._overuse_link + sched._overuse_memory
        )
        + ScheduleCost.W_ROUTE * sched._route_length
    )


def _route_live(routing, sched, src, dst, value):
    """:meth:`RoutingGraph.route` under the live congestion of
    ``sched``, with its value index enabling the exact fast path."""
    return routing.route(src, dst, sched._link_value_refs, value,
                         sched._value_links)


class SpatialScheduler:
    """Stochastic search with solution repair.

    Parameters
    ----------
    adg:
        Target hardware.
    rng:
        Randomness source (deterministic by default).
    max_iters:
        Iteration budget per :meth:`schedule` call (the paper uses 200
        during DSE).
    patience:
        Stop once legal and stable for this many iterations.
    max_candidates:
        Candidate targets sampled per move (bounds per-iteration work).
    telemetry:
        Optional :class:`repro.utils.telemetry.Telemetry`; the scheduler
        counts evaluations, candidates pruned by the cost bound, routes
        served from shared Dijkstra trees, timing cache hits/recomputes,
        move outcomes and from-scratch state rebuilds, and times its
        phases under ``sched/*``. Defaults to a disabled (no-op)
        instance.
    """

    def __init__(self, adg, rng=None, max_iters=200, patience=25,
                 max_candidates=10, telemetry=None):
        self.adg = adg
        self.routing = RoutingGraph(adg)
        self.rng = rng or DeterministicRng(0)
        self.max_iters = max_iters
        self.patience = patience
        self.max_candidates = max_candidates
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(enabled=False)
        )
        # Set per search iteration: consider every candidate, not a sample.
        self._thorough = False
        # PE name -> (is_dynamic, is_shared) for the victim pool's
        # flow-violation scan (see _flow_flags); reset per schedule().
        self._pe_flags = None

    def _evaluate(self, sched):
        return evaluate_schedule(
            sched, self.routing, telemetry=self.telemetry
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def schedule(self, scope, initial=None):
        """Map ``scope`` onto the ADG.

        Returns ``(schedule, cost)`` with the best mapping found; the cost
        may be illegal when the search found no legal mapping — callers
        check ``cost.is_legal``. Raises :class:`UnmappableError`, before
        any random draw, when a stream has no capable memory or when a
        cold start (no ``initial``) has no capacity assignment at all
        (:meth:`Schedule.capacity_deficit`).
        """
        telemetry = self.telemetry
        rebuilds_before = SCHEDULE_STATS["load_rebuilds"]
        fast_hits_before = self.routing.fast_hits
        sched = initial if initial is not None else Schedule(scope, self.adg)
        self._pe_flags = None
        if initial is not None and sched.adg is not self.adg:
            sched.rebind(self.adg)
        self._region_rates = self._compute_region_rates(scope)
        self._bind_streams(sched)
        if initial is None:
            self._refute(sched)
        with telemetry.timer("sched/greedy_place"):
            self._greedy_place(sched)
        with telemetry.timer("sched/route_all"):
            self._route_all(sched)
        best = sched.clone()
        best_cost = self._evaluate(best)
        stable = 0
        self.last_iterations = 0
        with telemetry.timer("sched/search"):
            for _ in range(self.max_iters):
                if best_cost.is_legal and stable >= self.patience:
                    break
                self.last_iterations += 1
                telemetry.incr("sched_iterations")
                if not best_cost.is_legal and stable and stable % 12 == 0:
                    # Stalled with congestion: rip up every route and
                    # rebuild in randomized order under congestion pricing.
                    telemetry.incr("sched_global_reroutes")
                    self._global_reroute(sched)
                # Near a solution but stalled: stop sampling, consider
                # every candidate (small fabrics afford exhaustive moves).
                self._thorough = (
                    not best_cost.is_legal and stable >= 8
                )
                improved = self._iterate(sched)
                cost = self._evaluate(sched)
                if cost.scalar() < best_cost.scalar():
                    best = sched.clone()
                    best_cost = cost
                    stable = 0
                else:
                    stable += 1
                if not improved and not best_cost.is_legal:
                    # No move available at all: perturb by unmapping a
                    # random placed vertex to escape.
                    placed = [
                        v for v in sched.vertices() if v in sched.placement
                    ]
                    if placed:
                        telemetry.incr("sched_escapes")
                        sched.unplace(self.rng.choice(placed))
        telemetry.incr("sched_runs")
        rebuilt = SCHEDULE_STATS["load_rebuilds"] - rebuilds_before
        if rebuilt:
            telemetry.incr("sched_load_rebuilds", rebuilt)
        fast_hits = self.routing.fast_hits - fast_hits_before
        if fast_hits:
            telemetry.incr("sched_route_fast_hits", fast_hits)
        return best, best_cost

    def _refute(self, sched):
        """Raise :class:`UnmappableError` when no capacity assignment
        of ``sched``'s scope exists. A cold search places vertices only
        on :meth:`Schedule.candidates_for` targets (port candidates are
        a subset of them and swaps check ``placement_legal``), so such a
        scope ends with unplaced vertices or PE or port overuse."""
        with self.telemetry.timer("sched/refute"):
            deficit = sched.capacity_deficit()
        if deficit is not None:
            self.telemetry.incr("sched_unmappable")
            raise UnmappableError(f"unmappable: {deficit}")

    # ------------------------------------------------------------------
    # Stream binding (responsibility 1 for streams)
    # ------------------------------------------------------------------
    def _bind_streams(self, sched):
        """Bind every memory-touching stream to a memory node.

        The compiler records per-array placement in
        ``region.metadata['array_memory']`` ('spad' or 'dma'); arrays
        default to the DMA/L2 interface. Streams needing the indirect
        controller or atomic update only bind to capable memories.
        """
        spad = self.adg.scratchpad()
        dma = self.adg.dma()
        for region in sched.regions():
            placement = region.metadata.get("array_memory", {})
            bindings = list(region.input_streams.items()) + list(
                region.output_streams.items()
            )
            for port, binding in bindings:
                for stream in as_stream_list(binding):
                    if isinstance(stream, (ConstStream, RecurrenceStream)):
                        continue
                    memory = self._memory_for(
                        stream, placement.get(stream.array, "dma"),
                        spad, dma,
                    )
                    if memory is None:
                        raise UnmappableError(
                            "no memory can execute stream on "
                            f"{region.name}:{port} (array {stream.array!r})"
                        )
                    sched.bind_stream(region.name, port, memory.name)

    def _memory_for(self, stream, preferred, spad, dma):
        candidates = []
        if preferred == "spad" and spad is not None:
            candidates = [spad, dma]
        else:
            candidates = [dma, spad]
        scalarized = getattr(stream, "scalarized", False)
        for memory in candidates:
            if memory is None:
                continue
            if not scalarized:
                if isinstance(stream, UpdateStream):
                    if not (memory.indirect and memory.atomic_update):
                        continue
                elif isinstance(stream, IndirectStream):
                    if not memory.indirect:
                        continue
            return memory
        return None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _greedy_place(self, sched):
        """Initial placement: ports first (they are scarce), then
        instructions near their operands."""
        for vertex in sched.unplaced_vertices():
            node = sched.node_of(vertex)
            if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
                self._place_best(sched, vertex)
        for vertex in sched.unplaced_vertices():
            self._place_best(sched, vertex)

    def _port_candidates(self, sched, vertex):
        """Sync-element candidates respecting memory connectivity."""
        node = sched.node_of(vertex)
        candidates = sched.candidates_for(vertex)
        memory_name = sched.stream_binding.get((vertex.region, node.name))
        if memory_name is None:
            return candidates
        filtered = []
        for name in candidates:
            if node.kind is NodeKind.INPUT:
                connected = any(
                    link.src == memory_name
                    for link in sched.adg.in_links(name)
                )
            else:
                connected = any(
                    link.dst == memory_name
                    for link in sched.adg.out_links(name)
                )
            if connected:
                filtered.append(name)
        return filtered or candidates

    def _candidates(self, sched, vertex):
        node = sched.node_of(vertex)
        if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT):
            pool = self._port_candidates(sched, vertex)
        else:
            pool = sched.candidates_for(vertex)
        if len(pool) <= self.max_candidates or self._thorough:
            return pool
        # Bias toward tiles near the vertex's placed neighbors (short
        # wires route and time more easily), keeping a random remainder
        # for diversity.
        anchors = []
        for edge in sched.edges_of(vertex):
            other = edge.dst if edge.src == vertex else edge.src
            hw = sched.placement.get(other)
            if hw is not None:
                anchors.append(hw)
        if anchors:
            def proximity(hw_name):
                return sum(
                    min(self.routing.hops(a, hw_name),
                        self.routing.hops(hw_name, a))
                    for a in anchors
                )

            ranked = sorted(pool, key=proximity)
            near_count = max(2, self.max_candidates * 2 // 3)
            pool = ranked[:near_count] + self.rng.sample(
                ranked[near_count:],
                min(self.max_candidates - near_count,
                    len(ranked) - near_count),
            )
        else:
            pool = self.rng.sample(pool, self.max_candidates)
        return pool

    def _compute_region_rates(self, scope):
        """Relative firing rates per region: low-rate (outer-loop)
        regions should favor shared PEs, high-rate regions dedicated
        ones (Section IV-C)."""
        rates = {}
        for region in scope.regions:
            try:
                instances = region.instance_count()
            except Exception:
                instances = region.expected_instances
            rates[region.name] = max(1.0, float(
                (instances or 1) * max(region.frequency, 1.0)
            ))
        peak = max(rates.values(), default=1.0)
        return {name: rate / peak for name, rate in rates.items()}

    def _rate_bias(self, sched, vertex, hw_name):
        """Soft placement preference: below real-cost weights, above
        tie-breaking noise."""
        node = sched.node_of(vertex)
        if node.kind is not NodeKind.INSTR:
            return 0.0
        hw = sched.adg.node(hw_name)
        is_shared = getattr(hw, "is_shared", False)
        rate = self._region_rates.get(vertex.region, 1.0)
        if is_shared and rate > 0.5:
            return 40.0   # high-rate work wants a dedicated tile
        if not is_shared and rate < 0.1:
            return 40.0   # outer-loop work should yield dedicated tiles
        return 0.0

    def _place_best(self, sched, vertex):
        """Try every sampled candidate; commit the one with the best
        objective (Algorithm 1 inner loop). Returns True on success.

        Branch and bound: before each edge is routed, and again before
        timing, a candidate whose :func:`candidate_lower_bound` (edges
        not yet tried counted as routed) plus rate bias already reaches
        the best scalar so far is rolled back unfinished — it could not
        be committed. The first candidate is always evaluated. Incoming
        edges are traced from trees shared by all candidates
        (:class:`_CandidateRouter`).
        """
        pool = self._candidates(sched, vertex)
        if not pool:
            return False
        # The edges every candidate routes: those whose other endpoint
        # is placed, in edges_of order, with that endpoint's hw.
        edges = []
        for edge in sched.edges_of(vertex):
            sched.remove_route(edge)
            incoming = edge.src != vertex
            other = sched.placement.get(edge.src if incoming else edge.dst)
            if other is not None:
                edges.append((edge, other, incoming))
        # Shared one-to-all trees for the incoming edges, over the
        # congestion every rolled-back candidate starts from.
        routes = _CandidateRouter(
            self.routing, sched, self.telemetry,
            len(pool) > 1 and any(incoming for _, _, incoming in edges),
        )
        instr = sched.node_of(vertex).kind is NodeKind.INSTR
        best_name, best_scalar = None, float("inf")
        best_routes = None
        # Static PEs take input delays (see _replay_delays).
        last_static, last_static_pruned = None, False
        for hw_name in pool:
            sched.place(vertex, hw_name)
            bias = self._rate_bias(sched, vertex, hw_name)
            routed, finished = routes.route(edges, hw_name, bias,
                                            best_scalar)
            if finished:
                cost = self._evaluate(sched)
                scalar = cost.scalar() + bias
                if scalar < best_scalar:
                    best_scalar = scalar
                    best_name = hw_name
                    best_routes = {
                        edge: list(sched.routes[edge]) for edge in routed
                    }
            else:
                self.telemetry.incr("sched_candidates_pruned")
            if instr and _is_static_pe(sched.adg.node(hw_name)):
                last_static, last_static_pruned = hw_name, not finished
            # Roll back routes for the next candidate.
            for edge in routed:
                sched.remove_route(edge)
            sched.remove_placement(vertex)
        if best_name is None:
            return False
        if last_static_pruned and not _is_static_pe(
                sched.adg.node(best_name)):
            self._replay_delays(sched, vertex, last_static, edges, routes)
        sched.place(vertex, best_name)
        for edge, links in (best_routes or {}).items():
            sched.set_route(edge, links)
        return True

    def _replay_delays(self, sched, vertex, hw_name, edges, routes):
        """Write the input delays a pruned candidate would have left.

        Timing a candidate on a static PE writes delays for the vertex's
        input edges, and no non-static candidate rewrites them, so the
        last static candidate's delays stay in ``input_delays`` when a
        non-static target wins (every other delay it wrote is rewritten
        once the winner is timed). When that candidate was pruned, time
        it once more here so the entries match an exhaustive search.
        """
        sched.place(vertex, hw_name)
        routed, _ = routes.route(edges, hw_name)
        compute_timing(sched, self.routing, telemetry=self.telemetry)
        for edge in routed:
            sched.remove_route(edge)
        sched.remove_placement(vertex)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_vertex_edges(self, sched, vertex):
        """(Re)route all edges of ``vertex`` whose endpoints are placed."""
        # Drop this vertex's existing routes first so they neither count
        # as congestion nor survive a move.
        for edge in sched.edges_of(vertex):
            sched.remove_route(edge)
        # Each route set below joins the live congestion view.
        for edge in sched.edges_of(vertex):
            src_hw = sched.placement.get(edge.src)
            dst_hw = sched.placement.get(edge.dst)
            if src_hw is None or dst_hw is None:
                continue
            path = _route_live(self.routing, sched, src_hw, dst_hw,
                               edge.value)
            if path is not None:
                sched.set_route(edge, path)

    def _route_all(self, sched):
        for vertex in sched.vertices():
            if vertex in sched.placement:
                missing = [
                    edge for edge in sched.edges_of(vertex)
                    if edge not in sched.routes
                ]
                if missing:
                    self._route_vertex_edges(sched, vertex)

    # ------------------------------------------------------------------
    # One Algorithm-1 iteration
    # ------------------------------------------------------------------
    def _iterate(self, sched):
        # PathFinder-style move: sometimes rip up one congested route and
        # re-route it under current congestion pricing, without touching
        # placement (cheap and often enough to untangle hot links).
        if self.rng.accept(0.30) and self._reroute_congested(sched):
            self.telemetry.incr("sched_moves_reroute")
            return True
        # Swap move: exchange two placed instructions (the escape for
        # near-full fabrics where single re-placement cannot help).
        if self.rng.accept(0.25) and self._swap_instructions(sched):
            self.telemetry.incr("sched_moves_swap")
            return True
        vertex = self._pick_victim(sched)
        if vertex is None:
            return False
        self.telemetry.incr("sched_moves_replace")
        # "Unmap one or more mapped instructions" (Algorithm 1):
        # occasionally evict a second vertex to open room.
        extra = None
        if self.rng.accept(0.15):
            placed = [v for v in sched.vertices()
                      if v in sched.placement and v != vertex]
            if placed:
                extra = self.rng.choice(placed)
                sched.unplace(extra)
        sched.unplace(vertex)
        placed_ok = self._place_best(sched, vertex)
        if extra is not None:
            placed_ok = self._place_best(sched, extra) and placed_ok
        return placed_ok

    def _swap_instructions(self, sched):
        """Swap the placements of a congestion-involved instruction and a
        random other instruction; keep the swap only if it improves the
        objective."""
        from repro.ir.dfg import NodeKind as _NK

        instrs = [
            v for v in sched.vertices({_NK.INSTR}) if v in sched.placement
        ]
        if len(instrs) < 2:
            return False
        first = self._pick_victim(sched)
        if (
            first is None
            or first not in sched.placement
            or sched.node_of(first).kind is not _NK.INSTR
        ):
            first = self.rng.choice(instrs)
        second = self.rng.choice([v for v in instrs if v != first])
        hw_first = sched.placement[first]
        hw_second = sched.placement[second]
        if not (sched.placement_legal(first, hw_second)
                and sched.placement_legal(second, hw_first)):
            return False
        before = self._evaluate(sched).scalar()
        # Only routes touching the swapped pair can change: save just
        # those so the revert is a targeted restore, not a wholesale
        # route-table rebuild. The restore order must not follow string
        # hashes: an ordered de-duplication keeps it hash-seed independent.
        touched = dict.fromkeys(
            sched.edges_of(first) + sched.edges_of(second)
        )
        saved_routes = {
            edge: list(sched.routes[edge])
            for edge in touched if edge in sched.routes
        }
        sched.unplace(first)
        sched.unplace(second)
        sched.place(first, hw_second)
        sched.place(second, hw_first)
        self._route_vertex_edges(sched, first)
        self._route_vertex_edges(sched, second)
        after = self._evaluate(sched).scalar()
        if after < before:
            return True
        # Revert — and report no progress, so the caller's escape
        # perturbation is not starved by phantom improvements.
        sched.unplace(first)
        sched.unplace(second)
        sched.place(first, hw_first)
        sched.place(second, hw_second)
        for edge, links in saved_routes.items():
            sched.set_route(edge, links)
        self.telemetry.incr("sched_moves_swap_reverted")
        return False

    def _global_reroute(self, sched):
        """PathFinder-style full rip-up: reroute every placed edge in a
        random order so early routes stop blocking later ones."""
        edges = [
            edge for edge in sched.edges()
            if edge.src in sched.placement and edge.dst in sched.placement
        ]
        self.rng.shuffle(edges)
        for edge in list(sched.routes):
            sched.remove_route(edge)
        for edge in edges:
            path = _route_live(
                self.routing, sched, sched.placement[edge.src],
                sched.placement[edge.dst], edge.value,
            )
            if path is not None:
                sched.set_route(edge, path)

    def _reroute_congested(self, sched):
        link_load = sched.link_load()
        hot = {link for link, load in link_load.items() if load > 1}
        if not hot:
            return False
        congested = [
            edge for edge, links in sched.routes.items()
            if any(link_id in hot for link_id in links)
        ]
        if not congested:
            return False
        edge = self.rng.choice(congested)
        src_hw = sched.placement.get(edge.src)
        dst_hw = sched.placement.get(edge.dst)
        if src_hw is None or dst_hw is None:
            # A committed route whose endpoint went unplaced must stay
            # committed — popping it here would silently lose it.
            return False
        old = sched.remove_route(edge)
        path = _route_live(self.routing, sched, src_hw, dst_hw, edge.value)
        sched.set_route(edge, path if path is not None else old)
        return True

    def _pick_victim(self, sched):
        """Prefer vertices that contribute to cost: unplaced ones, those
        on overused resources, then anything."""
        pool = self._victim_pool(sched)
        return self.rng.choice(pool) if pool else None

    def _victim_pool(self, sched):
        """The list :meth:`_pick_victim` draws from: the unplaced
        vertices; else the vertices on an overused PE or sync element,
        then the consumers of routes over a link carrying several values,
        then both endpoints of each flow-violating edge (duplicates kept,
        they weight the draw); else the producers of unrouted edges;
        else every placed vertex. Each scan is skipped when the live
        overuse counters show it would find nothing."""
        unplaced = sched.unplaced_vertices()
        if unplaced:
            return unplaced
        placement = sched.placement
        overused = []
        if sched._overuse_pe or sched._overuse_port:
            pe_load, port_load = sched._pe_load, sched._port_load
            for vertex, hw_name in placement.items():
                if sched.node_of(vertex).kind is NodeKind.INSTR:
                    if pe_load.get(hw_name, 0) > sched._capacity(hw_name):
                        overused.append(vertex)
                elif port_load.get(hw_name, 0) > 1:
                    overused.append(vertex)
        if sched._overuse_link:
            hot_links = {
                link_id
                for link_id, refs in sched._link_value_refs.items()
                if len(refs) > 1
            }
            for edge, links in sched.routes.items():
                if not hot_links.isdisjoint(links):
                    if edge.dst in placement:
                        overused.append(edge.dst)
        # Execution-model flow violations (Section III-B): either endpoint
        # of a static->dynamic or dedicated->shared edge is a good victim.
        flags = self._flow_flags()
        for edge in sched.edges() if flags else ():
            src_flags = flags.get(placement.get(edge.src))
            if src_flags is None:  # unplaced, or not on a PE
                continue
            dst_flags = flags.get(placement.get(edge.dst))
            if dst_flags is None:
                continue
            if (not src_flags[0] and dst_flags[0]) or (
                not src_flags[1] and dst_flags[1]
            ):
                overused.append(edge.src)
                overused.append(edge.dst)
        if overused:
            return overused
        unrouted = [
            edge.src for edge in sched.edges()
            if edge not in sched.routes and edge.src in placement
        ]
        if unrouted:
            return unrouted
        return [v for v in sched.vertices() if v in placement]

    def _flow_flags(self):
        """PE name -> ``(is_dynamic, is_shared)``, built once per
        :meth:`schedule` call; empty when no PE is dynamic or shared, as
        then no edge can violate the flow rules."""
        if self._pe_flags is None:
            pes = self.adg.pes()
            self._pe_flags = {
                pe.name: (pe.is_dynamic, pe.is_shared) for pe in pes
            } if any(pe.is_dynamic or pe.is_shared for pe in pes) else {}
        return self._pe_flags


def _is_static_pe(hw):
    return isinstance(hw, ProcessingElement) and not hw.is_dynamic


class _CandidateRouter:
    """Routes the edges of one :meth:`SpatialScheduler._place_best`
    candidate, checking the cost bound before each and after the last,
    and serves incoming edges from shared Dijkstra trees.

    Every candidate starts from the same congestion (the previous one is
    rolled back), so the tree out of a fixed producer, built once over
    that snapshot, is shared by all of them. Its path is what
    :meth:`RoutingGraph.route` returns on the live view, provided no
    earlier route of this candidate carried the same value (that would
    make links cheaper) and the path shares no link with them: the
    candidate's routes have then only raised costs off the path, so the
    path keeps its cost and every tie resolves as before.
    """

    def __init__(self, routing, sched, telemetry, share):
        self.routing = routing
        self.sched = sched
        self.telemetry = telemetry
        # Trees are built lazily, over a copy of the starting congestion.
        self.snapshot = sched.link_values() if share else None
        self.trees = {}

    def route(self, edges, hw_name, bias=0.0, best_scalar=float("inf")):
        """Route ``edges`` — ``(edge, other_hw, incoming)`` triples — for
        the vertex placed on ``hw_name``. Returns ``(routed, finished)``:
        the edges given a route, and whether the candidate is still worth
        timing — False when the bound, checked before each edge and after
        the last, shows it cannot get below ``best_scalar``."""
        sched = self.sched
        routing = self.routing
        routed = []
        used_links, used_values = set(), set()
        pending = len(edges)
        for edge, other, incoming in edges:
            if candidate_lower_bound(sched, pending) + bias >= best_scalar:
                return routed, False
            pending -= 1
            value = edge.value
            shared = False
            if incoming and self.snapshot is not None \
                    and value not in used_values:
                tree = self.trees.get((other, value))
                if tree is None:
                    tree = self.trees[(other, value)] = routing.tree(
                        other, self.snapshot, value)
                path = routing.trace(tree, hw_name)
                shared = path is None or used_links.isdisjoint(path)
            if shared:
                self.telemetry.incr("sched_route_tree_hits")
            elif incoming:
                path = _route_live(routing, sched, other, hw_name, value)
            else:
                path = _route_live(routing, sched, hw_name, other, value)
            if path is not None:
                sched.set_route(edge, path)
                routed.append(edge)
                used_links.update(path)
                used_values.add(value)
        return routed, candidate_lower_bound(sched, 0) + bias < best_scalar
