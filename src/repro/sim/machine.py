"""The cycle-level machine model.

Component models:

* **Control core** — issues the generated command list in order; each
  command costs its ``issue_cycles``; CONFIG costs the configuration time
  (the hardware generator's config-path length); BARRIER blocks until the
  named region drains; WAIT_ALL ends the program.
* **Memory engines** — each memory arbitrates its active streams
  round-robin with three service channels per cycle: one *line* request
  (delivering the stream's average words/request, which models
  coalescing: unit-stride streams move a full line, small-stride FFT
  stages move one word), ``banks`` *indirect* word requests, and one
  *scalarized* word every ``SCALAR_ACCESS_CYCLES`` (the no-indirect-
  controller fallback, served by the core).
* **Sync elements** — finite FIFOs (``depth x lanes64`` words); full
  output FIFOs backpressure the fabric, empty input FIFOs stall it.
* **Fabric** — each region fires one instance per ``II`` cycles when
  every input port holds a full vector and every output FIFO has room;
  results appear ``latency`` cycles later. Join regions consume keys at
  one merge comparison per cycle following the recorded pop sequence.
* **Recurrences** — forwarded words re-enter their consumer port two
  cycles after production (the port-to-port loop).

Two replay engines share the per-cycle transition function:

* ``engine="stepped"`` — the original loop: advance one cycle at a
  time. Kept as the oracle.
* ``engine="event"`` (default) — event-driven cycle skipping. After a
  cycle in which nothing changed, jump straight to the next event
  horizon (command ready time, in-flight completion, recurrence
  arrival, fire eligibility, scalar service phase). While the machine
  is in steady state — the bounded state (FIFO fills, in-flight ages,
  stream carries, cursors) repeats with some period — fire whole
  batches of instances analytically: all monotone counters (segment
  ``moved``/``filled``, ``fired``, ``memory_busy``) advance by the
  observed per-period delta times the repetition count, capped so no
  segment completes, no region exhausts its instances, and no command
  activates inside the extrapolated window. Near those boundaries the
  engine falls back to single-cycle stepping, which makes the two
  engines produce bit-identical :class:`SimResult` values.
"""

from dataclasses import dataclass, field
from functools import cached_property

from repro.adg.components import Memory, SyncElement
from repro.compiler.codegen import CommandKind, generate_control_program
from repro.errors import SimulationError
from repro.ir.dfg import NodeKind
from repro.ir.interp import execute_scope
from repro.ir.region import as_stream_list
from repro.ir.stream import (
    ConstStream,
    IndirectStream,
    RecurrenceStream,
    stream_requests,
)
from repro.scheduler.timing import compute_timing
from repro.scheduler.router import RoutingGraph
from repro.utils.telemetry import Telemetry

#: Core cycles per scalarized indirect access (matches the compiler's
#: fallback model).
SCALAR_ACCESS_CYCLES = 4
#: Port-to-port recurrence forwarding latency.
RECURRENCE_LATENCY = 2
#: Safety bound: a simulation exceeding this many cycles per word of
#: traffic has deadlocked.
_DEADLOCK_FACTOR = 64

#: Replay engines: ``event`` skips cycles, ``stepped`` is the oracle.
SIM_ENGINES = ("event", "stepped")

#: Snapshot-history size before the steady-state detector resets.
_HISTORY_LIMIT = 4096


def _resolve_engine(engine):
    engine = engine or "event"
    if engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {engine!r}; one of {SIM_ENGINES}"
        )
    return engine


@dataclass
class SimResult:
    """Outcome of one simulation."""

    cycles: int
    memory: dict
    region_cycles: dict = field(default_factory=dict)
    memory_busy: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    config_cycles: int = 0

    def __repr__(self):
        return f"SimResult(cycles={self.cycles})"


class _Segment:
    """One stream command's worth of traffic on a port.

    Inputs use ``moved`` (words delivered into the port FIFO). Outputs
    additionally use ``filled`` (words the fabric has produced into this
    segment) so memory drains never run ahead of production and
    recurrence segments never swallow memory-bound words.
    """

    def __init__(self, kind, words, memory_name=None, rate_words=1.0,
                 channel="line", repeat=1):
        self.kind = kind          # 'mem', 'const', 'recur'
        self.words = words        # physical words to move
        self.moved = 0
        self.filled = 0
        self.memory_name = memory_name
        self.rate_words = rate_words  # words delivered per request
        self.channel = channel    # 'line' | 'indirect' | 'scalar'
        self.repeat = repeat      # logical pops per physical word
        self._carry = 0.0

    @property
    def done(self):
        return self.moved >= self.words

    def serve(self, budget_words):
        """Move up to ``budget_words``; returns words moved."""
        take = min(int(budget_words), self.words - self.moved)
        self.moved += take
        return take


class _Port:
    """A sync element instance bound to one DFG port."""

    def __init__(self, name, capacity, segments):
        self.name = name
        self.capacity = max(1, capacity)
        self.fill = 0
        self.segments = segments
        self.cursor = 0          # input delivery / output drain cursor
        self.assign_cursor = 0   # output production cursor

    @property
    def space(self):
        return self.capacity - self.fill

    def active_segment(self):
        while self.cursor < len(self.segments):
            segment = self.segments[self.cursor]
            if segment.moved < segment.words:
                return segment
            self.cursor += 1
        return None

    def drain_segment(self):
        """Output side: the segment whose produced words await their
        memory drain (never ahead of production)."""
        while self.cursor < len(self.segments):
            segment = self.segments[self.cursor]
            if segment.moved < segment.words:
                if segment.kind != "mem":
                    # Recurrence segments complete through the loopback
                    # path; wait for production to pass them.
                    if segment.moved < segment.words:
                        return None
                    self.cursor += 1
                    continue
                if segment.moved < segment.filled:
                    return segment
                return None
            self.cursor += 1
        return None

    def assign_production(self, words):
        """Output side: attribute ``words`` produced by the fabric to
        segments in order. Returns ``(recur_words, memory_words)``."""
        recur_words = 0
        memory_words = 0
        while words > 0 and self.assign_cursor < len(self.segments):
            segment = self.segments[self.assign_cursor]
            room = segment.words - segment.filled
            if room <= 0:
                self.assign_cursor += 1
                continue
            take = min(words, room)
            segment.filled += take
            words -= take
            if segment.kind == "recur":
                segment.moved += take  # leaves through the loopback
                recur_words += take
            else:
                memory_words += take
        return recur_words, memory_words

    @property
    def drained(self):
        return self.active_segment() is None and self.fill == 0


class _RegionState:
    """Execution state of one region on the fabric."""

    def __init__(self, region, timing, trace_record):
        self.region = region
        self.ii = timing.ii if timing else 1
        self.latency = timing.latency if timing else 1
        # Dependent accumulation serializes successive instances unless
        # parallel chains were provisioned (same law as the performance
        # model's dependence ratio, Section V-B).
        recurrence = timing.recurrence_latency if timing else 0
        concurrency = max(
            region.metadata.get("partial_sums", 1),
            region.metadata.get("recurrence_concurrency", 1),
        )
        if recurrence > 1 and region.join_spec is None:
            self.ii = max(self.ii, -(-recurrence // concurrency))
        #: Serialized (fallback) joins pay the pointer-chasing loop per
        #: comparison; transformed joins compare once per cycle.
        self.join_cycle_per_comparison = 1
        if region.join_spec is not None and region.metadata.get(
            "serial_join"
        ):
            self.join_cycle_per_comparison = max(
                1, region.metadata.get("forced_recurrence", 1)
            )
        self.total_instances = trace_record["instances"]
        self.emitted = trace_record["emitted"]
        self.join_pops = list(trace_record["join_pops"])
        self.fired = 0
        self.next_fire = 0
        self.join_cursor = 0
        self.join_busy_until = 0
        self.in_ports = {}    # dfg input name -> (_Port, lanes)
        self.out_ports = {}   # dfg output name -> _Port
        self.inflight = []    # (completion_cycle, {port: words})
        self.inflight_words = {}  # output port -> words in self.inflight
        self.recur_sinks = {}  # output port -> [(consumer_port_obj, words_left)]

    @property
    def all_fired(self):
        return self.fired >= self.total_instances

    def done(self):
        return (
            self.all_fired
            and not self.inflight
            and all(p.drained for p in self.out_ports.values())
        )


def repeated_blocks(values, first, base, size, count):
    """How many of the ``count`` blocks of ``size`` starting at
    ``values[base]`` equal ``values[first:first + size]``, counted up
    to the first that differs. One slice comparison covers the whole
    span; only a span that differs is compared block by block."""
    pattern = values[first:first + size]
    if values[base:base + count * size] == pattern * count:
        return count
    blocks = 0
    while blocks < count:
        start = base + blocks * size
        if values[start:start + size] != pattern:
            break
        blocks += 1
    return blocks


class _Replay:
    """One replay of a built machine state, under either engine.

    Owns the mutable loop state (cycle, command cursor, pending
    recurrences, busy counters) plus the event engine's snapshot
    history. Both engines execute cycles through :meth:`_step_cycle`;
    the event engine additionally skips quiet stretches and
    batch-fires steady-state windows between steps.
    """

    def __init__(self, sim, states):
        self.sim = sim
        self.states = states
        self.state_list = list(states.values())
        self.memories = list(sim.adg.memories())
        self.memory_busy = {m.name: 0 for m in self.memories}
        self.pending_recur = []  # (arrival_cycle, consumer_port, words)
        self.cycle = 0
        self.changed = False

        # Command pipeline: (ready_cycle, command); streams activate
        # when the core reaches them.
        self.command_schedule = []
        clock = 0
        for command in sim.program:
            if command.kind is CommandKind.CONFIG:
                clock += sim.config_cycles
            else:
                clock += command.issue_cycles
            self.command_schedule.append((clock, command))
        self.command_index = 0
        self.region_started = {name: False for name in states}
        self.region_finish = {}

        # Past this cycle the replay counts as deadlocked: the config
        # cycles plus ``_DEADLOCK_FACTOR`` times the traffic (input
        # words, instances times II, and a 64-cycle margin).
        total_words = sum(
            seg.words
            for state in self.state_list
            for port, _lanes in state.in_ports.values()
            for seg in port.segments
        ) + 1
        self.deadline = sim.config_cycles + _DEADLOCK_FACTOR * (
            total_words
            + sum(s.total_instances * s.ii for s in self.state_list)
            + 64
        )

        # Barrier lookups, hoisted: region -> the states of every
        # barrier region that precedes it in program order (previously
        # rebuilt, with two .index() scans, on every blocked() call of
        # every cycle).
        order = {r.name: i for i, r in enumerate(sim.scope.regions)}
        self._barrier_prefix = {
            name: tuple(
                states[barrier_name]
                for barrier_name in sim.scope.barriers
                if order[barrier_name] < order[name]
            )
            for name in states
        }

        self._history = {}
        # Live segments collected by the latest ``_snapshot_key``.
        self._live_in = []
        self._live_out = []

        # Engine telemetry, accumulated as plain ints (hot loop).
        self.steps = 0
        self.idle_jumps = 0
        self.idle_cycles = 0
        self.batch_jumps = 0
        self.batch_cycles = 0
        self.batch_instances = 0

    # -- barrier bookkeeping -------------------------------------------
    def blocked(self, region_name):
        for barrier_state in self._barrier_prefix[region_name]:
            if not barrier_state.done():
                return True
        return False

    # -- static inventories, built on first use -----------------------
    # Only ``_memory_plan`` serves both engines; the rest are the event
    # engine's probe tables, which a ``stepped`` replay never builds.
    @cached_property
    def _memory_plan(self):
        """Per memory, in round-robin order: ``(region name, input
        ports, output ports)`` for every region with a port on that
        memory. The last memory's pass lists every output port: its
        ``drain_segment`` call moves each drain cursor past finished
        segments once per cycle, and :meth:`_snapshot_key` keys that
        cursor."""
        plan = []
        last = len(self.memories) - 1
        for index, memory_node in enumerate(self.memories):
            name = memory_node.name
            entries = []
            for state in self.state_list:
                ins = [
                    port for port, _lanes in state.in_ports.values()
                    if any(seg.memory_name == name for seg in port.segments)
                ]
                outs = [
                    port for port in state.out_ports.values()
                    if index == last or any(
                        seg.memory_name == name for seg in port.segments
                    )
                ]
                if ins or outs:
                    entries.append((state.region.name, ins, outs))
            plan.append((memory_node, entries))
        return plan

    @cached_property
    def _probe_regions(self):
        """Per region, what :meth:`_snapshot_key` walks: ``(state,
        region name, input ports, output ports)``."""
        return [
            (state, state.region.name,
             [port for port, _lanes in state.in_ports.values()],
             list(state.out_ports.values()))
            for state in self.state_list
        ]

    @cached_property
    def _sinks(self):
        return [
            sink
            for state in self.state_list
            for sinks in state.recur_sinks.values()
            for sink in sinks
        ]

    @cached_property
    def _scalar_segs(self):
        return [
            (seg, state.region.name)
            for state in self.state_list
            for port, _lanes in state.in_ports.values()
            for seg in port.segments
            if seg.channel == "scalar"
        ] + [
            (seg, state.region.name)
            for state in self.state_list
            for port in state.out_ports.values()
            for seg in port.segments
            if seg.channel == "scalar"
        ]

    @cached_property
    def _port_index(self):
        index = {}
        for state in self.state_list:
            for port, _lanes in state.in_ports.values():
                index[id(port)] = len(index)
            for port in state.out_ports.values():
                index[id(port)] = len(index)
        return index

    @cached_property
    def _join_states(self):
        return [
            state for state in self.state_list
            if state.region.join_spec is not None
        ]

    # -- main loop ------------------------------------------------------
    def replay(self, engine, memory):
        event = engine == "event"
        schedule_len = len(self.command_schedule)
        while True:
            self.changed = False
            self._step_cycle()
            self.steps += 1
            if (self.command_index >= schedule_len
                    and len(self.region_finish) == len(self.states)):
                break
            if event:
                if self.changed:
                    self._try_batch()
                else:
                    self._idle_skip()
            self.cycle += 1
            if self.cycle > self.deadline:
                raise SimulationError(
                    f"simulation deadlock at cycle {self.cycle}; "
                    "unfinished regions: "
                    f"{[n for n in self.states if n not in self.region_finish]}"
                    f"\n{self._stall_report()}"
                )

        return SimResult(
            cycles=self.cycle + 1,
            memory=memory,
            region_cycles=self.region_finish,
            memory_busy=self.memory_busy,
            instances={n: s.fired for n, s in self.states.items()},
            config_cycles=self.sim.config_cycles,
        )

    # -- one cycle of the machine --------------------------------------
    def _step_cycle(self):
        cycle = self.cycle

        # 1. Core: activate stream segments whose issue time arrived.
        while (self.command_index < len(self.command_schedule)
               and self.command_schedule[self.command_index][0] <= cycle):
            _, command = self.command_schedule[self.command_index]
            if command.kind in (CommandKind.ISSUE_STREAM,
                                CommandKind.ISSUE_CONST,
                                CommandKind.ISSUE_RECUR):
                self.region_started[command.region] = True
            self.command_index += 1
            self.changed = True

        # 2. Recurrence deliveries.
        still_pending = []
        for arrival, port, words in self.pending_recur:
            if arrival <= cycle:
                segment = port.active_segment()
                take = min(words, max(1, port.space))
                if segment is not None and segment.kind == "recur":
                    moved = segment.serve(take)
                    port.fill += moved * segment.repeat
                    words -= moved
                    if moved:
                        self.changed = True
                if words > 0:
                    still_pending.append((arrival, port, words))
            else:
                still_pending.append((arrival, port, words))
        self.pending_recur = still_pending

        # 3. Memory engines serve active read streams and drain
        #    output write streams.
        self._service_memories(cycle)

        # 4. Const segments refill freely.
        for state in self.state_list:
            if not self.region_started[state.region.name]:
                continue
            for port, _lanes in state.in_ports.values():
                segment = port.active_segment()
                if segment is not None and segment.kind == "const":
                    moved = segment.serve(port.space)
                    port.fill += moved
                    if moved:
                        self.changed = True

        # 5. Fabric: complete in-flight instances, then fire.
        for state in self.state_list:
            self._complete_inflight(state, cycle)
        for state in self.state_list:
            if not self.region_started[state.region.name]:
                continue
            if self.blocked(state.region.name):
                continue
            self._try_fire(state, cycle)

        # 6. Record freshly drained regions.
        for name, state in self.states.items():
            if name not in self.region_finish and state.done():
                self.region_finish[name] = cycle
                self.changed = True

    # -- memory engines -------------------------------------------------
    def _service_memories(self, cycle):
        started = self.region_started
        for memory_node, entries in self._memory_plan:
            name = memory_node.name
            line_budget = 1          # one line transaction per cycle
            indirect_budget = memory_node.banks
            scalar_ready = (cycle % SCALAR_ACCESS_CYCLES) == 0
            served = False
            # Round-robin across regions and ports, reads then writes.
            for region_name, in_ports, out_ports in entries:
                if not started[region_name]:
                    continue
                if self.blocked(region_name):
                    continue
                for port in in_ports:
                    segment = port.active_segment()
                    if (segment is None or segment.kind != "mem"
                            or segment.memory_name != name):
                        continue
                    moved = self._serve_segment(
                        segment, port.space, line_budget,
                        indirect_budget, scalar_ready,
                    )
                    if moved:
                        port.fill += moved
                        served = True
                        if segment.channel == "line":
                            line_budget -= 1
                        elif segment.channel == "indirect":
                            indirect_budget -= moved
                        else:
                            scalar_ready = False
                for port in out_ports:
                    segment = port.drain_segment()
                    if segment is None or segment.memory_name != name:
                        continue
                    moved = self._serve_segment(
                        segment, min(port.fill,
                                     segment.filled - segment.moved),
                        line_budget, indirect_budget, scalar_ready,
                    )
                    if moved:
                        port.fill -= moved
                        served = True
                        if segment.channel == "line":
                            line_budget -= 1
                        elif segment.channel == "indirect":
                            indirect_budget -= moved
                        else:
                            scalar_ready = False
            if served:
                self.memory_busy[name] += 1

    def _serve_segment(self, segment, available_words, line_budget,
                       indirect_budget, scalar_ready):
        if segment.channel == "line":
            if line_budget <= 0:
                return 0
            budget = min(segment.rate_words + segment._carry,
                         available_words)
            moved = segment.serve(budget)
            carry = (
                max(0.0, segment.rate_words + segment._carry - moved)
                if moved else 0.0
            )
            if moved or carry != segment._carry:
                self.changed = True
            segment._carry = carry
            return moved
        if segment.channel == "indirect":
            if indirect_budget <= 0:
                return 0
            moved = segment.serve(min(indirect_budget, available_words))
            if moved:
                self.changed = True
            return moved
        # scalar
        if not scalar_ready:
            return 0
        moved = segment.serve(min(1, available_words))
        if moved:
            self.changed = True
        return moved

    # -- fabric ---------------------------------------------------------
    def _complete_inflight(self, state, cycle):
        remaining = []
        for completion, emission in state.inflight:
            if completion > cycle:
                remaining.append((completion, emission))
                continue
            self.changed = True
            for out_name, words in emission.items():
                state.inflight_words[out_name] -= words
                port = state.out_ports[out_name]
                recur_words, memory_words = port.assign_production(words)
                port.fill += memory_words
                if recur_words:
                    # Distribute to the recurrence consumers in order.
                    for sink in state.recur_sinks.get(out_name, ()):
                        consumer_port, left = sink
                        if left <= 0 or recur_words <= 0:
                            continue
                        take = min(recur_words, left)
                        sink[1] -= take
                        recur_words -= take
                        self.pending_recur.append(
                            (cycle + RECURRENCE_LATENCY, consumer_port,
                             take)
                        )
        state.inflight = remaining

    @staticmethod
    def _launch(state, cycle, emission):
        """Put one fired instance's emission in flight."""
        state.inflight.append((cycle + state.latency, emission))
        inflight_words = state.inflight_words
        for out_name, words in emission.items():
            inflight_words[out_name] = inflight_words.get(out_name, 0) + words

    def _try_fire(self, state, cycle):
        if state.all_fired or cycle < state.next_fire:
            return
        if state.region.join_spec is not None:
            self._try_fire_join(state, cycle)
            return
        # Static/pipelined region: full vectors at every input, room at
        # every output.
        for port, lanes in state.in_ports.values():
            if port.fill < lanes:
                return
        emission = {
            out_name: state.emitted[out_name][state.fired]
            for out_name in state.out_ports
        }
        inflight_words = state.inflight_words
        for out_name, words in emission.items():
            port = state.out_ports[out_name]
            if (port.fill + inflight_words.get(out_name, 0) + words
                    > port.capacity):
                return
        for port, lanes in state.in_ports.values():
            port.fill -= lanes
        self._launch(state, cycle, emission)
        state.fired += 1
        state.next_fire = cycle + state.ii
        self.changed = True

    def _try_fire_join(self, state, cycle):
        """Merge-join consumption: one comparison per cycle; the next
        instance fires after its recorded pops complete."""
        if cycle < state.join_busy_until:
            return
        if state.join_cursor >= len(state.join_pops):
            # Tail pops (unmatched remainder) happen without firing.
            return
        left_pops, right_pops = state.join_pops[state.join_cursor]
        spec = state.region.join_spec
        left_ports = [spec.left_key] + list(spec.left_payloads)
        right_ports = [spec.right_key] + list(spec.right_payloads)
        for name in left_ports:
            port, _lanes = state.in_ports[name]
            if port.fill < left_pops:
                return
        for name in right_ports:
            port, _lanes = state.in_ports[name]
            if port.fill < right_pops:
                return
        emission = {
            out_name: state.emitted[out_name][state.fired]
            for out_name in state.out_ports
        }
        for out_name, words in emission.items():
            port = state.out_ports[out_name]
            if port.fill + words > port.capacity:
                return
        for name in left_ports:
            state.in_ports[name][0].fill -= left_pops
        for name in right_ports:
            state.in_ports[name][0].fill -= right_pops
        comparisons = max(1, left_pops + right_pops - 1)
        comparisons *= state.join_cycle_per_comparison
        state.join_busy_until = cycle + comparisons
        self._launch(state, cycle, emission)
        state.fired += 1
        state.join_cursor += 1
        state.next_fire = cycle + max(state.ii, comparisons)
        self.changed = True

    # -- event engine: quiet-cycle skipping -----------------------------
    def _scalar_pending(self):
        started = self.region_started
        return any(
            not seg.done and started[region_name]
            for seg, region_name in self._scalar_segs
        )

    def _idle_skip(self):
        """After a cycle in which *nothing* changed, jump to the next
        event horizon: the machine state is a fixpoint, so every cycle
        before the first timed trigger replays as another no-op."""
        cycle = self.cycle
        horizon = None
        if self.command_index < len(self.command_schedule):
            horizon = self.command_schedule[self.command_index][0]
        for arrival, _port, _words in self.pending_recur:
            if arrival > cycle and (horizon is None or arrival < horizon):
                horizon = arrival
        for state in self.state_list:
            for completion, _emission in state.inflight:
                if horizon is None or completion < horizon:
                    horizon = completion
            if not state.all_fired and state.next_fire > cycle:
                if horizon is None or state.next_fire < horizon:
                    horizon = state.next_fire
            if state.join_busy_until > cycle:
                if horizon is None or state.join_busy_until < horizon:
                    horizon = state.join_busy_until
        phase = cycle % SCALAR_ACCESS_CYCLES
        if phase and self._scalar_pending():
            next_phase = cycle + SCALAR_ACCESS_CYCLES - phase
            if horizon is None or next_phase < horizon:
                horizon = next_phase
        # Process nothing until the horizon cycle itself; with no
        # trigger left the machine is deadlocked, so run out the clock.
        target = self.deadline if horizon is None else min(
            horizon - 1, self.deadline
        )
        if target > cycle:
            self.idle_jumps += 1
            self.idle_cycles += target - cycle
            self.cycle = target

    # -- event engine: steady-state batch firing ------------------------
    def _snapshot_key(self):
        """The machine's bounded state, relative to the current cycle.

        Two cycles with equal keys evolve identically except through
        monotone counters (handled by :meth:`_max_repetitions` caps),
        emission patterns (checked explicitly), and join pop sequences
        (batching is disabled while a join region is still firing).

        Only *live* segments enter the key: on an input port the one
        under the cursor, on an output port those between its drain
        cursor and its production cursor. Every output segment below
        that window is filled and drained and no longer served, and
        every one above it is untouched (nothing filled or moved, no
        carry), so their state is fixed by the two cursors, which the
        key holds. The same pass collects the live segments into
        ``_live_in``/``_live_out``: the monotone counters
        :meth:`_mono_vector` reads and the batch advances.
        """
        cycle = self.cycle
        parts = [
            self.command_index,
            cycle % SCALAR_ACCESS_CYCLES if self._scalar_pending() else -1,
        ]
        append = parts.append
        extend = parts.extend
        port_index = self._port_index
        for arrival, port, words in self.pending_recur:
            extend((max(0, arrival - cycle), port_index[id(port)], words))
        finish = self.region_finish
        live_in = []
        live_out = []
        for state, name, in_ports, out_ports in self._probe_regions:
            append(-2)  # region separator (sections vary in length)
            all_fired = state.fired >= state.total_instances
            append((2 if name in finish else 0) + (1 if all_fired else 0))
            append(0 if all_fired else max(0, state.next_fire - cycle))
            for completion, emission in state.inflight:
                # A firing's emission lists every output, in port order.
                append(completion - cycle)
                extend(emission.values())
            append(-2)
            for port in in_ports:
                segment = port.active_segment()
                if segment is None:
                    extend((port.fill, port.cursor, -1.0))
                else:
                    extend((port.fill, port.cursor, segment._carry))
                    live_in.append(segment)
            for port in out_ports:
                cursor = port.cursor
                assign = port.assign_cursor
                extend((port.fill, cursor, assign))
                if cursor > assign:
                    cursor, assign = assign, cursor
                for segment in port.segments[cursor:assign + 1]:
                    words = segment.words
                    extend((segment.filled - segment.moved,
                            (2 if segment.filled >= words else 0)
                            + (1 if segment.moved >= words else 0),
                            segment._carry))
                    live_out.append(segment)
        for sink in self._sinks:
            append(1 if sink[1] > 0 else 0)
        self._live_in = live_in
        self._live_out = live_out
        return tuple(parts)

    def _mono_vector(self):
        """Every monotone counter that can still move: memory busy
        cycles, fired instances, the live segments of the latest key,
        and the recurrence-sink budgets."""
        vector = [self.memory_busy[m.name] for m in self.memories]
        extend = vector.extend
        extend(state.fired for state in self.state_list)
        extend(seg.moved for seg in self._live_in)
        for seg in self._live_out:
            vector.append(seg.moved)
            vector.append(seg.filled)
        extend(sink[1] for sink in self._sinks)
        return vector

    def _try_batch(self):
        """Detect a repeating steady-state window and replay it in bulk.

        If the bounded state at the current cycle matches a snapshot
        taken ``period`` cycles ago, the machine spent that window in a
        limit cycle: replaying it advances every monotone counter by
        the same delta. Apply as many repetitions as fit before any
        boundary (segment end, instance budget, command arrival,
        emission pattern change, deadline), then resume stepping.
        Equal keys hold equal cursors, so both snapshots' vectors list
        the same live segments in the same order.
        """
        # Join regions replay a data-dependent pop sequence per
        # instance; batching resumes once they have all fired.
        for state in self._join_states:
            if not state.all_fired:
                return
        key = self._snapshot_key()
        previous = self._history.get(key)
        mono = self._mono_vector()
        self._history[key] = (self.cycle, mono)
        if previous is None:
            if len(self._history) > _HISTORY_LIMIT:
                self._history.clear()
            return
        prev_cycle, prev_mono = previous
        period = self.cycle - prev_cycle
        delta = [now - before for now, before in zip(mono, prev_mono)]
        if not any(delta):
            return  # static window; the idle skip handles those
        repetitions = self._max_repetitions(period, delta, prev_mono)
        if repetitions <= 0:
            return
        self._apply_repetitions(period, repetitions, delta)

    def _max_repetitions(self, period, delta, prev_mono):
        """How many whole periods fit before any behavior boundary.

        Every monotone counter must stay strictly inside its segment or
        instance budget (so no ``min(..., remaining)`` clamps, ``done``
        flips, or cursor moves happen inside the extrapolated window),
        and every instance fired in the window must emit the same word
        counts as its counterpart in the observed period.
        """
        cycle = self.cycle
        cap = (self.deadline - cycle) // period
        if self.command_index < len(self.command_schedule):
            ready = self.command_schedule[self.command_index][0]
            cap = min(cap, (ready - 1 - cycle) // period)
        index = len(self.memories)
        fired_base = index
        for state in self.state_list:
            moved = delta[index]
            if moved:
                cap = min(
                    cap, (state.total_instances - state.fired - 1) // moved
                )
            index += 1
        for seg in self._live_in:
            moved = delta[index]
            if moved:
                cap = min(cap, (seg.words - seg.moved - 1) // moved)
            index += 1
        for seg in self._live_out:
            moved = delta[index]
            if moved:
                cap = min(cap, (seg.words - seg.moved - 1) // moved)
            index += 1
            filled = delta[index]
            if filled:
                cap = min(cap, (seg.words - seg.filled - 1) // filled)
            index += 1
        for sink in self._sinks:
            drained = -delta[index]
            if drained:
                cap = min(cap, (sink[1] - 1) // drained)
            index += 1
        if cap <= 0:
            return 0
        # Emission patterns: instance f of the extrapolation must emit
        # exactly what instance (f mod fires-per-period) of the observed
        # window emitted, on every output.
        for offset, state in enumerate(self.state_list):
            fires = delta[fired_base + offset]
            if not fires:
                continue
            first = prev_mono[fired_base + offset]
            for out_name in state.out_ports:
                cap = repeated_blocks(state.emitted[out_name], first,
                                      state.fired, fires, cap)
                if cap <= 0:
                    return 0
        return cap

    def _apply_repetitions(self, period, repetitions, delta):
        skipped = repetitions * period
        index = 0
        for memory_node in self.memories:
            self.memory_busy[memory_node.name] += (
                repetitions * delta[index]
            )
            index += 1
        for state in self.state_list:
            fires = repetitions * delta[index]
            state.fired += fires
            self.batch_instances += fires
            index += 1
        for seg in self._live_in:
            seg.moved += repetitions * delta[index]
            index += 1
        for seg in self._live_out:
            seg.moved += repetitions * delta[index]
            index += 1
            seg.filled += repetitions * delta[index]
            index += 1
        for sink in self._sinks:
            sink[1] += repetitions * delta[index]
            index += 1
        cycle = self.cycle
        for state in self.state_list:
            if state.inflight:
                # Same emissions, later: inflight_words stays as it is.
                state.inflight = [
                    (completion + skipped, emission)
                    for completion, emission in state.inflight
                ]
            if state.next_fire > cycle:
                state.next_fire += skipped
            if state.join_busy_until > cycle:
                state.join_busy_until += skipped
        if self.pending_recur:
            self.pending_recur = [
                (arrival + skipped if arrival > cycle else arrival,
                 port, words)
                for arrival, port, words in self.pending_recur
            ]
        self.cycle += skipped
        self.batch_jumps += 1
        self.batch_cycles += skipped
        self._history.clear()

    # -- diagnostics ----------------------------------------------------
    def _stall_report(self):
        """Per-region stall snapshot for deadlock diagnostics."""
        lines = []
        for name, state in self.states.items():
            if name in self.region_finish:
                continue
            flags = []
            if not self.region_started[name]:
                flags.append("not started")
            if self.blocked(name):
                flags.append("barrier-blocked")
            lines.append(
                f"  region {name}: fired {state.fired}/"
                f"{state.total_instances}, ii {state.ii}, "
                f"inflight {len(state.inflight)}"
                + (f" [{', '.join(flags)}]" if flags else "")
            )
            for port_name, (port, lanes) in state.in_ports.items():
                lines.append(
                    f"    in  {port_name}: fill {port.fill}/"
                    f"{port.capacity} (needs {lanes}), "
                    f"{self._segment_brief(port.active_segment())}"
                )
            for port_name, port in state.out_ports.items():
                segment = None
                for candidate in port.segments:
                    if not candidate.done:
                        segment = candidate
                        break
                lines.append(
                    f"    out {port_name}: fill {port.fill}/"
                    f"{port.capacity}, "
                    f"{self._segment_brief(segment)}"
                )
        return "\n".join(lines)

    @staticmethod
    def _segment_brief(segment):
        if segment is None:
            return "segments exhausted"
        detail = f"{segment.kind}"
        if segment.kind == "mem":
            detail += f"/{segment.channel}@{segment.memory_name}"
        produced = ""
        if segment.filled:
            produced = f", {segment.filled} produced"
        return (
            f"segment {detail}: {segment.words - segment.moved}/"
            f"{segment.words} words left{produced}"
        )


class CycleSimulator:
    """Simulate a compiled scope on its scheduled ADG."""

    def __init__(self, adg, scope, schedule, program=None,
                 config_cycles=None):
        self.adg = adg
        self.scope = scope
        self.schedule = schedule
        self.program = program or generate_control_program(scope, schedule)
        if config_cycles is None:
            # Until the hardware generator provides real config paths,
            # approximate: one word per configurable node.
            config_cycles = max(
                1, len(adg.pes()) + len(adg.switches())
            )
        self.config_cycles = config_cycles
        self.timing = compute_timing(schedule, RoutingGraph(adg))

    # ------------------------------------------------------------------
    def run(self, memory, engine=None, telemetry=None):
        """Execute functionally, then replay with timing.

        ``memory`` is mutated to the program's final state. ``engine``
        picks the replay loop (``"event"`` skips cycles, ``"stepped"``
        is the single-cycle oracle; both produce identical results).
        ``telemetry`` optionally collects ``sim_*`` counters and
        ``sim/*`` phase timers. Returns a :class:`SimResult` whose
        ``cycles`` is the modeled wall-clock.
        """
        engine = _resolve_engine(engine)
        telemetry = telemetry or Telemetry(enabled=False)
        trace = {}
        with telemetry.timer("sim/functional"):
            execute_scope(self.scope, memory, trace=trace)
        with telemetry.timer("sim/build"):
            states = self._build_states(trace)
            replay = _Replay(self, states)
        with telemetry.timer("sim/replay"):
            result = replay.replay(engine, memory)
        telemetry.incr("sim_runs")
        telemetry.incr("sim_cycles_modeled", result.cycles)
        telemetry.incr("sim_steps_executed", replay.steps)
        telemetry.incr("sim_cycles_skipped",
                       replay.idle_cycles + replay.batch_cycles)
        telemetry.incr("sim_idle_jumps", replay.idle_jumps)
        telemetry.incr("sim_idle_cycles_skipped", replay.idle_cycles)
        telemetry.incr("sim_bulk_fire_events", replay.batch_jumps)
        telemetry.incr("sim_bulk_cycles_skipped", replay.batch_cycles)
        telemetry.incr("sim_bulk_instances", replay.batch_instances)
        return result

    # ------------------------------------------------------------------
    def _port_capacity(self, region_name, dfg_port_name):
        hw_name = None
        for vertex, hw in self.schedule.placement.items():
            if vertex.region != region_name:
                continue
            node = self.schedule.node_of(vertex)
            if node.kind in (NodeKind.INPUT, NodeKind.OUTPUT) \
                    and node.name == dfg_port_name:
                hw_name = hw
                break
        if hw_name is None or not self.adg.has_node(hw_name):
            return 8
        element = self.adg.node(hw_name)
        if isinstance(element, SyncElement):
            return element.depth * element.lanes64
        return 8

    def _segments_for(self, region, port, binding, trace_words=None):
        segments = []
        for stream in as_stream_list(binding):
            if isinstance(stream, ConstStream):
                segments.append(_Segment("const", stream.volume()))
            elif isinstance(stream, RecurrenceStream):
                # Non-discarding reads (repeat > 1) move one physical
                # word that the port re-reads many times.
                segments.append(_Segment(
                    "recur", stream.length // stream.repeat,
                    repeat=stream.repeat,
                ))
            else:
                memory_name = self.schedule.stream_binding.get(
                    (region.name, port)
                )
                mem = (
                    self.adg.node(memory_name)
                    if memory_name and self.adg.has_node(memory_name)
                    else None
                )
                line_words = 8
                coalescing = False
                if isinstance(mem, Memory):
                    line_words = max(1, mem.width_bytes // stream.word_bytes)
                    coalescing = mem.coalescing
                words = stream.volume()
                if getattr(stream, "scalarized", False):
                    channel, rate = "scalar", 1.0
                elif isinstance(stream, IndirectStream):
                    channel, rate = "indirect", 1.0
                else:
                    requests = max(1, stream_requests(
                        stream, line_words=line_words,
                        coalescing=coalescing,
                    ))
                    channel, rate = "line", max(1.0, words / requests)
                segments.append(_Segment(
                    "mem", words, memory_name=memory_name,
                    rate_words=rate, channel=channel,
                ))
        if trace_words is not None:
            # Compacting outputs move fewer words than declared.
            declared = sum(s.words for s in segments)
            actual = trace_words
            if actual < declared:
                excess = declared - actual
                for segment in reversed(segments):
                    shave = min(excess, segment.words)
                    segment.words -= shave
                    excess -= shave
                    if not excess:
                        break
        return segments

    def _build_states(self, trace):
        states = {}
        recur_queues = {}  # source port name -> list of consumer ports
        for region in self.scope.regions:
            record = trace.get(region.name)
            if record is None:
                raise SimulationError(
                    f"no functional trace for region {region.name!r}"
                )
            state = _RegionState(
                region, self.timing.regions.get(region.name), record
            )
            for node in region.dfg.inputs():
                binding = region.input_streams[node.name]
                segments = self._segments_for(region, node.name, binding)
                port = _Port(
                    f"{region.name}:{node.name}",
                    self._port_capacity(region.name, node.name),
                    segments,
                )
                state.in_ports[node.name] = (port, node.lanes)
                for stream in as_stream_list(binding):
                    if isinstance(stream, RecurrenceStream):
                        recur_queues.setdefault(
                            stream.source_port, []
                        ).append(port)
            for node in region.dfg.outputs():
                binding = region.output_streams[node.name]
                total_emitted = sum(record["emitted"][node.name])
                segments = self._segments_for(
                    region, node.name, binding, trace_words=total_emitted
                )
                port = _Port(
                    f"{region.name}:{node.name}",
                    self._port_capacity(region.name, node.name),
                    segments,
                )
                state.out_ports[node.name] = port
            states[region.name] = state

        # Wire recurrence sinks: producer output port -> consumer input
        # port(s), bounded by the recurrence segment lengths.
        for state in states.values():
            for out_name, port in state.out_ports.items():
                sinks = []
                for consumer_port in recur_queues.get(out_name, []):
                    recur_words = sum(
                        seg.words for seg in consumer_port.segments
                        if seg.kind == "recur"
                    )
                    sinks.append([consumer_port, recur_words])
                if sinks:
                    state.recur_sinks[out_name] = sinks
        return states


def simulate(adg, compiled, memory, config_cycles=None, engine=None,
             telemetry=None):
    """Convenience: simulate a :class:`CompiledKernel` on ``adg``."""
    simulator = CycleSimulator(
        adg, compiled.scope, compiled.schedule,
        program=compiled.program, config_cycles=config_cycles,
    )
    return simulator.run(memory, engine=engine, telemetry=telemetry)
