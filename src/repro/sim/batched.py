"""Batched columnar replay: step B simulation instances in lock-step.

Fault campaigns and fuzz sweeps simulate many near-identical
(ADG, schedule) pairs: one base topology, lanes differing only in
fault-induced parameters (degraded FIFO depths, reduced banks, repaired
placements) and/or input data. This engine maps the scalar
:class:`~repro.sim.machine._Replay` state — FIFO fills, busy counters,
stream progress, monotone firing counters — onto numpy
structure-of-arrays storage and advances every lane through the same
per-cycle transition function at once. Python loops run over the
*structure* (regions, ports, segments — a handful each); numpy runs
over the *lanes*.

Layout and discipline:

* **Structure-of-arrays** — every per-lane scalar of the object-graph
  machine becomes one row of an ``int64``/``float64`` matrix indexed
  ``[structure, lane]``: segment ``words/moved/filled/carry``, port
  ``fill/cursor``, region ``fired/next_fire``, in-flight instances in a
  fixed-size ring per region. The transition math is copied from
  ``machine.py`` stage by stage (including its truncation and
  truthiness quirks) so every lane is bit-identical to a scalar
  ``stepped`` run.
* **Grouping** — lanes are grouped by structural signature (region,
  port, segment, command and barrier shape). Each group steps as one
  matrix; singleton groups still run through the same code path.
  Lanes with identical ``(scope, input memory)`` share one functional
  pass.
* **Global event skipping** — when *no* lane changed in a cycle, jump
  to the earliest per-lane event horizon; when the concatenated
  bounded state of all lanes repeats with some period, extrapolate all
  monotone counters analytically (the scalar event engine's steady-
  state batch firing, applied to the whole matrix).
* **Lane eviction** — a lane that trips its deadlock deadline, or a
  group the vector path cannot represent, is individually re-run on
  the scalar ``stepped`` oracle (same trace, fresh machine state), so
  a diverging lane never poisons the batch and its
  :class:`SimulationError` diagnostics are identical by construction.

``simulate_batch`` is the only entry point: single-case runs use the
scalar engines of :func:`repro.sim.simulate`.
"""

from dataclasses import dataclass

import numpy as _np

from repro.compiler.codegen import CommandKind
from repro.errors import SimulationError
from repro.ir.interp import execute_scope
from repro.sim.machine import (
    RECURRENCE_LATENCY,
    SCALAR_ACCESS_CYCLES,
    _HISTORY_LIMIT,
    _Replay,
    CycleSimulator,
    deadlock_deadline,
)
from repro.utils.telemetry import Telemetry

__all__ = ["BatchCase", "simulate_batch"]

_ISSUE_KINDS = (CommandKind.ISSUE_STREAM, CommandKind.ISSUE_CONST,
                CommandKind.ISSUE_RECUR)
_FAR = 1 << 62


@dataclass
class BatchCase:
    """One lane of a batched simulation.

    ``memory`` is mutated to the program's final state, exactly as
    :func:`repro.sim.simulate` mutates its argument. ``adg``/
    ``compiled`` default to the batch-level pair; lanes may override
    both (fault variants of one base design). ``config_cycles``
    mirrors the :class:`CycleSimulator` parameter. ``deadline_factor``
    replaces ``machine._DEADLOCK_FACTOR`` in
    :func:`~repro.sim.machine.deadlock_deadline` for this lane only
    (tests use it to force per-lane deadlocks).
    """

    memory: dict
    adg: object = None
    compiled: object = None
    config_cycles: int = None
    deadline_factor: int = None


class _GroupFallback(Exception):
    """Raised when the vector path cannot represent a group; every
    lane of the group is evicted to the scalar oracle."""


@dataclass
class _Lane:
    sim: CycleSimulator
    case: BatchCase
    trace: dict = None
    replay: _Replay = None
    deadline_override: int = None
    result: object = None
    error: SimulationError = None

    @property
    def memory(self):
        return self.case.memory


def _structure_signature(replay):
    """Everything that must match for lanes to share one state matrix:
    region/port/segment shape, stream kinds and channels, join specs,
    recurrence wiring, command sequence, barrier prefixes. Numeric
    parameters (depths, rates, words, latencies) stay per-lane."""
    regions = []
    for state in replay.state_list:
        region = state.region
        ins = tuple(
            (name, lanes,
             tuple((seg.kind, seg.channel, seg.memory_name)
                   for seg in port.segments))
            for name, (port, lanes) in state.in_ports.items()
        )
        outs = tuple(
            (name,
             tuple((seg.kind, seg.channel, seg.memory_name)
                   for seg in port.segments))
            for name, port in state.out_ports.items()
        )
        join = None
        if region.join_spec is not None:
            spec = region.join_spec
            join = (spec.left_key, tuple(spec.left_payloads),
                    spec.right_key, tuple(spec.right_payloads))
        sinks = tuple(
            (out_name, tuple(sink[0].name for sink in sink_list))
            for out_name, sink_list in state.recur_sinks.items()
        )
        regions.append((region.name, ins, outs, join, sinks))
    return (
        tuple(regions),
        tuple(m.name for m in replay.memories),
        tuple((command.kind, getattr(command, "region", None))
              for _, command in replay.command_schedule),
        tuple(tuple(s.region.name for s in replay._barrier_prefix[name])
              for name in replay.states),
    )


class _SegPack:
    __slots__ = ("gid", "kind", "channel", "memory")

    def __init__(self, gid, seg):
        self.gid = gid
        self.kind = seg.kind
        self.channel = seg.channel
        self.memory = seg.memory_name


class _PortPack:
    __slots__ = ("gid", "name", "region_idx", "is_input", "need",
                 "s0", "s1", "segs")

    def __init__(self, gid, name, region_idx, is_input, need, s0, segs):
        self.gid = gid
        self.name = name
        self.region_idx = region_idx
        self.is_input = is_input
        self.need = need
        self.s0 = s0
        self.s1 = s0 + len(segs)
        self.segs = segs


class _RegionPack:
    __slots__ = ("idx", "name", "in_ports", "out_ports", "join",
                 "sinks_by_out", "ring_k", "ring_comp", "ring_w",
                 "barrier_prefix", "emitted",
                 "pops_l", "pops_r", "jlen")

    def __init__(self, idx, name):
        self.idx = idx
        self.name = name
        self.in_ports = []
        self.out_ports = []
        self.join = None            # (left_gids, right_gids)
        self.sinks_by_out = {}      # out local index -> [sink index]
        self.ring_k = 2
        self.barrier_prefix = ()
        self.emitted = []           # per out: (B, I) int64
        self.pops_l = None
        self.pops_r = None
        self.jlen = None


class _BatchMachine:
    """Lock-step replay of one structurally homogeneous lane group."""

    def __init__(self, lanes):
        np = _np
        self.np = np
        self.lanes = lanes
        B = self.B = len(lanes)
        self.lane_ids = np.arange(B)
        self._pack_structure()
        self._pack_lanes()
        self.cycle = 0
        self.changed = False
        self.active = np.ones(B, dtype=bool)
        self.result_cycles = np.full(B, -1, dtype=np.int64)
        self.history = {}
        self._cmds_live = True
        # Earliest cycle any in-flight instance can complete — lets the
        # completion scan short-circuit on the steps in between.
        self._next_comp = 0
        # Per-step scratch (stage 3 resets these per memory engine
        # instead of reallocating every visit).
        self._line_budget = np.zeros(B, np.int64)
        self._indirect_budget = np.zeros(B, np.int64)
        self._scalar_ready = np.zeros(B, bool)
        self._served = np.zeros(B, bool)
        self.steps = 0
        self.idle_jumps = 0
        self.idle_cycles = 0
        self.bulk_jumps = 0
        self.bulk_cycles = 0
        self.bulk_instances = 0

    # -- packing --------------------------------------------------------
    def _pack_structure(self):
        np = self.np
        B = self.B
        replay0 = self.lanes[0].replay
        self.regions = []
        self.ports = []
        self.sinks = []             # consumer port gid per sink
        port_gid_by_name = {}
        seg_count = 0

        for ridx, state in enumerate(replay0.state_list):
            pack = _RegionPack(ridx, state.region.name)
            for name, (port, need) in state.in_ports.items():
                segs = [_SegPack(seg_count + i, seg)
                        for i, seg in enumerate(port.segments)]
                pp = _PortPack(len(self.ports), port.name, ridx, True,
                               need, seg_count, segs)
                seg_count += len(segs)
                self.ports.append(pp)
                port_gid_by_name[port.name] = pp.gid
                pack.in_ports.append(pp)
            for name, port in state.out_ports.items():
                segs = [_SegPack(seg_count + i, seg)
                        for i, seg in enumerate(port.segments)]
                pp = _PortPack(len(self.ports), port.name, ridx, False,
                               0, seg_count, segs)
                seg_count += len(segs)
                self.ports.append(pp)
                port_gid_by_name[port.name] = pp.gid
                pack.out_ports.append((pp, name))
            if state.region.join_spec is not None:
                spec = state.region.join_spec
                prefix = state.region.name + ":"
                left = [port_gid_by_name[prefix + n]
                        for n in [spec.left_key] + list(spec.left_payloads)]
                right = [port_gid_by_name[prefix + n]
                         for n in [spec.right_key]
                         + list(spec.right_payloads)]
                pack.join = (left, right)
            self.regions.append(pack)

        # Recurrence sinks, in the scalar machine's iteration order.
        for ridx, state in enumerate(replay0.state_list):
            pack = self.regions[ridx]
            out_index = {name: oi
                         for oi, (_pp, name) in enumerate(pack.out_ports)}
            for out_name, sink_list in state.recur_sinks.items():
                indices = []
                for consumer_port, _left in sink_list:
                    indices.append(len(self.sinks))
                    self.sinks.append(port_gid_by_name[consumer_port.name])
                pack.sinks_by_out[out_index[out_name]] = indices

        order = {name: i for i, name in enumerate(replay0.states)}
        for pack, name in zip(self.regions, replay0.states):
            pack.barrier_prefix = tuple(
                order[s.region.name]
                for s in replay0._barrier_prefix[name]
            )

        self.R = len(self.regions)
        self.P = len(self.ports)
        self.S = seg_count
        self.Sk = len(self.sinks)
        self.mem_names = [m.name for m in replay0.memories]
        self.M = len(self.mem_names)
        self.C = len(replay0.command_schedule)
        self.cmd_region = np.full(max(1, self.C), -1, dtype=np.int64)
        for ci, (_clock, command) in enumerate(replay0.command_schedule):
            if command.kind in _ISSUE_KINDS:
                self.cmd_region[ci] = order[command.region]

        # Per-memory service order: (region pack, in ports, out ports)
        # bound to that memory, in the scalar round-robin order.
        self.mem_visits = []
        for name in self.mem_names:
            visits = []
            for pack in self.regions:
                ins = [p for p in pack.in_ports
                       if any(s.kind == "mem" and s.memory == name
                              for s in p.segs)]
                outs = [p for p, _n in pack.out_ports
                        if any(s.kind == "mem" and s.memory == name
                               for s in p.segs)]
                if ins or outs:
                    visits.append((pack, ins, outs))
            self.mem_visits.append(visits)
        self.const_ports = [
            (pack, p, [sp for sp in p.segs if sp.kind == "const"])
            for pack in self.regions
            for p in pack.in_ports
            if any(sp.kind == "const" for sp in p.segs)
        ]
        self.scalar_segs = [
            (sp.gid, pack.idx)
            for pack in self.regions
            for p in pack.in_ports + [pp for pp, _n in pack.out_ports]
            for sp in p.segs
            if sp.channel == "scalar"
        ]
        self._scalar_seg_gids = np.array(
            [g for g, _ in self.scalar_segs], dtype=np.int64)
        self._scalar_seg_ridx = np.array(
            [r for _, r in self.scalar_segs], dtype=np.int64)
        self.join_regions = [pack for pack in self.regions if pack.join]
        # Snapshot-key helpers: the gids of all out-port segments
        # (keyed by bounded backlog, never by their monotone counters)
        # and each port's segment-row bounds for the carry-under-cursor
        # part of the key.
        self._out_seg_gids = np.array(
            [sp.gid for pack in self.regions
             for p, _n in pack.out_ports for sp in p.segs],
            dtype=np.int64,
        )
        self._port_s0 = np.array([p.s0 for p in self.ports],
                                 dtype=np.int64)
        self._port_last = np.array(
            [max(p.s0, p.s1 - 1) for p in self.ports], dtype=np.int64)

    def _pack_lanes(self):
        np = self.np
        B, R, P, S, M, C = self.B, self.R, self.P, self.S, self.M, self.C
        i64, f64 = np.int64, np.float64
        self.seg_words = np.zeros((S, B), i64)
        self.seg_moved = np.zeros((S, B), i64)
        self.seg_filled = np.zeros((S, B), i64)
        self.seg_repeat = np.ones((S, B), i64)
        self.seg_rate = np.zeros((S, B), f64)
        self.seg_carry = np.zeros((S, B), f64)
        self.port_fill = np.zeros((P, B), i64)
        self.port_cap = np.ones((P, B), i64)
        self.port_cursor = np.zeros((P, B), i64)
        self.port_assign = np.zeros((P, B), i64)
        self.inflight_w = np.zeros((P, B), i64)
        self.started = np.zeros((R, B), bool)
        self.finished_at = np.full((R, B), -1, i64)
        self.fired = np.zeros((R, B), i64)
        self.completed = np.zeros((R, B), i64)
        self.total = np.zeros((R, B), i64)
        self.next_fire = np.zeros((R, B), i64)
        self.join_busy = np.zeros((R, B), i64)
        self.join_cursor = np.zeros((R, B), i64)
        self.ii = np.ones((R, B), i64)
        self.latency = np.ones((R, B), i64)
        self.jcpc = np.ones((R, B), i64)
        self.memory_busy = np.zeros((M, B), i64)
        self.banks = np.ones((M, B), i64)
        self.sink_left = np.zeros((max(1, self.Sk), B), i64)
        self.cmd_ready = np.zeros((max(1, C), B), i64)
        self.cmd_idx = np.zeros(B, i64)
        self.deadline = np.zeros(B, i64)
        self.pending = [[] for _ in range(B)]  # [arrival, port_gid, words]

        emit_width = [[0] * len(pack.out_ports) for pack in self.regions]
        pops_width = [0] * R
        for lane in self.lanes:
            for ridx, state in enumerate(lane.replay.state_list):
                for oi, (_pp, name) in enumerate(
                        self.regions[ridx].out_ports):
                    emit_width[ridx][oi] = max(
                        emit_width[ridx][oi], len(state.emitted[name]))
                pops_width[ridx] = max(pops_width[ridx],
                                       len(state.join_pops))
        for ridx, pack in enumerate(self.regions):
            pack.emitted = [
                np.full((B, max(1, width)), -1, i64)
                for width in emit_width[ridx]
            ]
            if pack.join:
                width = max(1, pops_width[ridx])
                pack.pops_l = np.zeros((B, width), i64)
                pack.pops_r = np.zeros((B, width), i64)
                pack.jlen = np.zeros(B, i64)

        for li, lane in enumerate(self.lanes):
            replay = lane.replay
            gid = 0
            sid = 0
            sk = 0
            for ridx, state in enumerate(replay.state_list):
                pack = self.regions[ridx]
                self.ii[ridx, li] = state.ii
                self.latency[ridx, li] = state.latency
                self.total[ridx, li] = state.total_instances
                self.jcpc[ridx, li] = state.join_cycle_per_comparison
                for name, (port, _need) in state.in_ports.items():
                    self.port_cap[gid, li] = port.capacity
                    for seg in port.segments:
                        self.seg_words[sid, li] = seg.words
                        self.seg_repeat[sid, li] = seg.repeat
                        self.seg_rate[sid, li] = seg.rate_words
                        sid += 1
                    gid += 1
                for oi, (name, port) in enumerate(state.out_ports.items()):
                    self.port_cap[gid, li] = port.capacity
                    for seg in port.segments:
                        self.seg_words[sid, li] = seg.words
                        self.seg_repeat[sid, li] = seg.repeat
                        self.seg_rate[sid, li] = seg.rate_words
                        sid += 1
                    gid += 1
                    values = state.emitted[name]
                    pack.emitted[oi][li, :len(values)] = values
                for sink_list in state.recur_sinks.values():
                    for _consumer, left in sink_list:
                        self.sink_left[sk, li] = left
                        sk += 1
                if pack.join:
                    pops = state.join_pops
                    pack.jlen[li] = len(pops)
                    for ji, (lp, rp) in enumerate(pops):
                        pack.pops_l[li, ji] = lp
                        pack.pops_r[li, ji] = rp
            for mi, memory_node in enumerate(replay.memories):
                self.banks[mi, li] = memory_node.banks
            for ci, (clock, _command) in enumerate(replay.command_schedule):
                self.cmd_ready[ci, li] = clock
            self.deadline[li] = (
                lane.deadline_override
                if lane.deadline_override is not None
                else replay.deadline
            )

        # In-flight ring: enough slots for every instance fired within
        # one latency window, plus slack (defensively checked at fire).
        for pack in self.regions:
            row = self.latency[pack.idx] // np.maximum(1, self.ii[pack.idx])
            pack.ring_k = int(row.max()) + 3
            pack.ring_comp = np.zeros((B, pack.ring_k), i64)
            pack.ring_w = [np.zeros((B, pack.ring_k), i64)
                           for _ in pack.out_ports]

    # -- derived state --------------------------------------------------
    def _walk(self, port):
        """Advance ``port.cursor`` past completed segments (all lanes).

        Only the row under each lane's cursor is tested per round —
        cursors advance at most one segment per round, so the full
        (n, B) done matrix is never needed."""
        n = len(port.segs)
        if not n:
            return
        np = self.np
        cur = self.port_cursor[port.gid]
        s0 = port.s0
        lanes = self.lane_ids
        for _ in range(n):
            rows = s0 + np.minimum(cur, n - 1)
            advance = (self.seg_moved[rows, lanes]
                       >= self.seg_words[rows, lanes]) & (cur < n)
            if not advance.any():
                return
            cur[advance] += 1

    def _done_vec(self, pack):
        done = (self.fired[pack.idx] >= self.total[pack.idx]) \
            & (self.completed[pack.idx] >= self.fired[pack.idx])
        if not done.any():
            return done
        for port, _name in pack.out_ports:
            self._walk(port)
            done &= (self.port_cursor[port.gid] >= len(port.segs)) \
                & (self.port_fill[port.gid] == 0)
        return done

    def _eligible(self, pack):
        mask = self.active & self.started[pack.idx]
        if pack.barrier_prefix and mask.any():
            blocked = self.np.zeros(self.B, bool)
            for bidx in pack.barrier_prefix:
                blocked |= ~self._done_vec(self.regions[bidx])
            mask &= ~blocked
        return mask

    def _scalar_pending_vec(self):
        if not self.scalar_segs:
            return self.np.zeros(self.B, bool)
        gids = self._scalar_seg_gids
        return ((self.seg_moved[gids] < self.seg_words[gids])
                & self.started[self._scalar_seg_ridx]).any(axis=0)

    # -- one cycle ------------------------------------------------------
    def _step(self):
        np = self.np
        cycle = self.cycle
        changed = False

        # 1. Core: activate commands whose issue time arrived. Once no
        # active lane has commands left this stage is a no-op forever
        # (lanes only ever deactivate), so it switches itself off.
        if self.C and self._cmds_live:
            while True:
                mask = self.active & (self.cmd_idx < self.C)
                if not mask.any():
                    self._cmds_live = False
                    break
                idx = np.minimum(self.cmd_idx, self.C - 1)
                ready = self.cmd_ready[idx, self.lane_ids]
                fire = mask & (ready <= cycle)
                if not fire.any():
                    break
                for ci in set(idx[fire].tolist()):
                    region = int(self.cmd_region[ci])
                    if region >= 0:
                        self.started[region] |= fire & (idx == ci)
                self.cmd_idx[fire] += 1
                changed = True

        # 2. Recurrence deliveries (sparse; handled per lane — and
        # skipped wholesale on workloads with no recurrences in flight).
        # Ports are walked once per step, not once per entry — a
        # delivery that completes a segment drops its port from the
        # memo so the next entry re-walks.
        walked = set()
        for li in (range(self.B) if any(self.pending) else ()):
            entries = self.pending[li]
            if not entries or not self.active[li]:
                continue
            remaining = []
            for entry in entries:
                arrival, gid, words = entry
                if arrival <= cycle:
                    port = self.ports[gid]
                    if gid not in walked:
                        self._walk(port)
                        walked.add(gid)
                    cur = int(self.port_cursor[gid, li])
                    space = int(self.port_cap[gid, li]
                                - self.port_fill[gid, li])
                    take = min(words, max(1, space))
                    if cur < len(port.segs) \
                            and port.segs[cur].kind == "recur":
                        sg = port.s0 + cur
                        moved = min(take, int(self.seg_words[sg, li]
                                              - self.seg_moved[sg, li]))
                        self.seg_moved[sg, li] += moved
                        self.port_fill[gid, li] += (
                            moved * int(self.seg_repeat[sg, li])
                        )
                        words -= moved
                        if moved:
                            changed = True
                            if self.seg_moved[sg, li] >= \
                                    self.seg_words[sg, li]:
                                walked.discard(gid)
                    if words > 0:
                        remaining.append([arrival, gid, words])
                else:
                    remaining.append(entry)
            self.pending[li] = remaining

        # 3. Memory engines: serve reads, drain writes. Eligibility for
        # barrier-free regions is fixed for the rest of the step once
        # stage 1 has updated ``started`` (barriered regions re-check:
        # their prefix can drain mid-step).
        elig_cache = {}

        def eligible_for(pack):
            if pack.barrier_prefix:
                return self._eligible(pack)
            mask = elig_cache.get(pack.idx)
            if mask is None:
                mask = elig_cache[pack.idx] = self._eligible(pack)
            return mask

        for mi in range(self.M):
            visits = self.mem_visits[mi]
            if not visits:
                continue
            line_budget = self._line_budget
            line_budget[:] = self.active
            indirect_budget = self._indirect_budget
            indirect_budget[:] = self.banks[mi]
            scalar_ready = self._scalar_ready
            scalar_ready[:] = cycle % SCALAR_ACCESS_CYCLES == 0
            served = self._served
            served[:] = False
            for pack, ins, outs in visits:
                eligible = eligible_for(pack)
                if not eligible.any():
                    continue
                for port in ins:
                    changed |= self._serve_port(
                        port, mi, eligible, line_budget,
                        indirect_budget, scalar_ready, served,
                        drain=False,
                    )
                for port in outs:
                    changed |= self._serve_port(
                        port, mi, eligible, line_budget,
                        indirect_budget, scalar_ready, served,
                        drain=True,
                    )
            self.memory_busy[mi] += served

        # 4. Const segments refill freely (started regions only).
        for pack, port, const_segs in self.const_ports:
            mask = self.active & self.started[pack.idx]
            if not mask.any():
                continue
            self._walk(port)
            cur = self.port_cursor[port.gid]
            fill = self.port_fill[port.gid]
            for sp in const_segs:
                at = mask & (cur == (sp.gid - port.s0))
                if not at.any():
                    continue
                left = self.seg_words[sp.gid] - self.seg_moved[sp.gid]
                take = np.minimum(self.port_cap[port.gid] - fill, left)
                moved = np.where(at, take, 0)
                self.seg_moved[sp.gid] += moved
                fill += moved
                if moved.any():
                    changed = True

        # 5. Fabric: complete in-flight instances, then fire. The scan
        # is skipped while no in-flight completion can be due yet
        # (``_next_comp`` is a lower bound maintained at push/apply).
        if cycle >= self._next_comp:
            for pack in self.regions:
                changed |= self._complete_inflight(pack)
            self._next_comp = self._completion_bound()
        self._fired_this_step = False
        for pack in self.regions:
            mask = eligible_for(pack)
            mask = mask & (self.fired[pack.idx] < self.total[pack.idx]) \
                & (cycle >= self.next_fire[pack.idx])
            if not mask.any():
                continue
            if pack.join:
                fired = self._fire_join(pack, mask)
            else:
                fired = self._fire(pack, mask)
            changed |= fired
            self._fired_this_step |= fired

        # 6. Record freshly drained regions.
        for pack in self.regions:
            pending = self.active & (self.finished_at[pack.idx] < 0)
            if not pending.any():
                continue
            newly = pending & self._done_vec(pack)
            if newly.any():
                self.finished_at[pack.idx][newly] = cycle
                changed = True
        return changed

    def _serve_port(self, port, mi, eligible, line_budget,
                    indirect_budget, scalar_ready, served, drain):
        np = self.np
        changed = False
        self._walk(port)
        cur = self.port_cursor[port.gid]
        fill = self.port_fill[port.gid]
        name = self.mem_names[mi]
        # Only segments under some lane's cursor can be served; on
        # multi-segment ports (one segment per matrix row) this skips
        # the bulk of the list.
        lo = int(cur.min())
        hi = min(int(cur.max()), len(port.segs) - 1)
        for sp in port.segs[lo:hi + 1]:
            if sp.kind != "mem" or sp.memory != name:
                continue
            at = eligible & (cur == (sp.gid - port.s0))
            if drain:
                at = at & (self.seg_filled[sp.gid] > self.seg_moved[sp.gid])
            if not at.any():
                continue
            gid = sp.gid
            left = self.seg_words[gid] - self.seg_moved[gid]
            if drain:
                available = np.minimum(
                    fill, self.seg_filled[gid] - self.seg_moved[gid])
            else:
                available = self.port_cap[port.gid] - fill
            if sp.channel == "line":
                mask = at & (line_budget > 0)
                if not mask.any():
                    continue
                carry = self.seg_carry[gid]
                budget = np.minimum(self.seg_rate[gid] + carry,
                                    available.astype(np.float64))
                take = np.minimum(np.trunc(budget).astype(np.int64), left)
                moved = np.where(mask, take, 0)
                moved_nz = moved != 0
                new_carry = np.where(
                    moved_nz,
                    np.maximum(0.0, self.seg_rate[gid] + carry - moved),
                    0.0,
                )
                new_carry = np.where(mask, new_carry, carry)
                if not changed and \
                        (mask & (moved_nz | (new_carry != carry))).any():
                    changed = True
                self.seg_carry[gid] = new_carry
                line_budget -= moved_nz
            elif sp.channel == "indirect":
                mask = at & (indirect_budget > 0)
                if not mask.any():
                    continue
                take = np.minimum(np.minimum(indirect_budget, available),
                                  left)
                moved = np.where(mask, take, 0)
                moved_nz = moved != 0
                indirect_budget -= moved
                if not changed and moved_nz.any():
                    changed = True
            else:  # scalar
                mask = at & scalar_ready
                if not mask.any():
                    continue
                take = np.minimum(np.minimum(1, available), left)
                moved = np.where(mask, take, 0)
                moved_nz = moved != 0
                scalar_ready &= ~moved_nz
                if not changed and moved_nz.any():
                    changed = True
            self.seg_moved[gid] += moved
            if drain:
                fill -= moved
            else:
                fill += moved
            served |= moved_nz
        return changed

    def _assign_production(self, port, words, mask):
        """Vector ``_Port.assign_production``: attribute fabric output
        words to segments in order; returns (recur_words, mem_words)."""
        np = self.np
        recur_words = np.zeros(self.B, np.int64)
        mem_words = np.zeros(self.B, np.int64)
        words = np.where(mask, words, 0)
        cur = self.port_assign[port.gid]
        n = len(port.segs)
        seg_words = self.seg_words[port.s0:port.s1]
        seg_filled = self.seg_filled[port.s0:port.s1]
        for _ in range(2 * n + 2):
            act = (words > 0) & (cur < n)
            if not act.any():
                return recur_words, mem_words
            idx = np.minimum(cur, n - 1)
            room = seg_words[idx, self.lane_ids] \
                - seg_filled[idx, self.lane_ids]
            advance = act & (room <= 0)
            cur[advance] += 1
            rest = act & ~advance
            if rest.any():
                take = np.where(rest, np.minimum(words, room), 0)
                lo = int(cur[rest].min())
                hi = min(int(cur[rest].max()), n - 1)
                for si in range(lo, hi + 1):
                    sp = port.segs[si]
                    at = rest & (cur == si)
                    if not at.any():
                        continue
                    part = np.where(at, take, 0)
                    self.seg_filled[sp.gid] += part
                    if sp.kind == "recur":
                        self.seg_moved[sp.gid] += part
                        recur_words += part
                    else:
                        mem_words += part
                words = words - take
        if ((words > 0) & (cur < n)).any():
            raise _GroupFallback("assign_production failed to converge")
        return recur_words, mem_words

    def _complete_inflight(self, pack):
        np = self.np
        cycle = self.cycle
        changed = False
        ring = pack.ring_comp
        ridx = pack.idx
        while True:
            has = self.active & (self.completed[ridx] < self.fired[ridx])
            if not has.any():
                break
            slot = self.completed[ridx] % pack.ring_k
            completion = ring[self.lane_ids, slot]
            mask = has & (completion <= cycle)
            if not mask.any():
                break
            changed = True
            for oi, (port, _name) in enumerate(pack.out_ports):
                words = np.where(mask, pack.ring_w[oi][self.lane_ids, slot],
                                 0)
                recur_words, mem_words = self._assign_production(
                    port, words, mask)
                self.port_fill[port.gid] += mem_words
                self.inflight_w[port.gid] -= words
                sink_indices = pack.sinks_by_out.get(oi)
                if sink_indices and recur_words.any():
                    for sink_index in sink_indices:
                        left = self.sink_left[sink_index]
                        take = np.where(
                            mask & (left > 0) & (recur_words > 0),
                            np.minimum(recur_words, left), 0,
                        )
                        self.sink_left[sink_index] -= take
                        recur_words = recur_words - take
                        consumer_gid = self.sinks[sink_index]
                        for li in np.nonzero(take > 0)[0]:
                            self.pending[li].append(
                                [cycle + RECURRENCE_LATENCY,
                                 consumer_gid, int(take[li])]
                            )
            self.completed[ridx][mask] += 1
        return changed

    def _completion_bound(self):
        """Earliest completion cycle over every active lane's in-flight
        instances (``_FAR`` when nothing is in flight)."""
        np = self.np
        bound = _FAR
        for pack in self.regions:
            ridx = pack.idx
            in_flight = self.fired[ridx] - self.completed[ridx]
            if not in_flight.any():
                continue
            width = int(in_flight.max())
            pos = self.completed[ridx][:, None] + np.arange(width)
            valid = (pos < self.fired[ridx][:, None]) \
                & self.active[:, None]
            if not valid.any():
                continue
            comp = pack.ring_comp[self.lane_ids[:, None],
                                  pos % pack.ring_k]
            bound = min(bound, int(comp[valid].min()))
        return bound

    def _gather_emission(self, pack, oi):
        index = self.np.minimum(self.fired[pack.idx],
                                pack.emitted[oi].shape[1] - 1)
        return pack.emitted[oi][self.lane_ids, index]

    def _push_inflight(self, pack, mask, emissions):
        np = self.np
        ridx = pack.idx
        if (mask & (self.fired[ridx] - self.completed[ridx]
                    >= pack.ring_k)).any():
            raise _GroupFallback("in-flight ring overflow")
        slot = self.fired[ridx] % pack.ring_k
        lanes = np.nonzero(mask)[0]
        completion = self.cycle + self.latency[ridx][lanes]
        pack.ring_comp[lanes, slot[lanes]] = completion
        self._next_comp = min(self._next_comp, int(completion.min()))
        for oi, (port, _name) in enumerate(pack.out_ports):
            pack.ring_w[oi][lanes, slot[lanes]] = emissions[oi][lanes]
            self.inflight_w[port.gid] += np.where(mask, emissions[oi], 0)
        self.fired[ridx] += mask

    def _fire(self, pack, mask):
        np = self.np
        ridx = pack.idx
        for port in pack.in_ports:
            mask = mask & (self.port_fill[port.gid] >= port.need)
            if not mask.any():
                return False
        emissions = []
        for oi, (port, _name) in enumerate(pack.out_ports):
            words = self._gather_emission(pack, oi)
            mask = mask & (self.port_fill[port.gid]
                           + self.inflight_w[port.gid] + words
                           <= self.port_cap[port.gid])
            emissions.append(words)
        if not mask.any():
            return False
        for port in pack.in_ports:
            self.port_fill[port.gid] -= np.where(mask, port.need, 0)
        self._push_inflight(pack, mask, emissions)
        self.next_fire[ridx] = np.where(
            mask, self.cycle + self.ii[ridx], self.next_fire[ridx])
        return True

    def _fire_join(self, pack, mask):
        np = self.np
        ridx = pack.idx
        mask = mask & (self.cycle >= self.join_busy[ridx]) \
            & (self.join_cursor[ridx] < pack.jlen)
        if not mask.any():
            return False
        index = np.minimum(self.join_cursor[ridx],
                           pack.pops_l.shape[1] - 1)
        left_pops = pack.pops_l[self.lane_ids, index]
        right_pops = pack.pops_r[self.lane_ids, index]
        left_gids, right_gids = pack.join
        for gid in left_gids:
            mask = mask & (self.port_fill[gid] >= left_pops)
        for gid in right_gids:
            mask = mask & (self.port_fill[gid] >= right_pops)
        if not mask.any():
            return False
        emissions = []
        for oi, (port, _name) in enumerate(pack.out_ports):
            words = self._gather_emission(pack, oi)
            # The scalar join path checks fill + words only (no
            # in-flight words) — replicated exactly.
            mask = mask & (self.port_fill[port.gid] + words
                           <= self.port_cap[port.gid])
            emissions.append(words)
        if not mask.any():
            return False
        for gid in left_gids:
            self.port_fill[gid] -= np.where(mask, left_pops, 0)
        for gid in right_gids:
            self.port_fill[gid] -= np.where(mask, right_pops, 0)
        comparisons = np.maximum(1, left_pops + right_pops - 1) \
            * self.jcpc[ridx]
        self.join_busy[ridx] = np.where(
            mask, self.cycle + comparisons, self.join_busy[ridx])
        self._push_inflight(pack, mask, emissions)
        self.join_cursor[ridx] += mask
        self.next_fire[ridx] = np.where(
            mask,
            self.cycle + np.maximum(self.ii[ridx], comparisons),
            self.next_fire[ridx],
        )
        return True

    # -- event skipping -------------------------------------------------
    def _idle_skip(self):
        """No lane changed: jump every lane to the earliest horizon."""
        np = self.np
        cycle = self.cycle
        horizon = np.full(self.B, _FAR, np.int64)
        if self.C:
            has = self.active & (self.cmd_idx < self.C)
            if has.any():
                idx = np.minimum(self.cmd_idx, self.C - 1)
                ready = self.cmd_ready[idx, self.lane_ids]
                horizon = np.where(has, np.minimum(horizon, ready), horizon)
        for li in range(self.B):
            if self.active[li]:
                for arrival, _gid, _words in self.pending[li]:
                    if cycle < arrival < horizon[li]:
                        horizon[li] = arrival
        for pack in self.regions:
            ridx = pack.idx
            for k in range(pack.ring_k):
                pos = self.completed[ridx] + k
                valid = self.active & (pos < self.fired[ridx])
                if not valid.any():
                    break
                completion = pack.ring_comp[self.lane_ids,
                                            pos % pack.ring_k]
                horizon = np.where(valid, np.minimum(horizon, completion),
                                   horizon)
            waiting = self.active & (self.fired[ridx] < self.total[ridx]) \
                & (self.next_fire[ridx] > cycle)
            horizon = np.where(
                waiting, np.minimum(horizon, self.next_fire[ridx]), horizon)
            busy = self.active & (self.join_busy[ridx] > cycle)
            horizon = np.where(
                busy, np.minimum(horizon, self.join_busy[ridx]), horizon)
        phase = cycle % SCALAR_ACCESS_CYCLES
        if phase and self.scalar_segs:
            pending = self.active & self._scalar_pending_vec()
            horizon = np.where(
                pending,
                np.minimum(horizon, cycle + SCALAR_ACCESS_CYCLES - phase),
                horizon,
            )
        target = np.where(horizon < _FAR, horizon - 1, self.deadline)
        target = np.minimum(target, self.deadline)
        jump = int(target[self.active].min())
        if jump > cycle:
            self.idle_jumps += 1
            self.idle_cycles += jump - cycle
            self.cycle = jump

    def _mono_matrix(self):
        return self.np.concatenate([
            self.memory_busy, self.fired, self.seg_moved,
            self.seg_filled, self.sink_left,
        ], axis=0)

    def _snapshot_key(self):
        """Fingerprint of all state that shapes future evolution,
        expressed in cycle-relative / bounded quantities so that two
        cycles in the same steady-state phase key identically.

        Keyed as a handful of whole-matrix byte dumps (this runs on
        every changed step). Monotone counters (fired, seg_moved, ...)
        must never appear raw — they never repeat — only as bounded
        differences; keying *extra* bounded state is always safe (it
        can only make period detection stricter, and the extrapolation
        itself is exact).
        """
        np = self.np
        cycle = self.cycle
        all_fired = self.fired >= self.total
        parts = [
            self.active,
            self.cmd_idx,
            np.where(self._scalar_pending_vec(),
                     cycle % SCALAR_ACCESS_CYCLES, -1),
            self.finished_at >= 0,
            all_fired,
            np.where(all_fired, 0,
                     np.maximum(0, self.next_fire - cycle)),
            self.port_fill,
            self.port_cursor,
            self.port_assign,
        ]
        osg = self._out_seg_gids
        if osg.size:
            filled = self.seg_filled[osg]
            moved = self.seg_moved[osg]
            words = self.seg_words[osg]
            parts.append(filled - moved)
            parts.append((filled >= words) * 2 + (moved >= words))
        for pack in self.regions:
            ridx = pack.idx
            in_flight = self.fired[ridx] - self.completed[ridx]
            if not in_flight.any():
                continue
            # The in-flight counts are appended first: they determine
            # this pack's part shapes, so equal blobs imply equal ring
            # layouts (no aliasing between layouts).
            parts.append(in_flight)
            width = int(in_flight.max())
            pos = self.completed[ridx][:, None] + np.arange(width)
            valid = pos < self.fired[ridx][:, None]
            slot = pos % pack.ring_k
            lanes = self.lane_ids[:, None]
            parts.append(np.where(
                valid, pack.ring_comp[lanes, slot] - cycle, -_FAR))
            for oi in range(len(pack.out_ports)):
                parts.append(np.where(
                    valid, pack.ring_w[oi][lanes, slot], -1))
        if self.Sk:
            parts.append(self.sink_left[:self.Sk] > 0)
        # Carries: only the segment under each port's cursor can have a
        # live carry — completed segments' carries are frozen and never
        # read again, unreached ones are still zero — so one row per
        # port (cursors are keyed above, fixing which segment that is)
        # captures every carry that can shape evolution, at a fraction
        # of the whole (S, B) matrix's hashing cost.
        under = np.minimum(self._port_s0[:, None] + self.port_cursor,
                           self._port_last[:, None])
        parts.append(self.seg_carry[under, self.lane_ids[None, :]])
        pend_key = ()
        if any(self.pending):
            pend_key = tuple(
                tuple((entry[0] - cycle if entry[0] > cycle else 0,
                       entry[1], entry[2])
                      for entry in entries)
                for entries in self.pending
            )
        blob = b"".join(np.ascontiguousarray(p).tobytes() for p in parts)
        # len(parts) disambiguates the variable-length ring section so
        # byte blobs from different part layouts cannot alias.
        return (len(parts), blob, pend_key)

    def _try_batch(self):
        """Detect a repeating global steady-state window and replay it
        analytically for every lane at once (the scalar event engine's
        batch firing, on the whole matrix)."""
        np = self.np
        for pack in self.join_regions:
            if (self.active
                    & (self.fired[pack.idx] < self.total[pack.idx])).any():
                return
        key = self._snapshot_key()
        previous = self.history.get(key)
        mono = self._mono_matrix()
        self.history[key] = (self.cycle, mono)
        if previous is None:
            if len(self.history) > _HISTORY_LIMIT:
                self.history.clear()
            return
        prev_cycle, prev_mono = previous
        period = self.cycle - prev_cycle
        delta = mono - prev_mono
        if not delta.any():
            return
        cap = self._max_repetitions(period, delta, prev_mono)
        if cap <= 0:
            return
        self._apply_repetitions(period, cap, delta)

    def _max_repetitions(self, period, delta, prev_mono):
        np = self.np
        cycle = self.cycle
        lane_cap = np.where(
            self.active, (self.deadline - cycle) // period, _FAR)
        if self.C:
            has = self.active & (self.cmd_idx < self.C)
            idx = np.minimum(self.cmd_idx, self.C - 1)
            ready = self.cmd_ready[idx, self.lane_ids]
            lane_cap = np.where(
                has, np.minimum(lane_cap, (ready - 1 - cycle) // period),
                lane_cap)
        cap = int(lane_cap.min())

        def constrain(cap, remaining, step):
            guarded = np.where(step != 0, step, 1)
            bounded = np.where(step != 0, remaining // guarded, _FAR)
            return min(cap, int(bounded.min()))

        M, R, S = self.M, self.R, self.S
        d_fired = delta[M:M + R]
        cap = constrain(cap, self.total - self.fired - 1, d_fired)
        cap = constrain(cap, self.seg_words - self.seg_moved - 1,
                        delta[M + R:M + R + S])
        cap = constrain(cap, self.seg_words - self.seg_filled - 1,
                        delta[M + R + S:M + R + 2 * S])
        if self.Sk:
            drained = -delta[M + R + 2 * S:M + R + 2 * S + self.Sk]
            cap = constrain(cap, self.sink_left[:self.Sk] - 1, drained)
        if cap <= 0:
            return 0
        # Emission patterns: every extrapolated instance must emit what
        # its window counterpart emitted, and relabeled in-flight
        # instances keep their observed words. Both hold exactly when
        # the emitted-words sequence is periodic in the window's
        # per-lane firing delta ``d`` across the extrapolated span —
        # which, unlike requiring one constant run, lets a window that
        # spans a whole outer-loop iteration (zeros plus the one
        # emitting instance) extrapolate across emission boundaries.
        # Indices past the table clamp to the last column, so the scan
        # pads the tail with it.
        prev_fired = prev_mono[M:M + R]
        for pack in self.regions:
            step = d_fired[pack.idx]
            if not step.any():
                continue
            fired = self.fired[pack.idx]
            lo = np.minimum(prev_fired[pack.idx],
                            self.completed[pack.idx])
            start = max(0, int(lo.min()))
            for oi in range(len(pack.out_ports)):
                seq = pack.emitted[oi]
                width = seq.shape[1]
                for d in set(step.tolist()):
                    if d <= 0:
                        continue
                    span = np.arange(start + d, width - 1 + d)
                    if not span.size:
                        continue
                    follow = seq[:, np.minimum(span, width - 1)]
                    base = seq[:, span - d]
                    bad = follow != base
                    has_bad = bad.any(axis=1)
                    first = np.where(
                        has_bad, bad.argmax(axis=1) + start + d, 0)
                    bounded = np.where(
                        (step == d) & has_bad,
                        (first - fired) // d, _FAR)
                    cap = min(cap, int(bounded.min()))
                    if cap <= 0:
                        return 0
        return cap

    def _apply_repetitions(self, period, repetitions, delta):
        np = self.np
        cycle = self.cycle
        skipped = repetitions * period
        M, R, S = self.M, self.R, self.S
        shift = repetitions * delta[M:M + R]
        # Re-slot in-flight entries: instance i becomes i + shift and
        # completes `skipped` cycles later.
        for pack in self.regions:
            ridx = pack.idx
            if not (self.fired[ridx] > self.completed[ridx]).any():
                continue
            new_comp = np.zeros_like(pack.ring_comp)
            new_w = [np.zeros_like(w) for w in pack.ring_w]
            for k in range(pack.ring_k):
                pos = self.completed[ridx] + k
                valid = pos < self.fired[ridx]
                if not valid.any():
                    break
                src = pos % pack.ring_k
                dst = (pos + shift[ridx]) % pack.ring_k
                lanes = np.nonzero(valid)[0]
                new_comp[lanes, dst[lanes]] = \
                    pack.ring_comp[lanes, src[lanes]] + skipped
                for oi in range(len(pack.ring_w)):
                    new_w[oi][lanes, dst[lanes]] = \
                        pack.ring_w[oi][lanes, src[lanes]]
            pack.ring_comp = new_comp
            pack.ring_w = new_w
        self.completed += shift
        self.memory_busy += repetitions * delta[:M]
        self.fired += shift
        self.seg_moved += repetitions * delta[M + R:M + R + S]
        self.seg_filled += repetitions * delta[M + R + S:M + R + 2 * S]
        if self.Sk:
            self.sink_left[:self.Sk] += repetitions * \
                delta[M + R + 2 * S:M + R + 2 * S + self.Sk]
        self.next_fire = np.where(
            self.next_fire > cycle, self.next_fire + skipped,
            self.next_fire)
        self.join_busy = np.where(
            self.join_busy > cycle, self.join_busy + skipped,
            self.join_busy)
        for li in range(self.B):
            for entry in self.pending[li]:
                if entry[0] > cycle:
                    entry[0] += skipped
        self.cycle += skipped
        # Every surviving in-flight completion moved out by ``skipped``;
        # a stale-low bound stays a valid lower bound after the shift.
        self._next_comp += skipped
        self.bulk_jumps += 1
        self.bulk_cycles += skipped
        self.bulk_instances += int(shift.sum())
        self.history.clear()

    # -- main loop ------------------------------------------------------
    def run(self):
        """Advance every lane to completion, deadlock, or eviction.

        Returns the lane indices (within this group) that deadlocked —
        they are re-run on the scalar oracle for identical diagnostics.
        """
        np = self.np
        deadlocked = []
        while self.active.any():
            changed = self._step()
            self.steps += 1
            if changed or self.steps == 1:
                # Completion is only possible on steps where state
                # moved (a quiet step leaves the done set untouched).
                finished = (self.finished_at >= 0).all(axis=0)
                done = self.active & (self.cmd_idx >= self.C) & finished
                if done.any():
                    self.result_cycles[done] = self.cycle + 1
                    self.active &= ~done
                    if not self.active.any():
                        break
            if changed:
                # Probe only on steps where a region fired: a recurring
                # steady state must fire every period (recurrence with
                # no firing would need some monotone counter — which
                # never keys equal — to stand still), so the fire phase
                # is a complete anchor at a fraction of the probes.
                if self._fired_this_step:
                    self._try_batch()
            else:
                self._idle_skip()
            self.cycle += 1
            over = self.active & (self.cycle > self.deadline)
            if over.any():
                deadlocked.extend(int(li) for li in np.nonzero(over)[0])
                self.active &= ~over
        return deadlocked

    def result_for(self, li):
        lane = self.lanes[li]
        return _make_result(
            lane,
            cycles=int(self.result_cycles[li]),
            region_cycles={
                pack.name: int(self.finished_at[pack.idx, li])
                for pack in self.regions
            },
            memory_busy={
                name: int(self.memory_busy[mi, li])
                for mi, name in enumerate(self.mem_names)
            },
            instances={
                pack.name: int(self.fired[pack.idx, li])
                for pack in self.regions
            },
        )


def _make_result(lane, cycles, region_cycles, memory_busy, instances):
    from repro.sim.machine import SimResult
    return SimResult(
        cycles=cycles,
        memory=lane.memory,
        region_cycles=region_cycles,
        memory_busy=memory_busy,
        instances=instances,
        config_cycles=lane.sim.config_cycles,
    )


def _memory_fingerprint(memory):
    return tuple(sorted(
        (name, tuple(values)) for name, values in memory.items()
    ))


def _scalar_rerun(lane, stats):
    """Evicted lane: replay on the scalar ``stepped`` oracle from the
    already-computed functional trace (bit-identical results and
    deadlock diagnostics by construction)."""
    states = lane.sim._build_states(lane.trace)
    replay = _Replay(lane.sim, states)
    if lane.deadline_override is not None:
        replay.deadline = lane.deadline_override
    try:
        lane.result = replay.replay("stepped", lane.memory)
    except SimulationError as exc:
        lane.error = exc
    stats["steps"] += replay.steps
    stats["evicted"] += 1


def _simulate_lanes(lanes, telemetry, stats):
    # Functional pass, shared across lanes with identical (scope,
    # input memory): the interpreter's result depends on nothing else.
    with telemetry.timer("sim/batch_functional"):
        functional_groups = {}
        for lane in lanes:
            key = (id(lane.sim.scope), _memory_fingerprint(lane.memory))
            functional_groups.setdefault(key, []).append(lane)
        for group in functional_groups.values():
            leader = group[0]
            leader.trace = {}
            # Lanes may share one scope object while carrying different
            # input data; re-bind config-time constants from this
            # group's memory so the shared scope matches the lane, just
            # as the scalar path binds immediately before simulating.
            leader.sim.scope.bind_constants(leader.memory)
            execute_scope(leader.sim.scope, leader.memory,
                          trace=leader.trace)
            for follower in group[1:]:
                for name in follower.memory:
                    follower.memory[name][:] = leader.memory[name]
                follower.trace = leader.trace
                stats["functional_shared"] += 1

    with telemetry.timer("sim/batch_build"):
        structural_groups = {}
        for lane in lanes:
            states = lane.sim._build_states(lane.trace)
            lane.replay = _Replay(lane.sim, states)
            if lane.case.deadline_factor is not None:
                lane.deadline_override = deadlock_deadline(
                    lane.replay, lane.sim.config_cycles,
                    lane.case.deadline_factor,
                )
            structural_groups.setdefault(
                _structure_signature(lane.replay), []).append(lane)

    with telemetry.timer("sim/batch_replay"):
        for group in structural_groups.values():
            stats["groups"] += 1
            try:
                machine = _BatchMachine(group)
                deadlocked = machine.run()
            except _GroupFallback:
                for lane in group:
                    _scalar_rerun(lane, stats)
                continue
            stats["steps"] += machine.steps
            stats["idle_jumps"] += machine.idle_jumps
            stats["idle_cycles"] += machine.idle_cycles
            stats["bulk_jumps"] += machine.bulk_jumps
            stats["bulk_cycles"] += machine.bulk_cycles
            stats["bulk_instances"] += machine.bulk_instances
            evict = set(deadlocked)
            for li, lane in enumerate(group):
                if li in evict:
                    _scalar_rerun(lane, stats)
                else:
                    lane.result = machine.result_for(li)


def simulate_batch(adg, compiled, cases, telemetry=None):
    """Simulate many cases in lock-step; returns one entry per case.

    ``cases`` holds :class:`BatchCase` instances (or bare memory dicts,
    wrapped as memory-only cases). Lanes default to the batch-level
    ``(adg, compiled)`` and may override both. Entries are
    :class:`SimResult` on success and the :class:`SimulationError` (not
    raised) for lanes that deadlock — a diverging lane is evicted to
    the scalar ``stepped`` oracle, never poisoning the batch. Every
    entry is bit-identical to a per-case ``engine="stepped"`` run,
    including each lane's final ``memory`` contents.

    As with :func:`repro.sim.simulate`, the caller binds constants
    before simulating; each case needs its own memory dict (lanes
    sharing one scope and identical input memory share one functional
    pass).
    """
    telemetry = telemetry or Telemetry(enabled=False)
    lanes = []
    for case in cases:
        if not isinstance(case, BatchCase):
            case = BatchCase(memory=case)
        sim = CycleSimulator(
            case.adg if case.adg is not None else adg,
            (case.compiled if case.compiled is not None
             else compiled).scope,
            (case.compiled if case.compiled is not None
             else compiled).schedule,
            program=(case.compiled if case.compiled is not None
                     else compiled).program,
            config_cycles=case.config_cycles,
        )
        lanes.append(_Lane(sim, case))
    if not lanes:
        return []
    stats = {"steps": 0, "idle_jumps": 0, "idle_cycles": 0,
             "bulk_jumps": 0, "bulk_cycles": 0, "bulk_instances": 0,
             "evicted": 0, "groups": 0, "functional_shared": 0}
    _simulate_lanes(lanes, telemetry, stats)
    telemetry.incr("sim_batch_runs")
    telemetry.incr("sim_batch_lanes", len(lanes))
    telemetry.incr("sim_batch_groups", stats["groups"])
    telemetry.incr("sim_batch_lanes_evicted", stats["evicted"])
    telemetry.incr("sim_batch_steps", stats["steps"])
    telemetry.incr("sim_batch_idle_jumps", stats["idle_jumps"])
    telemetry.incr("sim_batch_idle_cycles_skipped", stats["idle_cycles"])
    telemetry.incr("sim_batch_bulk_fire_events", stats["bulk_jumps"])
    telemetry.incr("sim_batch_bulk_cycles_skipped", stats["bulk_cycles"])
    telemetry.incr("sim_batch_bulk_instances", stats["bulk_instances"])
    telemetry.incr("sim_batch_functional_shared",
                   stats["functional_shared"])
    return [lane.error if lane.error is not None else lane.result
            for lane in lanes]

