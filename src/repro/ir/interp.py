"""Functional (untimed) execution of decoupled-dataflow programs.

This is the semantic reference for the whole framework: compiler output is
checked against plain-Python kernels here, and the cycle-level simulator
must produce the same values with timing added.

A port may be bound to a single stream or a *sequence* of streams — the
control core issues successive stream commands to the same port (this is
how the repetitive-in-place-update and producer-consumer idioms of
Section IV-D are encoded: a port first reads memory, then reads a
recurrence; an output port first feeds a recurrence, then writes memory).

Memory is a dict mapping array names to mutable sequences (lists or
1-D numpy arrays).
"""

from repro.errors import IrError
from repro.ir.dfg import NodeKind
from repro.ir.stream import (
    ConstStream,
    IndirectStream,
    LinearStream,
    RecurrenceStream,
    UpdateStream,
)
from repro.isa.opcodes import OPCODES, semantics


def _as_stream_list(binding):
    return list(binding) if isinstance(binding, (list, tuple)) else [binding]


def _array(memory, array, context):
    try:
        return memory[array]
    except KeyError:
        raise IrError(f"{context}: unknown array {array!r}") from None


def _out_of_range(index, array, data, context):
    return IrError(
        f"{context}: address {index} out of range for {array!r} "
        f"(size {len(data)})"
    )


def _load(memory, array, address, context):
    data = _array(memory, array, context)
    index = int(address)
    if index < 0 or index >= len(data):
        raise _out_of_range(index, array, data, context)
    return data[index]


def _load_all(memory, array, addresses, context):
    """``[_load(memory, array, a, context) for a in addresses]``, looking
    the array up once (on the first address, so none means no lookup)."""
    values = []
    data = None
    for address in addresses:
        if data is None:
            data = _array(memory, array, context)
        index = int(address)
        if index < 0 or index >= len(data):
            raise _out_of_range(index, array, data, context)
        values.append(data[index])
    return values


def _store(memory, array, address, value, context):
    data = _array(memory, array, context)
    index = int(address)
    if index < 0 or index >= len(data):
        raise _out_of_range(index, array, data, context)
    data[index] = value


def _read_stream_values(stream, memory, recurrence_fifos, context):
    """Materialize the full value sequence of a read-side stream."""
    if isinstance(stream, ConstStream):
        return list(stream.values())
    if isinstance(stream, RecurrenceStream):
        queue = recurrence_fifos.setdefault(
            stream.source_port, _RecurrenceQueue()
        )
        # Values may not all exist yet (self-recurrence): return a lazy view.
        return _FifoReader(
            queue, stream.length, stream.source_port,
            repeat=stream.repeat,
        )
    if isinstance(stream, UpdateStream):
        raise IrError(f"{context}: update streams cannot feed inputs")
    if isinstance(stream, IndirectStream):
        index_values = _load_all(
            memory, stream.index.array, stream.index.addresses(), context
        )
        return _load_all(
            memory, stream.array, stream.addresses(index_values), context
        )
    if isinstance(stream, LinearStream):
        return _load_all(memory, stream.array, stream.addresses(), context)
    raise IrError(f"{context}: unknown stream type {type(stream).__name__}")


class _RecurrenceQueue:
    """A recurrence FIFO with a persistent read cursor.

    Successive reader segments (e.g. one per outer-loop iteration in a
    recycled GEMM row) must resume where the previous reader stopped, so
    the cursor lives on the queue, not the reader.
    """

    def __init__(self):
        self.items = []
        self.cursor = 0

    def push(self, value):
        self.items.append(value)

    def pop(self, source_port):
        if self.cursor >= len(self.items):
            raise IrError(
                f"recurrence from {source_port!r} read before data was "
                "produced (lag violated)"
            )
        value = self.items[self.cursor]
        self.cursor += 1
        return value

    def available(self):
        return len(self.items) - self.cursor


class _FifoReader:
    """Lazy reader over a recurrence queue filled during execution.

    ``repeat > 1`` models non-discarding port reads: each forwarded word
    is served ``repeat`` times before the next is popped.
    """

    def __init__(self, queue, length, source_port, repeat=1):
        self._queue = queue
        self._remaining = length
        self._source = source_port
        self._repeat = repeat
        self._held = None
        self._held_serves = 0

    def pop(self):
        if self._remaining <= 0:
            raise IrError(
                f"recurrence from {self._source!r} over-read"
            )
        if self._held_serves == 0:
            self._held = self._queue.pop(self._source)
            self._held_serves = self._repeat
        self._held_serves -= 1
        self._remaining -= 1
        return self._held

    def __len__(self):
        return self._remaining


class _PortReader:
    """Pops words from the concatenation of a port's stream sequence.

    Streams materialize *lazily*, when the previous segment exhausts.
    This matters for in-place algorithms (GEMM row recycling, iterative
    FFT stages): a later segment's loads must observe the stores earlier
    segments already performed, exactly as the hardware's decoupled
    stream engines would.
    """

    def __init__(self, streams, memory, recurrence_fifos, context):
        self._streams = list(streams)
        self._memory = memory
        self._fifos = recurrence_fifos
        self._context = context
        self._index = 0
        self._cursor = 0
        self._active = None
        # Words of a materialized (list) active segment; 0 otherwise, so
        # pop() takes its fast path only while one has words left.
        self._limit = 0

    def _activate(self, position):
        return _read_stream_values(
            self._streams[position], self._memory, self._fifos,
            self._context,
        )

    def pop(self):
        cursor = self._cursor
        if cursor < self._limit:
            self._cursor = cursor + 1
            return self._active[cursor]
        while self._index < len(self._streams):
            if self._active is None:
                self._active = self._activate(self._index)
                if not isinstance(self._active, _FifoReader):
                    self._limit = len(self._active)
            source = self._active
            if isinstance(source, _FifoReader):
                if len(source) > 0:
                    return source.pop()
            elif self._cursor < len(source):
                value = source[self._cursor]
                self._cursor += 1
                return value
            self._index += 1
            self._cursor = 0
            self._active = None
            self._limit = 0
        raise IrError(f"{self._context}: port under-run (stream exhausted)")

    def remaining(self):
        total = 0
        for position in range(self._index, len(self._streams)):
            stream = self._streams[position]
            if position == self._index and self._active is not None:
                source = self._active
                if isinstance(source, _FifoReader):
                    total += len(source)
                else:
                    total += len(source) - self._cursor
            else:
                total += stream.volume()
        return total


class _OutputRouter:
    """Routes an output port's produced words through its stream sequence
    *as they are produced*, so recurrence segments feed their FIFOs with
    the correct (possibly interleaved) subsets of words.

    Each segment is bound once to a ``handler(position, value)`` that
    delivers the segment's ``position``-th word; update segments bind
    their ``update_op`` semantics.
    """

    def __init__(self, port, streams, memory, recurrence_fifos, context):
        self._port = port
        self._memory = memory
        self._context = context
        self._segments = []  # (stream or None, words, handler)
        for stream in streams:
            if isinstance(stream, RecurrenceStream):
                queue = recurrence_fifos.setdefault(
                    stream.source_port or port, _RecurrenceQueue()
                )
                self._segments.append(
                    (None, stream.length, self._forwarder(queue))
                )
            elif isinstance(stream, UpdateStream):
                fn = semantics(stream.update_op)
                if stream.paired_index:
                    # The fabric emits (address, value) pairs.
                    self._segments.append(
                        (stream, 2 * stream.pair_count,
                         self._paired_updater(stream.array, fn))
                    )
                else:
                    addresses = self._indirect_addresses(stream)
                    self._segments.append(
                        (stream, len(addresses),
                         self._updater(stream.array, addresses, fn))
                    )
            elif isinstance(stream, IndirectStream):
                addresses = self._indirect_addresses(stream)
                self._segments.append(
                    (stream, len(addresses),
                     self._writer(stream.array, addresses))
                )
            elif isinstance(stream, LinearStream):
                addresses = list(stream.addresses())
                self._segments.append(
                    (stream, len(addresses),
                     self._writer(stream.array, addresses))
                )
            else:
                raise IrError(
                    f"{context}: stream type {type(stream).__name__} "
                    "cannot drain an output port"
                )
        self._segment_index = 0
        self._segment_cursor = 0
        self._enter_segment()

    def _indirect_addresses(self, stream):
        index_values = _load_all(
            self._memory, stream.index.array, stream.index.addresses(),
            self._context,
        )
        return list(stream.addresses(index_values))

    @staticmethod
    def _forwarder(queue):
        def forward(position, value):
            queue.push(value)
        return forward

    def _writer(self, array, addresses):
        memory, context = self._memory, self._context

        def write(position, value):
            _store(memory, array, addresses[position], value, context)
        return write

    def _updater(self, array, addresses, fn):
        memory, context = self._memory, self._context

        def update(position, value):
            address = addresses[position]
            old = _load(memory, array, address, context)
            _store(memory, array, address, fn(old, value), context)
        return update

    def _paired_updater(self, array, fn):
        memory, context = self._memory, self._context
        pending = [None]

        def update(position, value):
            if position % 2 == 0:
                pending[0] = value  # the address half of the pair
            else:
                address = pending[0]
                old = _load(memory, array, address, context)
                _store(memory, array, address, fn(old, value), context)
        return update

    def _enter_segment(self):
        if self._segment_index < len(self._segments):
            _stream, self._words, self._handler = (
                self._segments[self._segment_index]
            )
        else:
            self._words, self._handler = 0, None

    def push(self, value):
        """Deliver one produced word to the current segment."""
        position = self._segment_cursor
        while position >= self._words:
            if self._segment_index >= len(self._segments):
                raise IrError(
                    f"{self._context}: output port {self._port!r} produced "
                    "more words than its streams consume"
                )
            self._segment_index += 1
            self._segment_cursor = position = 0
            self._enter_segment()
        self._segment_cursor = position + 1
        self._handler(position, value)

    def finish(self):
        """Assert every stream segment was fully fed.

        Streams flagged ``compacting`` (predicated/filtered writes whose
        survivor count is data-dependent, e.g. resparsification) may be
        underfed.
        """
        consumed = self._segment_cursor
        for index in range(self._segment_index):
            consumed += self._segments[index][1]
        expected = sum(segment[1] for segment in self._segments)
        if consumed != expected:
            compacting = any(
                getattr(stream, "compacting", False)
                for stream, _words, _handler in self._segments
            )
            if not compacting or consumed > expected:
                raise IrError(
                    f"{self._context}: output port {self._port!r} produced "
                    f"{consumed} words but streams expected {expected}"
                )


# How a planned instruction fires (see :class:`_DfgEvaluator`).
_PLAIN, _SELECT, _FOLD, _FOLD_TERNARY = range(4)


class _DfgEvaluator:
    """Evaluates DFG instances, carrying reduction state across instances.

    The topological order is compiled once into a slot plan: each node
    owns one position in a value list that holds its lane list, every
    instruction becomes ``(slot, node, ((src_slot, lane), ...),
    predicate, fn, mode)`` with its opcode semantics bound, and every
    output keeps its operand refs. Inputs and constants have no
    operands, so they lead the topological order.
    """

    def __init__(self, dfg):
        self.dfg = dfg
        order = dfg.topological_order()
        slot_of = {node_id: slot for slot, node_id in enumerate(order)}
        self._template = [None] * len(order)
        self._inputs = []
        self._instrs = []
        outputs = {}
        for slot, node_id in enumerate(order):
            node = dfg.node(node_id)
            if node.kind is NodeKind.INPUT:
                self._inputs.append((slot, node.name))
                continue
            if node.kind is NodeKind.CONST:
                self._template[slot] = [node.value]
                continue
            refs = tuple(
                (slot_of[ref.node_id], ref.lane) for ref in node.operands
            )
            if node.kind is NodeKind.OUTPUT:
                # Output nodes sharing a port name emit in topological
                # order, so their refs concatenate.
                outputs[node.name] = outputs.get(node.name, ()) + refs
                continue
            predicate = node.predicate
            if predicate is not None:
                predicate = (slot_of[predicate.node_id], predicate.lane)
            if node.reduction:
                # A reduction supplies one operand fewer than its arity.
                ternary = OPCODES[node.op].arity == 3
                mode = _FOLD_TERNARY if ternary else _FOLD
            else:
                mode = _SELECT if node.op == "select" else _PLAIN
            self._instrs.append(
                (slot, node, refs, predicate, semantics(node.op), mode)
            )
        self.output_names = list(outputs)
        self._outputs = list(outputs.values())
        self.state = {
            node.node_id: node.init
            for node in dfg.instructions()
            if node.reduction
        }
        self.fired = {node_id: 0 for node_id in self.state}

    def run_instance(self, input_vectors):
        """Fire one instance.

        ``input_vectors`` maps input-node names to their lane lists.
        Returns one word list per name of :attr:`output_names` —
        possibly empty when reductions did not emit this instance.
        """
        values = self._template[:]
        for slot, name in self._inputs:
            values[slot] = input_vectors[name]
        for slot, node, refs, predicate, fn, mode in self._instrs:
            operands = []
            for src, lane in refs:
                lanes = values[src]
                operands.append(lanes[lane] if lane < len(lanes) else None)
            predicate_ok = (
                predicate is None
                or bool(values[predicate[0]][predicate[1]])
            )
            if mode == _PLAIN:
                result = None
                if predicate_ok:
                    for operand in operands:
                        if operand is None:
                            break
                    else:
                        result = fn(*operands)
            elif mode == _SELECT:
                pred = operands[0]
                if not predicate_ok or pred is None:
                    result = None
                else:
                    result = operands[1] if pred else operands[2]
            else:
                result = self._fold(node, fn, mode, operands, predicate_ok)
            values[slot] = [result]
        emitted = []
        for refs in self._outputs:
            words = []
            for src, lane in refs:
                lanes = values[src]
                if lane < len(lanes) and lanes[lane] is not None:
                    words.append(lanes[lane])
            emitted.append(words)
        return emitted

    def _fold(self, node, fn, mode, operands, predicate_ok):
        """Update accumulator state; emit on schedule, else None.

        A binary opcode folds its data operand as ``fn(state, data)``; a
        ternary one (``mac``, ``fmac``) as ``fn(*operands, state)``.
        """
        node_id = node.node_id
        if predicate_ok:
            for operand in operands:
                if operand is None:
                    break
            else:
                state = self.state[node_id]
                if mode == _FOLD_TERNARY:
                    self.state[node_id] = fn(operands[0], operands[1], state)
                else:
                    self.state[node_id] = fn(state, operands[-1], None)
        self.fired[node_id] += 1
        if node.emit_every and self.fired[node_id] % node.emit_every == 0:
            value = self.state[node_id]
            self.state[node_id] = node.init
            return value
        return None

    def flush(self):
        """Emit end-of-stream values for emit_every == 0 reductions.

        Returns ``{output_name: [words]}`` for the ports that receive
        one.
        """
        emitted = {}
        for node in self.dfg.instructions():
            if not node.reduction or node.emit_every:
                continue
            value = self.state[node.node_id]
            self.state[node.node_id] = node.init
            for out in self.dfg.outputs():
                for ref in out.operands:
                    if ref.node_id == node.node_id:
                        emitted.setdefault(out.name, []).append(value)
        return emitted


def _run_join(region, readers, pop_trace=None):
    """Produce per-instance input vectors for a stream-join region.

    ``pop_trace`` (optional list) receives ``(left_pops, right_pops)``
    pairs — the key pops consumed before each fired instance, plus one
    trailing entry for the unmatched tail — which the cycle-level
    simulator replays to time the data-dependent consumption.
    """
    spec = region.join_spec
    instances = []
    pops_since_fire = [0, 0]

    def pop_all(port_names):
        return {port: readers[port].pop() for port in port_names}

    left_remaining = readers[spec.left_key].remaining()
    right_remaining = readers[spec.right_key].remaining()
    left_key = right_key = None
    left_payload = right_payload = None

    def advance_left():
        nonlocal left_key, left_payload, left_remaining
        left_key = readers[spec.left_key].pop()
        left_payload = pop_all(spec.left_payloads)
        left_remaining -= 1
        pops_since_fire[0] += 1

    def advance_right():
        nonlocal right_key, right_payload, right_remaining
        right_key = readers[spec.right_key].pop()
        right_payload = pop_all(spec.right_payloads)
        right_remaining -= 1
        pops_since_fire[1] += 1

    if left_remaining:
        advance_left()
    if right_remaining:
        advance_right()
    while left_key is not None or right_key is not None:
        if left_key is not None and right_key is not None:
            if left_key < right_key:
                matched, use_left, use_right = False, True, False
            elif left_key > right_key:
                matched, use_left, use_right = False, False, True
            else:
                matched, use_left, use_right = True, True, True
        elif left_key is not None:
            matched, use_left, use_right = False, True, False
        else:
            matched, use_left, use_right = False, False, True

        if matched or spec.mode == "union":
            vector = {}
            vector[spec.left_key] = [left_key if use_left else right_key]
            vector[spec.right_key] = [right_key if use_right else left_key]
            for port in spec.left_payloads:
                vector[port] = [left_payload[port] if use_left else 0]
            for port in spec.right_payloads:
                vector[port] = [right_payload[port] if use_right else 0]
            instances.append(vector)
            if pop_trace is not None:
                pop_trace.append(tuple(pops_since_fire))
                pops_since_fire[0] = pops_since_fire[1] = 0

        if use_left:
            left_key = left_payload = None
            if left_remaining:
                advance_left()
        if use_right:
            right_key = right_payload = None
            if right_remaining:
                advance_right()
    if pop_trace is not None and (pops_since_fire[0] or pops_since_fire[1]):
        pop_trace.append(tuple(pops_since_fire))  # unmatched tail
    return instances


def execute_region(region, memory, recurrence_fifos=None, trace=None):
    """Execute one region to completion against ``memory``.

    Returns ``{output_port: [words]}`` (also applied to memory through the
    bound write streams). ``recurrence_fifos`` carries forwarded values
    between regions of one scope.

    ``trace`` (optional dict) receives per-region execution facts the
    cycle-level simulator replays: fired-instance count, per-port emitted
    word counts per instance, and the join pop sequence.
    """
    region.validate()
    context = f"region {region.name}"
    recurrence_fifos = recurrence_fifos if recurrence_fifos is not None else {}

    # Pre-create FIFOs for ports that source recurrences so self-loops and
    # forwards consumed by later regions find their queue.
    for binding in list(region.input_streams.values()) + list(
        region.output_streams.values()
    ):
        for stream in _as_stream_list(binding):
            if isinstance(stream, RecurrenceStream):
                recurrence_fifos.setdefault(
                    stream.source_port, _RecurrenceQueue()
                )

    readers = {
        port: _PortReader(
            _as_stream_list(binding), memory, recurrence_fifos, context
        )
        for port, binding in region.input_streams.items()
    }
    routers = {
        port: _OutputRouter(
            port, _as_stream_list(binding), memory, recurrence_fifos,
            context,
        )
        for port, binding in region.output_streams.items()
    }
    evaluator = _DfgEvaluator(region.dfg)
    produced = {node.name: [] for node in region.dfg.outputs()}
    record = None
    if trace is not None:
        record = trace.setdefault(region.name, {
            "instances": 0,
            "emitted": {node.name: [] for node in region.dfg.outputs()},
            "join_pops": [],
        })

    # One sink per output port, in the evaluator's port order: the
    # port's produced list, its router and, when tracing, the list of
    # its per-instance word counts.
    sinks = [
        (produced[port].extend, routers[port].push,
         None if record is None else record["emitted"][port].append)
        for port in evaluator.output_names
    ]

    def flush_instance_output(emitted):
        if record is not None:
            record["instances"] += 1
        for words, (extend, push, count) in zip(emitted, sinks):
            if count is not None:
                count(len(words))
            if words:
                extend(words)
                for value in words:
                    push(value)

    if region.join_spec is not None:
        pop_trace = record["join_pops"] if record is not None else None
        for vector in _run_join(region, readers, pop_trace):
            flush_instance_output(evaluator.run_instance(vector))
    else:
        pipeline = [
            (node.name, readers[node.name].pop, node.lanes)
            for node in region.dfg.inputs()
        ]
        for _ in range(region.instance_count()):
            vector = {}
            for name, pop, lanes in pipeline:
                vector[name] = (
                    [pop()] if lanes == 1 else [pop() for _ in range(lanes)]
                )
            flush_instance_output(evaluator.run_instance(vector))

    final = evaluator.flush()
    if record is not None and final:
        for port in record["emitted"]:
            if record["emitted"][port]:
                record["emitted"][port][-1] += len(final.get(port, ()))
            elif final.get(port):
                record["emitted"][port].append(len(final[port]))
    for port, words in final.items():
        produced[port].extend(words)
        for value in words:
            routers[port].push(value)
    for router in routers.values():
        router.finish()
    return produced


def execute_scope(scope, memory, trace=None):
    """Execute every region of a configuration scope in program order.

    Producer regions fill recurrence FIFOs that consumer regions read
    (Section IV-D producer-consumer forwarding); functionally, executing
    in list order with shared FIFOs is equivalent to the pipelined
    hardware execution.
    """
    scope.validate()
    recurrence_fifos = {}
    results = {}
    for region in scope.regions:
        results[region.name] = execute_region(
            region, memory, recurrence_fifos, trace=trace
        )
    return results
