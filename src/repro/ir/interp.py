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

    def take(self, count):
        """``[self.pop() for _ in range(count)]``, one list slice per
        materialized segment."""
        words = []
        while len(words) < count:
            cursor = self._cursor
            if cursor < self._limit:
                stop = min(self._limit, cursor + count - len(words))
                words += self._active[cursor:stop]
                self._cursor = stop
            else:
                words.append(self.pop())
        return words

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
    their ``update_op`` semantics. Store and plain update segments also
    keep ``(array, addresses, fn)`` (``fn`` None for a store), which
    :meth:`push_all` runs as one loop.
    """

    def __init__(self, port, streams, memory, recurrence_fifos, context):
        self._port = port
        self._memory = memory
        self._context = context
        self._segments = []  # (stream or None, words, handler, store)
        for stream in streams:
            if isinstance(stream, RecurrenceStream):
                queue = recurrence_fifos.setdefault(
                    stream.source_port or port, _RecurrenceQueue()
                )
                self._segments.append(
                    (None, stream.length, self._forwarder(queue), None)
                )
            elif isinstance(stream, UpdateStream):
                fn = semantics(stream.update_op)
                if stream.paired_index:
                    # The fabric emits (address, value) pairs.
                    self._segments.append(
                        (stream, 2 * stream.pair_count,
                         self._paired_updater(stream.array, fn), None)
                    )
                else:
                    addresses = self._indirect_addresses(stream)
                    self._segments.append(
                        (stream, len(addresses),
                         self._updater(stream.array, addresses, fn),
                         (stream.array, addresses, fn))
                    )
            elif isinstance(stream, IndirectStream):
                addresses = self._indirect_addresses(stream)
                self._segments.append(
                    (stream, len(addresses),
                     self._writer(stream.array, addresses),
                     (stream.array, addresses, None))
                )
            elif isinstance(stream, LinearStream):
                addresses = list(stream.addresses())
                self._segments.append(
                    (stream, len(addresses),
                     self._writer(stream.array, addresses),
                     (stream.array, addresses, None))
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
            _stream, self._words, self._handler, _store = (
                self._segments[self._segment_index]
            )
        else:
            self._words, self._handler = 0, None

    def _next_segment(self):
        """Move past a full segment; raise when none is left."""
        if self._segment_index >= len(self._segments):
            raise IrError(
                f"{self._context}: output port {self._port!r} produced "
                "more words than its streams consume"
            )
        self._segment_index += 1
        self._segment_cursor = 0
        self._enter_segment()

    def push(self, value):
        """Deliver one produced word to the current segment."""
        position = self._segment_cursor
        while position >= self._words:
            self._next_segment()
            position = 0
        self._segment_cursor = position + 1
        self._handler(position, value)

    def push_all(self, values):
        """``for value in values: self.push(value)``, a segment at a time.

        A store or plain update segment takes its share of ``values`` in
        one loop with :func:`_store`'s ``int()``, bounds check and error
        text, applying each update in order; other segments call their
        handler per word. If a word raises, only the words before it
        count as pushed, so :meth:`pushed` is the failing word's index.
        """
        done, total = 0, len(values)
        while done < total:
            while self._segment_cursor >= self._words:
                self._next_segment()
            position = start = self._segment_cursor
            stop = done + min(total - done, self._words - position)
            store = self._segments[self._segment_index][3]
            try:
                if store is None:
                    handler = self._handler
                    for value in values[done:stop]:
                        handler(position, value)
                        position += 1
                else:
                    array, addresses, fn = store
                    data = _array(self._memory, array, self._context)
                    size = len(data)
                    for value in values[done:stop]:
                        index = int(addresses[position])
                        if index < 0 or index >= size:
                            raise _out_of_range(index, array, data,
                                                self._context)
                        if fn is not None:
                            value = fn(data[index], value)
                        data[index] = value
                        position += 1
            finally:
                self._segment_cursor = position
            done += position - start

    def pushed(self):
        """Words delivered so far."""
        return self._segment_cursor + sum(
            segment[1] for segment in self._segments[:self._segment_index]
        )

    def finish(self):
        """Assert every stream segment was fully fed.

        Streams flagged ``compacting`` (predicated/filtered writes whose
        survivor count is data-dependent, e.g. resparsification) may be
        underfed.
        """
        consumed = self.pushed()
        expected = sum(segment[1] for segment in self._segments)
        if consumed != expected:
            compacting = any(
                getattr(segment[0], "compacting", False)
                for segment in self._segments
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
        self.columnar = self._straight_line(dfg)
        self.state = {
            node.node_id: node.init
            for node in dfg.instructions()
            if node.reduction
        }
        self.fired = {node_id: 0 for node_id in self.state}

    def _straight_line(self, dfg):
        """Whether :meth:`run_columns` computes what :meth:`run_instance`
        would: no reduction or predicate, no None constant and one input
        node per name (``Region.validate`` keeps every operand lane in
        range). No value is then None, so every instance emits every
        output ref."""
        names = [name for _slot, name in self._inputs]
        return (
            len(set(names)) == len(names)
            and all(node.value is not None
                    for node in dfg.nodes(NodeKind.CONST))
            and all(predicate is None and mode in (_PLAIN, _SELECT)
                    for _slot, _node, _refs, predicate, _fn, mode
                    in self._instrs)
        )

    def run_columns(self, input_words, count):
        """Fire ``count`` instances at once (only when :attr:`columnar`).

        ``input_words`` maps input-node names to the ``count * lanes``
        words they pop, none of them None. Returns per name of
        :attr:`output_names` one column per output ref. Computes with
        the same bound semantics as :meth:`run_instance` and touches
        nothing else, so a raise leaves the instances to be re-run.
        """
        values = [
            None if lanes is None else [lanes * count]
            for lanes in self._template
        ]
        for slot, name in self._inputs:
            words = input_words[name]
            lanes = len(words) // count
            values[slot] = (
                [words] if lanes == 1
                else [words[lane::lanes] for lane in range(lanes)]
            )
        for slot, _node, refs, _predicate, fn, mode in self._instrs:
            operands = [values[src][lane] for src, lane in refs]
            if mode == _PLAIN:
                values[slot] = [list(map(fn, *operands))]
            else:
                pred, if_true, if_false = operands
                values[slot] = [[
                    a if p else b for p, a, b in zip(pred, if_true, if_false)
                ]]
        return [
            [values[src][lane] for src, lane in refs]
            for refs in self._outputs
        ]

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


def _phase_starts(region, count):
    """``0``, ``count`` and every instance during which an input port
    starts a new stream segment, sorted."""
    starts = {0, count}
    for node in region.dfg.inputs():
        offset = 0
        for stream in _as_stream_list(region.input_streams[node.name]):
            offset += stream.volume()
            starts.add(min(offset // node.lanes, count))
    return sorted(starts)


def _run_phases(region, evaluator, readers, routers, produced, record,
                flush_instance_output):
    """Run a region without join or recurrence whose DFG is
    :attr:`_DfgEvaluator.columnar`, a phase at a time.

    A port materializes a segment when its first word is popped: after
    the writes of every earlier instance, before any of its own. Cut at
    the instances where a segment starts, a phase reads nothing its own
    instances write. Each phase takes its input words, computes every
    instruction as one column and delivers the output words in the
    order the instance loop would. A phase whose inputs hold a None or
    whose columns raise re-runs instance by instance on the words it
    took, which reproduces the loop's error and memory.
    """
    inputs = [
        (node.name, readers[node.name].take, node.lanes)
        for node in region.dfg.inputs()
    ]
    ports = [
        (produced[port], routers[port],
         None if record is None else record["emitted"][port])
        for port in evaluator.output_names
    ]
    starts = _phase_starts(region, region.instance_count())
    for start, stop in zip(starts, starts[1:]):
        count = stop - start
        taken = {name: take(count * lanes) for name, take, lanes in inputs}
        columns = None
        if not any(None in words for words in taken.values()):
            try:
                columns = evaluator.run_columns(taken, count)
            except Exception:
                pass  # the instance loop below raises it where it arises
        if columns is not None:
            _deliver_columns(ports, columns, count, record)
            continue
        for instance in range(count):
            flush_instance_output(evaluator.run_instance({
                name: taken[name][instance * lanes:(instance + 1) * lanes]
                for name, _take, lanes in inputs
            }))


def _deliver_columns(ports, columns, count, record):
    """Push one phase's output columns instance by instance and port by
    port, then account the delivered instances in ``produced`` and the
    trace. After an error that is every instance up to the failing one,
    on each port up to the failing one, as the instance loop leaves it."""
    widths = [len(port_columns) for port_columns in columns]
    emitted = [_interleave(port_columns) for port_columns in columns]
    settled = [count] * len(ports)
    try:
        if len(ports) == 1:
            router = ports[0][1]
            before = router.pushed()
            try:
                router.push_all(emitted[0])
            except Exception:
                settled = [(router.pushed() - before) // widths[0] + 1]
                raise
        else:
            pushes = [
                (router.push, port_columns)
                for (_words, router, _counts), port_columns
                in zip(ports, columns)
            ]
            instance = failed = 0
            try:
                for instance in range(count):
                    for failed, (push, port_columns) in enumerate(pushes):
                        for column in port_columns:
                            push(column[instance])
            except Exception:
                settled = [
                    instance + (port <= failed) for port in range(len(ports))
                ]
                raise
    finally:
        if record is not None:
            record["instances"] += max(settled, default=count)
        for (words, _router, counts), port_words, width, done in zip(
            ports, emitted, widths, settled
        ):
            words.extend(
                port_words if done == count else port_words[:done * width]
            )
            if counts is not None:
                counts.extend([width] * done)


def _interleave(port_columns):
    """A port's words in emission order, from one column per output ref."""
    if len(port_columns) == 1:
        return port_columns[0]
    return [word for words in zip(*port_columns) for word in words]


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
    recurrent = False
    for binding in list(region.input_streams.values()) + list(
        region.output_streams.values()
    ):
        for stream in _as_stream_list(binding):
            if isinstance(stream, RecurrenceStream):
                recurrent = True
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
    elif evaluator.columnar and not recurrent:
        _run_phases(region, evaluator, readers, routers, produced, record,
                    flush_instance_output)
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
