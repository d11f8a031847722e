"""Offload regions and configuration scopes.

An :class:`OffloadRegion` is one ``#pragma dsa offload`` loop after
decoupling: a dataflow graph plus the streams feeding and draining it.
A :class:`ConfigScope` is one ``#pragma dsa config`` scope: the set of
regions that are concurrently resident on the fabric, with explicit
producer/consumer forwarding between them (Section IV-D).
"""

from dataclasses import dataclass, field

from repro.errors import IrError
from repro.ir.stream import (
    ConstStream,
    RecurrenceStream,
    StreamDirection,
)


def as_stream_list(binding):
    """A port binding is one stream or an ordered stream sequence."""
    return list(binding) if isinstance(binding, (list, tuple)) else [binding]


@dataclass
class JoinSpec:
    """Dynamic stream-join semantics for a region (Section IV-E).

    The region's key ports are popped under control of the key comparison
    rather than in lockstep; payload ports pop with their key. ``intersect``
    fires the DFG only on key matches (sparse inner product); ``union``
    fires on every emitted key with absent payloads defaulting to 0
    (sparse addition / merge).
    """

    left_key: str = ""
    right_key: str = ""
    left_payloads: tuple = ()
    right_payloads: tuple = ()
    mode: str = "intersect"

    def check(self):
        if not self.left_key or not self.right_key:
            raise IrError("join spec needs both key ports")
        if self.mode not in ("intersect", "union"):
            raise IrError(f"unknown join mode {self.mode!r}")

    def all_ports(self):
        return (
            (self.left_key, self.right_key)
            + tuple(self.left_payloads)
            + tuple(self.right_payloads)
        )


@dataclass
class OffloadRegion:
    """One offloaded loop: DFG + bound streams.

    Attributes
    ----------
    input_streams / output_streams:
        Map sync-port names (matching DFG input/output node names) to
        streams. Atomic :class:`UpdateStream` entries appear among the
        outputs — their values come from an output port while the index
        fetch and the read-modify-write happen memory-side.
    join_spec:
        Set when the stream-join transform applied; requires dynamic
        hardware (checked by the scheduler, not here).
    vector_width:
        Unroll factor the vectorization transform applied.
    frequency:
        Relative execution frequency (the paper uses LLVM
        BlockFrequencyInfo); weights regions in the performance model.
    expected_instances:
        Estimated dataflow-instance count for data-dependent (join)
        regions where streams do not determine it.
    source_insts:
        Scalar-instruction count of one original loop iteration; the
        performance model multiplies this out for IPC reporting.
    """

    name: str
    dfg: object = None
    input_streams: dict = field(default_factory=dict)
    output_streams: dict = field(default_factory=dict)
    join_spec: JoinSpec = None
    vector_width: int = 1
    frequency: float = 1.0
    expected_instances: int = 0
    source_insts: int = 0
    metadata: dict = field(default_factory=dict)

    def validate(self):
        """Check stream/port/DFG consistency; raises :class:`IrError`."""
        if self.dfg is None:
            raise IrError(f"region {self.name} has no dataflow graph")
        self.dfg.validate()
        input_names = {n.name for n in self.dfg.inputs()}
        output_names = {n.name for n in self.dfg.outputs()}
        for port, binding in self.input_streams.items():
            if port not in input_names:
                raise IrError(
                    f"region {self.name}: stream bound to unknown input "
                    f"port {port!r}"
                )
            for stream in as_stream_list(binding):
                stream.check()
                if not isinstance(stream, (ConstStream, RecurrenceStream)):
                    if stream.direction is not StreamDirection.READ:
                        raise IrError(
                            f"region {self.name}: input port {port!r} bound "
                            "to a write stream"
                        )
        for port, binding in self.output_streams.items():
            if port not in output_names:
                raise IrError(
                    f"region {self.name}: stream bound to unknown output "
                    f"port {port!r}"
                )
            for stream in as_stream_list(binding):
                stream.check()
                if isinstance(stream, RecurrenceStream):
                    continue
                if stream.direction is not StreamDirection.WRITE:
                    raise IrError(
                        f"region {self.name}: output port {port!r} bound to "
                        "a read stream"
                    )
        missing_in = input_names - set(self.input_streams)
        if missing_in:
            raise IrError(
                f"region {self.name}: input ports without streams: "
                f"{sorted(missing_in)}"
            )
        missing_out = output_names - set(self.output_streams)
        if missing_out:
            raise IrError(
                f"region {self.name}: output ports without streams: "
                f"{sorted(missing_out)}"
            )
        if self.join_spec is not None:
            self.join_spec.check()
            for port in self.join_spec.all_ports():
                if port not in self.input_streams:
                    raise IrError(
                        f"region {self.name}: join spec references unbound "
                        f"port {port!r}"
                    )
        if self.vector_width < 1:
            raise IrError(f"region {self.name}: bad vector width")

    def instance_count(self):
        """Dataflow instances implied by the input streams.

        Every non-join input must agree on ``volume / lanes``; join
        regions return :attr:`expected_instances`.
        """
        if self.join_spec is not None:
            return self.expected_instances
        counts = set()
        for node in self.dfg.inputs():
            binding = self.input_streams[node.name]
            volume = sum(s.volume() for s in as_stream_list(binding))
            if volume % node.lanes:
                raise IrError(
                    f"region {self.name}: stream volume {volume} not "
                    f"divisible by {node.lanes} lanes on port {node.name!r}"
                )
            counts.add(volume // node.lanes)
        if not counts:
            return self.expected_instances
        if len(counts) > 1:
            raise IrError(
                f"region {self.name}: inconsistent instance counts {counts}"
            )
        return counts.pop()

    def streams(self):
        """All streams flattened, inputs first."""
        result = []
        for binding in self.input_streams.values():
            result.extend(as_stream_list(binding))
        for binding in self.output_streams.values():
            result.extend(as_stream_list(binding))
        return result

    def compute_instruction_count(self):
        return len(self.dfg.instructions())

    def bind_constants(self, memory):
        """Resolve configuration-time constants from ``memory``.

        Loop-invariant values (stencil weights, filter taps) are baked
        into PE configuration registers rather than streamed; builders
        record ``metadata['const_bindings'] = {const_name: (array, index)}``
        and this method patches the const nodes when the actual problem
        instance is known (command-issue time).
        """
        bindings = self.metadata.get("const_bindings", {})
        if not bindings:
            return
        by_name = {
            node.name: node for node in self.dfg.consts() if node.name
        }
        for const_name, (array, index) in bindings.items():
            node = by_name.get(const_name)
            if node is None:
                raise IrError(
                    f"region {self.name}: const binding for unknown node "
                    f"{const_name!r}"
                )
            node.value = memory[array][index]

    def __repr__(self):
        return (
            f"OffloadRegion({self.name!r}, dfg={self.dfg!r}, "
            f"V={self.vector_width}, join={self.join_spec is not None})"
        )


@dataclass
class ConfigScope:
    """One configuration scope: concurrently resident regions.

    ``forwards`` lists producer-consumer value forwards
    ``(producer_region, producer_port, consumer_region, consumer_port)``
    realized as recurrence streams; ``barriers`` lists region names that
    must fully drain before regions listed after them may issue.
    """

    name: str = "scope"
    regions: list = field(default_factory=list)
    forwards: list = field(default_factory=list)
    barriers: list = field(default_factory=list)

    def add(self, region):
        self.regions.append(region)
        return region

    def region(self, name):
        for region in self.regions:
            if region.name == name:
                return region
        raise IrError(f"no region named {name!r} in scope {self.name!r}")

    def validate(self):
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise IrError(f"duplicate region names in scope {self.name!r}")
        for region in self.regions:
            region.validate()
        # Recurrence sources resolve by output-port name scope-wide, so
        # ports that feed recurrences must be uniquely named.
        sources = set()
        for region in self.regions:
            for binding in list(region.input_streams.values()) + list(
                region.output_streams.values()
            ):
                for stream in as_stream_list(binding):
                    if isinstance(stream, RecurrenceStream):
                        sources.add(stream.source_port)
        owners = {}
        for region in self.regions:
            for out in region.dfg.outputs():
                if out.name not in sources:
                    continue
                if out.name in owners:
                    raise IrError(
                        f"scope {self.name!r}: recurrence source port "
                        f"{out.name!r} defined by both "
                        f"{owners[out.name]!r} and {region.name!r}"
                    )
                owners[out.name] = region.name
        for producer, src_port, consumer, dst_port in self.forwards:
            src_region = self.region(producer)
            dst_region = self.region(consumer)
            if src_port not in {n.name for n in src_region.dfg.outputs()}:
                raise IrError(
                    f"forward from unknown port {src_port!r} of {producer!r}"
                )
            binding = dst_region.input_streams.get(dst_port)
            streams = as_stream_list(binding) if binding is not None else []
            if not any(isinstance(s, RecurrenceStream) for s in streams):
                raise IrError(
                    f"forward into {consumer!r}:{dst_port!r} must target a "
                    "recurrence stream"
                )
        for name in self.barriers:
            self.region(name)

    def bind_constants(self, memory):
        """Resolve config-time constants in every region."""
        for region in self.regions:
            region.bind_constants(memory)

    def required_ops(self):
        ops = set()
        for region in self.regions:
            ops |= region.dfg.required_ops()
        return ops
