"""ADG component primitives and their parameters.

These mirror Figure 3 / Section III-A of the paper:

* :class:`ProcessingElement` — static/dynamic scheduled, dedicated/shared,
  with an opcode capability set, optional decomposable datapath, input
  delay FIFOs (static) and stream-join support (dynamic).
* :class:`Switch` — routing element, optionally decomposable to finer
  granularities, optionally flopping its output.
* :class:`Memory` — stream-based memory with linear and/or indirect
  controllers, banking, and optional in-bank atomic-update units.
* :class:`SyncElement` — FIFO-based synchronization (vector) ports bridging
  dynamic producers and statically scheduled consumers.
* :class:`DelayFifo` — standalone pipeline-balancing FIFO.
* :class:`ControlCore` — the stream-dataflow control core that issues
  stream commands, barriers, and configuration.

Components are mutable dataclasses: the design-space explorer edits their
parameters in place between scheduling rounds.
"""

import enum
from dataclasses import dataclass, field

from repro.errors import AdgError
from repro.isa.opcodes import OPCODES
from repro.utils.bits import is_power_of_two


class Scheduling(enum.Enum):
    """Execution-model axis 1: who decides when an action happens."""

    STATIC = "static"
    DYNAMIC = "dynamic"


class Resourcing(enum.Enum):
    """Execution-model axis 2: dedicated vs temporally shared elements."""

    DEDICATED = "dedicated"
    SHARED = "shared"


class Direction(enum.Enum):
    """Sync-element orientation relative to the compute fabric."""

    INPUT = "input"    # memory -> fabric
    OUTPUT = "output"  # fabric -> memory


class MemoryKind(enum.Enum):
    """Fixed memory roles (Section V-D fixes one of each during DSE)."""

    SPAD = "spad"  # on-chip scratchpad
    DMA = "dma"    # interface to the shared L2/DRAM


@dataclass
class Component:
    """Base class for every ADG node.

    Attributes
    ----------
    name:
        Unique node identifier inside one ADG.
    width:
        Datapath width in bits; must be a power of two (paper constraint).
    """

    name: str
    width: int = 64

    KIND = "component"

    def check(self):
        """Raise :class:`AdgError` if this component's parameters are
        internally inconsistent. Subclasses extend this."""
        if not self.name:
            raise AdgError("component has an empty name")
        if not is_power_of_two(self.width):
            raise AdgError(
                f"{self.name}: width {self.width} is not a power of two"
            )

    def clone(self, name=None):
        """Deep copy with an optional new name."""
        import copy

        duplicate = copy.deepcopy(self)
        if name is not None:
            duplicate.name = name
        return duplicate


@dataclass
class ProcessingElement(Component):
    """A compute tile.

    Attributes
    ----------
    scheduling:
        STATIC PEs fire on compiler-determined cycles and need operand
        timing matched (via delay FIFOs); DYNAMIC PEs fire on operand
        arrival and require flow control.
    resourcing:
        DEDICATED PEs hold a single instruction; SHARED (temporal) PEs
        multiplex up to ``max_instructions``.
    op_names:
        Opcode mnemonics this PE must support; hardware generation selects
        covering functional units.
    max_instructions:
        Instruction-buffer slots for shared PEs (1 for dedicated).
    decomposable_to:
        Minimum sub-width for subword parallelism; equal to ``width``
        disables decomposition.
    delay_fifo_depth:
        Depth of the per-input delay FIFOs (static PEs); bounds how much
        operand skew the scheduler can absorb.
    register_file_size:
        Accumulator/temporary registers (shared PEs use these across
        multiplexed instructions).
    """

    scheduling: Scheduling = Scheduling.STATIC
    resourcing: Resourcing = Resourcing.DEDICATED
    op_names: set = field(default_factory=lambda: {"add", "mul"})
    max_instructions: int = 1
    decomposable_to: int = 64
    delay_fifo_depth: int = 8
    register_file_size: int = 4

    KIND = "pe"

    def check(self):
        super().check()
        unknown = set(self.op_names) - set(OPCODES)
        if unknown:
            raise AdgError(f"{self.name}: unknown opcodes {sorted(unknown)}")
        if self.resourcing is Resourcing.DEDICATED and self.max_instructions != 1:
            raise AdgError(
                f"{self.name}: dedicated PEs hold exactly one instruction"
            )
        if self.resourcing is Resourcing.SHARED and self.max_instructions < 2:
            raise AdgError(
                f"{self.name}: shared PEs need max_instructions >= 2"
            )
        if not is_power_of_two(self.decomposable_to):
            raise AdgError(
                f"{self.name}: decomposable_to {self.decomposable_to} "
                "is not a power of two"
            )
        if self.decomposable_to > self.width:
            raise AdgError(
                f"{self.name}: decomposable_to exceeds datapath width"
            )
        if self.delay_fifo_depth < 0:
            raise AdgError(f"{self.name}: negative delay FIFO depth")

    @property
    def is_dynamic(self):
        return self.scheduling is Scheduling.DYNAMIC

    @property
    def is_shared(self):
        return self.resourcing is Resourcing.SHARED

    def supports_op(self, op_name, width=None):
        """Can this PE execute ``op_name`` (optionally at ``width`` bits)?"""
        if op_name not in self.op_names:
            return False
        if width is None or width == self.width:
            return True
        if width > self.width:
            return False
        return width >= self.decomposable_to and OPCODES[op_name].decomposable

    @property
    def lanes(self):
        """Subword lanes available when fully decomposed."""
        return self.width // self.decomposable_to


@dataclass
class Switch(Component):
    """A network routing element.

    Attributes
    ----------
    scheduling:
        STATIC switches route on a fixed per-configuration pattern; DYNAMIC
        switches are flow-controlled (credit-based) routers.
    decomposable_to:
        Finest independently routable subword width.
    flop_output:
        Whether the output is registered. The paper fixes this to True
        during DSE so every switch is one pipeline stage (Section V-D).
    routing_table_size:
        Distinct routing decisions a shared switch can hold.
    """

    scheduling: Scheduling = Scheduling.STATIC
    decomposable_to: int = 64
    flop_output: bool = True
    routing_table_size: int = 1

    KIND = "switch"

    def check(self):
        super().check()
        if not is_power_of_two(self.decomposable_to):
            raise AdgError(
                f"{self.name}: decomposable_to {self.decomposable_to} "
                "is not a power of two"
            )
        if self.decomposable_to > self.width:
            raise AdgError(
                f"{self.name}: decomposable_to exceeds datapath width"
            )
        if self.routing_table_size < 1:
            raise AdgError(f"{self.name}: routing_table_size must be >= 1")

    @property
    def is_dynamic(self):
        return self.scheduling is Scheduling.DYNAMIC

    @property
    def latency(self):
        """Cycles through the switch (0 when the output is not flopped)."""
        return 1 if self.flop_output else 0


@dataclass
class Memory(Component):
    """A stream-based memory (scratchpad or DMA interface).

    The execution model arbitrates concurrent coarse-grained *streams*
    (Section III-A "Memories"). Supported controllers:

    * ``linear`` — inductive 2D affine streams (REVEL-style [92]);
    * ``indirect`` — gather/scatter ``a[b[i]]`` streams (SPU-style [20]).

    Attributes
    ----------
    capacity_bytes:
        Storage capacity (ignored for DMA, which models the L2 interface).
    width_bytes:
        Bytes deliverable per cycle (bandwidth).
    num_stream_slots:
        Concurrent streams the controller arbitrates.
    banks:
        Interleaved banks; >1 enables conflict-free indirect access.
    indirect:
        Whether the indirect controller is instantiated.
    atomic_update:
        Whether per-bank compute units support read-modify-write streams
        (``a[b[i]] += v``).
    atomic_op:
        The update opcode implemented by the bank ALUs.
    kind:
        SPAD or DMA (one of each is assumed during DSE, Section V-D).
    """

    capacity_bytes: int = 32 * 1024
    width_bytes: int = 64
    num_stream_slots: int = 8
    banks: int = 1
    indirect: bool = False
    atomic_update: bool = False
    atomic_op: str = "add"
    coalescing: bool = False
    kind: MemoryKind = MemoryKind.SPAD

    KIND = "memory"

    def check(self):
        super().check()
        if self.capacity_bytes <= 0:
            raise AdgError(f"{self.name}: non-positive capacity")
        if self.width_bytes <= 0 or not is_power_of_two(self.width_bytes):
            raise AdgError(
                f"{self.name}: width_bytes must be a positive power of two"
            )
        if self.num_stream_slots < 1:
            raise AdgError(f"{self.name}: needs at least one stream slot")
        if self.banks < 1 or not is_power_of_two(self.banks):
            raise AdgError(f"{self.name}: banks must be a power of two >= 1")
        if self.atomic_update and not self.indirect:
            raise AdgError(
                f"{self.name}: atomic update requires the indirect controller"
            )
        if self.atomic_update and self.atomic_op not in OPCODES:
            raise AdgError(f"{self.name}: unknown atomic op {self.atomic_op}")

    @property
    def bandwidth_bits(self):
        """Peak bits per cycle."""
        return self.width_bytes * 8


@dataclass
class SyncElement(Component):
    """A synchronization (vector) port.

    FIFO buffers between dynamically timed producers (memories, dynamic
    PEs) and statically scheduled consumers. A programmable ready-logic
    fires several sync elements together so static regions observe
    deterministic operand timing (Section III-A).

    Attributes
    ----------
    direction:
        INPUT ports feed the fabric; OUTPUT ports drain it.
    depth:
        FIFO entries (in ``width``-bit words).
    fire_group:
        Optional label; elements in one group fire simultaneously.
    """

    direction: Direction = Direction.INPUT
    depth: int = 4
    fire_group: str = ""

    KIND = "sync"

    def check(self):
        super().check()
        if self.depth < 1:
            raise AdgError(f"{self.name}: FIFO depth must be >= 1")

    @property
    def lanes64(self):
        """64-bit words presented per cycle (vector width)."""
        return max(1, self.width // 64)


@dataclass
class DelayFifo(Component):
    """Standalone pipeline-balancing FIFO (Section III-A "Delay Elements").

    Static-scheduled instances offer a compiler-fixed delay; dynamic ones
    drain opportunistically.
    """

    scheduling: Scheduling = Scheduling.STATIC
    depth: int = 8

    KIND = "delay"

    def check(self):
        super().check()
        if self.depth < 1:
            raise AdgError(f"{self.name}: FIFO depth must be >= 1")


@dataclass
class ControlCore(Component):
    """The control core (stream-dataflow ISA host).

    Issues stream commands, fences/barriers and configuration to every
    other component. Its parameters are fixed during DSE (Section V-D).

    ``programmable=False`` instantiates the paper's "alternate control
    core" potential feature (Section III-C): a fixed FSM that replays a
    baked-in command sequence — far cheaper, but the design can only run
    the program it was generated for.
    """

    issue_width: int = 1
    command_queue_depth: int = 8
    config_issue_bits: int = 64
    programmable: bool = True

    KIND = "core"

    def check(self):
        super().check()
        if self.issue_width < 1:
            raise AdgError(f"{self.name}: issue_width must be >= 1")
        if self.command_queue_depth < 1:
            raise AdgError(f"{self.name}: command queue depth must be >= 1")


COMPONENT_KINDS = {
    cls.KIND: cls
    for cls in (
        ProcessingElement,
        Switch,
        Memory,
        SyncElement,
        DelayFifo,
        ControlCore,
    )
}
