"""The computation dataflow graph.

Nodes are inputs (fed by sync ports), constants, instructions, and outputs
(drained by sync ports). An input node carrying ``lanes > 1`` presents a
vector per region instance; instruction operands select a specific lane via
:class:`Operand`, which is how the vectorization transform unrolls
computation without changing the graph shape rules.

Reductions (``acc``-style accumulators) are instructions flagged with
``reduction=True``: they keep internal state across instances and emit a
value every ``emit_every`` firings — the dataflow analogue of a loop-carried
dependence whose latency the scheduler must track (recurrence paths,
Section IV-C).
"""

import enum
from dataclasses import dataclass, field

from repro.errors import IrError
from repro.isa.opcodes import OPCODES


class NodeKind(enum.Enum):
    INPUT = "input"
    CONST = "const"
    INSTR = "instr"
    OUTPUT = "output"


@dataclass(frozen=True)
class Operand:
    """A reference to one lane of a producer node's result."""

    node_id: int
    lane: int = 0


@dataclass
class DfgNode:
    """One dataflow node; fields are kind-dependent (see :class:`Dfg`)."""

    node_id: int
    kind: NodeKind
    name: str = ""
    # INPUT
    lanes: int = 1
    # CONST
    value: float = 0
    # INSTR
    op: str = ""
    operands: list = field(default_factory=list)
    reduction: bool = False
    emit_every: int = 0     # 0 = emit once at stream end
    init: float = 0
    predicate: 'Operand' = None  # fire only when predicate lane is truthy

    def check(self):
        if self.kind is NodeKind.INSTR:
            if self.op not in OPCODES:
                raise IrError(f"node {self.name or self.node_id}: unknown "
                              f"opcode {self.op!r}")
            arity = OPCODES[self.op].arity
            # Reductions carry their state implicitly: they supply one
            # fewer operand than the opcode's arity.
            expected = max(1, arity - 1) if self.reduction else arity
            if len(self.operands) != expected:
                raise IrError(
                    f"node {self.name or self.node_id}: opcode {self.op} "
                    f"expects {expected} operand(s) "
                    f"{'(reduction)' if self.reduction else ''}, "
                    f"got {len(self.operands)}"
                )
            if self.reduction and self.emit_every < 0:
                raise IrError(f"node {self.name}: negative emit_every")
        elif self.kind is NodeKind.OUTPUT:
            if len(self.operands) < 1:
                raise IrError(
                    f"output {self.name or self.node_id} has no operand"
                )
        elif self.kind is NodeKind.INPUT:
            if self.lanes < 1:
                raise IrError(f"input {self.name}: lanes must be >= 1")

    @property
    def is_instr(self):
        return self.kind is NodeKind.INSTR

    @property
    def latency(self):
        """Opcode latency (instructions only)."""
        return OPCODES[self.op].latency if self.is_instr else 0


class Dfg:
    """A dataflow graph for one offload region."""

    #: Memoized :meth:`topological_order`; a class-level default so DFGs
    #: pickled before the memo existed unpickle without it.
    _topo_order = None

    def __init__(self, name="dfg"):
        self.name = name
        self._nodes = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(self, kind, **kwargs):
        node = DfgNode(node_id=self._next_id, kind=kind, **kwargs)
        node.check()
        self._nodes[node.node_id] = node
        self._next_id += 1
        self._topo_order = None
        return node

    def add_input(self, name, lanes=1):
        """A vector input fed by the sync port bound to ``name``."""
        return self._new_node(NodeKind.INPUT, name=name, lanes=lanes)

    def add_const(self, value, name=""):
        return self._new_node(NodeKind.CONST, name=name, value=value)

    def add_instr(self, op, operands, name="", reduction=False,
                  emit_every=0, init=0, predicate=None):
        """An instruction; ``operands`` may be nodes, node ids, or
        :class:`Operand` lane references."""
        normalized = [self._as_operand(item) for item in operands]
        return self._new_node(
            NodeKind.INSTR,
            name=name,
            op=op,
            operands=normalized,
            reduction=reduction,
            emit_every=emit_every,
            init=init,
            predicate=self._as_operand(predicate) if predicate else None,
        )

    def add_output(self, name, operands):
        """A result drained by the sync port bound to ``name``; one operand
        per output lane."""
        if not isinstance(operands, (list, tuple)):
            operands = [operands]
        normalized = [self._as_operand(item) for item in operands]
        return self._new_node(NodeKind.OUTPUT, name=name, operands=normalized)

    def _as_operand(self, item):
        if isinstance(item, Operand):
            operand = item
        elif isinstance(item, DfgNode):
            operand = Operand(item.node_id)
        elif isinstance(item, int):
            operand = Operand(item)
        elif isinstance(item, tuple) and len(item) == 2:
            first, lane = item
            node_id = first.node_id if isinstance(first, DfgNode) else first
            operand = Operand(node_id, lane)
        else:
            raise IrError(f"cannot interpret operand {item!r}")
        if operand.node_id not in self._nodes:
            raise IrError(f"operand references unknown node {operand.node_id}")
        return operand

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id):
        try:
            return self._nodes[node_id]
        except KeyError:
            raise IrError(f"no such dfg node {node_id}") from None

    def nodes(self, kind=None):
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if n.kind is kind]

    def inputs(self):
        return self.nodes(NodeKind.INPUT)

    def outputs(self):
        return self.nodes(NodeKind.OUTPUT)

    def instructions(self):
        return self.nodes(NodeKind.INSTR)

    def consts(self):
        return self.nodes(NodeKind.CONST)

    def __len__(self):
        return len(self._nodes)

    def users_of(self, node_id):
        """Nodes consuming any lane of ``node_id``."""
        users = []
        for node in self._nodes.values():
            refs = list(node.operands)
            if node.predicate is not None:
                refs.append(node.predicate)
            if any(ref.node_id == node_id for ref in refs):
                users.append(node)
        return users

    def edges(self):
        """All (producer_id, consumer_id, operand_index, lane) tuples.

        ``lane`` identifies which word of the producer the consumer taps:
        routing treats (producer, lane) as the multicast value identity.
        Predicate edges use operand_index -1.
        """
        result = []
        for node in self._nodes.values():
            for index, ref in enumerate(node.operands):
                result.append((ref.node_id, node.node_id, index, ref.lane))
            if node.predicate is not None:
                result.append(
                    (node.predicate.node_id, node.node_id, -1,
                     node.predicate.lane)
                )
        return result

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def topological_order(self):
        """Node ids in dependence order (a fresh list per call).

        Reduction self-state does not form an explicit edge, so a valid
        DFG is acyclic; cycles raise :class:`IrError`. The order is
        memoized until the next node is added.
        """
        if self._topo_order is None:
            self._topo_order = self._compute_topological_order()
        return list(self._topo_order)

    def _compute_topological_order(self):
        indegree = {node_id: 0 for node_id in self._nodes}
        for src, dst, _idx, _lane in self.edges():
            indegree[dst] += 1
        ready = sorted(nid for nid, deg in indegree.items() if deg == 0)
        order = []
        successors = {}
        for src, dst, _idx, _lane in self.edges():
            successors.setdefault(src, []).append(dst)
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for succ in sorted(successors.get(nid, [])):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise IrError(f"dfg {self.name} contains a cycle")
        return order

    def validate(self):
        """Structural checks; raises :class:`IrError`."""
        for node in self._nodes.values():
            node.check()
            refs = list(node.operands)
            if node.predicate is not None:
                refs.append(node.predicate)
            for ref in refs:
                producer = self.node(ref.node_id)
                if producer.kind is NodeKind.OUTPUT:
                    raise IrError(
                        f"node {node.name or node.node_id} consumes an "
                        "output node"
                    )
                max_lanes = producer.lanes if producer.kind is NodeKind.INPUT else 1
                if ref.lane >= max_lanes:
                    raise IrError(
                        f"node {node.name or node.node_id} taps lane "
                        f"{ref.lane} of {producer.name or producer.node_id} "
                        f"which has {max_lanes} lane(s)"
                    )
        self.topological_order()
        for out in self.outputs():
            if not out.name:
                raise IrError("output node without a port name")

    def opcode_histogram(self):
        counts = {}
        for node in self.instructions():
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def required_ops(self):
        return {node.op for node in self.instructions()}

    def longest_path_latency(self):
        """Latency of the critical combinational path through the graph."""
        finish = {}
        for nid in self.topological_order():
            node = self.node(nid)
            refs = list(node.operands)
            if node.predicate is not None:
                refs.append(node.predicate)
            start = max((finish[ref.node_id] for ref in refs), default=0)
            finish[nid] = start + node.latency
        return max(finish.values(), default=0)

    def clone(self):
        import copy

        return copy.deepcopy(self)

    def __repr__(self):
        return (
            f"Dfg({self.name!r}, inputs={len(self.inputs())}, "
            f"instrs={len(self.instructions())}, "
            f"outputs={len(self.outputs())})"
        )
