"""The dataflow instruction set.

Each :class:`Opcode` carries the metadata every other subsystem needs:

* the compiler checks arity and category when building dataflow graphs;
* the scheduler uses ``latency`` to compute operand-arrival timing;
* the power/area model uses ``gate_cost`` (relative NAND2-equivalents for a
  64-bit implementation) when costing functional units;
* the functional interpreter binds ``semantics`` once per instruction to
  produce the values the simulator replays (``evaluate`` applies them
  once).

The set covers what the paper's workloads need: integer and floating-point
arithmetic, comparisons, selection (for control-to-data conversion), and
the stream-join control opcodes of Dadu et al. [20] used by dynamically
scheduled PEs.
"""

import enum
import math
from dataclasses import dataclass


class OpCategory(enum.Enum):
    """Coarse grouping used for FU selection and cost modeling."""

    ARITH = "arith"          # integer add/sub/logic/shift/compare
    MULTIPLY = "multiply"    # integer multiply / multiply-accumulate
    DIVIDE = "divide"        # integer divide / modulo
    FP_ARITH = "fp_arith"    # floating add/sub/compare/min/max
    FP_MULTIPLY = "fp_mul"   # floating multiply
    FP_DIVIDE = "fp_div"     # floating divide / sqrt
    SPECIAL = "special"      # sigmoid, tanh, exp (NN workloads)
    CONTROL = "control"      # select, predication, stream-join control


@dataclass(frozen=True)
class Opcode:
    """A single dataflow instruction.

    Attributes
    ----------
    name:
        Canonical lower-case mnemonic, e.g. ``"fmul"``.
    category:
        The :class:`OpCategory` it belongs to; determines which FU types can
        execute it.
    arity:
        Number of data operands.
    latency:
        Pipeline latency in cycles at 64-bit width (the paper targets 1 GHz;
        latencies follow common synthesis results: adds 1 cycle, multiplies
        3, divides long and unpipelined).
    gate_cost:
        Relative area of a dedicated 64-bit implementation, in NAND2-
        equivalent kilogates. Feeds the synthetic synthesis database.
    is_floating:
        True for IEEE-ish floating-point semantics in the simulator.
    commutative:
        True when operand order is irrelevant; the scheduler may swap
        operands of commutative instructions while routing.
    pipelined:
        False for iterative units (divide) whose initiation interval equals
        their latency.
    """

    name: str
    category: OpCategory
    arity: int
    latency: int
    gate_cost: float
    is_floating: bool = False
    commutative: bool = False
    pipelined: bool = True
    decomposable: bool = True

    def __str__(self):
        return self.name


def _clamp_int(value, bits):
    """Wrap an integer into two's-complement range for ``bits``."""
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


# Functional semantics, one ``fn(a=None, b=None, c=None)`` per mnemonic:
# operands an opcode does not take default to None. Integer ops also
# receive ``bits`` and are wrapped to it by :func:`semantics`.
_INTEGER_OPS = {
    "add": lambda a, b, c, bits: a + b,
    "sub": lambda a, b, c, bits: a - b,
    "mul": lambda a, b, c, bits: a * b,
    "div": lambda a, b, c, bits: 0 if b == 0 else int(a / b),
    "mod": lambda a, b, c, bits: 0 if b == 0 else a - int(a / b) * b,
    "min": lambda a, b, c, bits: min(a, b),
    "max": lambda a, b, c, bits: max(a, b),
    "abs": lambda a, b, c, bits: abs(a),
    "neg": lambda a, b, c, bits: -a,
    "and": lambda a, b, c, bits: a & b,
    "or": lambda a, b, c, bits: a | b,
    "xor": lambda a, b, c, bits: a ^ b,
    "shl": lambda a, b, c, bits: a << (b & (bits - 1)),
    "shr": lambda a, b, c, bits: a >> (b & (bits - 1)),
    "acc": lambda a, b, c, bits: a + b,
    "mac": lambda a, b, c, bits: a * b + c,
}

_PLAIN_OPS = {
    "cmp_lt": lambda a=None, b=None, c=None: int(a < b),
    "cmp_gt": lambda a=None, b=None, c=None: int(a > b),
    "cmp_eq": lambda a=None, b=None, c=None: int(a == b),
    "cmp_ne": lambda a=None, b=None, c=None: int(a != b),
    "cmp_le": lambda a=None, b=None, c=None: int(a <= b),
    "cmp_ge": lambda a=None, b=None, c=None: int(a >= b),
    "fadd": lambda a=None, b=None, c=None: a + b,
    "fsub": lambda a=None, b=None, c=None: a - b,
    "fmul": lambda a=None, b=None, c=None: a * b,
    "fdiv": lambda a=None, b=None, c=None: math.inf if b == 0 else a / b,
    "fmin": lambda a=None, b=None, c=None: min(a, b),
    "fmax": lambda a=None, b=None, c=None: max(a, b),
    "fabs": lambda a=None, b=None, c=None: abs(a),
    "fneg": lambda a=None, b=None, c=None: -a,
    "fsqrt": lambda a=None, b=None, c=None: (
        math.sqrt(a) if a >= 0 else math.nan
    ),
    "fmac": lambda a=None, b=None, c=None: a * b + c,
    "sigmoid": lambda a=None, b=None, c=None: 1.0 / (
        1.0 + math.exp(-max(-60.0, min(60.0, a)))
    ),
    "tanh": lambda a=None, b=None, c=None: math.tanh(a),
    "exp": lambda a=None, b=None, c=None: math.exp(max(-60.0, min(60.0, a))),
    "fcmp_lt": lambda a=None, b=None, c=None: int(a < b),
    "fcmp_gt": lambda a=None, b=None, c=None: int(a > b),
    "fcmp_eq": lambda a=None, b=None, c=None: int(a == b),
    # select(pred, if_true, if_false)
    "select": lambda a=None, b=None, c=None: b if a else c,
    "copy": lambda a=None, b=None, c=None: a,
    # Three-way key compare steering stream-join reuse/pop decisions:
    # -1 pop left, +1 pop right, 0 pop both and compute.
    "sjoin": lambda a=None, b=None, c=None: (
        -1 if a < b else (1 if a > b else 0)
    ),
}


def _wrapped(fn, bits):
    return lambda a=None, b=None, c=None: _clamp_int(fn(a, b, c, bits), bits)


def semantics(op, bits=64):
    """The functional semantics of ``op`` as ``fn(a=None, b=None, c=None)``.

    Operands the opcode does not take default to None. Integer ops wrap to
    ``bits``; floating ops use Python floats (a stand-in for IEEE 754
    double). Raises ``KeyError`` for an opcode without semantics.
    """
    name = op.name if isinstance(op, Opcode) else op
    if name in _PLAIN_OPS:
        return _PLAIN_OPS[name]
    if name in _INTEGER_OPS:
        if bits == 64:
            return _INTEGER_OPS_64[name]
        return _wrapped(_INTEGER_OPS[name], bits)
    raise KeyError(f"no functional semantics for opcode {name!r}")


_INTEGER_OPS_64 = {name: _wrapped(fn, 64) for name, fn in _INTEGER_OPS.items()}


def evaluate(op, operands, bits=64):
    """Functionally evaluate ``op`` on ``operands``.

    Used by tests and the fuzzer's reference executor to check compiled
    programs against reference kernels; see :func:`semantics`.
    """
    a = operands[0] if operands else None
    b = operands[1] if len(operands) > 1 else None
    c = operands[2] if len(operands) > 2 else None
    return semantics(op, bits)(a, b, c)


def _build_registry():
    """Construct the opcode table."""
    ops = []

    def add(name, category, arity, latency, gate_cost, **kwargs):
        ops.append(Opcode(name, category, arity, latency, gate_cost, **kwargs))

    # Integer arithmetic / logic (single-cycle ALU class).
    add("add", OpCategory.ARITH, 2, 1, 0.9, commutative=True)
    add("sub", OpCategory.ARITH, 2, 1, 0.9)
    add("min", OpCategory.ARITH, 2, 1, 1.0, commutative=True)
    add("max", OpCategory.ARITH, 2, 1, 1.0, commutative=True)
    add("abs", OpCategory.ARITH, 1, 1, 0.5)
    add("neg", OpCategory.ARITH, 1, 1, 0.4)
    add("and", OpCategory.ARITH, 2, 1, 0.2, commutative=True)
    add("or", OpCategory.ARITH, 2, 1, 0.2, commutative=True)
    add("xor", OpCategory.ARITH, 2, 1, 0.2, commutative=True)
    add("shl", OpCategory.ARITH, 2, 1, 1.1, decomposable=False)
    add("shr", OpCategory.ARITH, 2, 1, 1.1, decomposable=False)
    add("acc", OpCategory.ARITH, 2, 1, 1.0)

    # Integer comparisons.
    for cmp_name in ("cmp_lt", "cmp_gt", "cmp_eq", "cmp_ne", "cmp_le", "cmp_ge"):
        add(cmp_name, OpCategory.ARITH, 2, 1, 0.6)

    # Integer multiply / divide.
    add("mul", OpCategory.MULTIPLY, 2, 3, 6.0, commutative=True)
    add("mac", OpCategory.MULTIPLY, 3, 3, 6.8)
    add("div", OpCategory.DIVIDE, 2, 16, 9.0, pipelined=False)
    add("mod", OpCategory.DIVIDE, 2, 16, 9.0, pipelined=False)

    # Floating point (64-bit baseline, decomposable to 2x32-bit).
    add("fadd", OpCategory.FP_ARITH, 2, 3, 6.5, is_floating=True, commutative=True)
    add("fsub", OpCategory.FP_ARITH, 2, 3, 6.5, is_floating=True)
    add("fmin", OpCategory.FP_ARITH, 2, 1, 1.4, is_floating=True, commutative=True)
    add("fmax", OpCategory.FP_ARITH, 2, 1, 1.4, is_floating=True, commutative=True)
    add("fabs", OpCategory.FP_ARITH, 1, 1, 0.3, is_floating=True)
    add("fneg", OpCategory.FP_ARITH, 1, 1, 0.3, is_floating=True)
    for cmp_name in ("fcmp_lt", "fcmp_gt", "fcmp_eq"):
        add(cmp_name, OpCategory.FP_ARITH, 2, 1, 1.2, is_floating=True)
    add("fmul", OpCategory.FP_MULTIPLY, 2, 4, 11.0, is_floating=True,
        commutative=True)
    add("fmac", OpCategory.FP_MULTIPLY, 3, 4, 12.5, is_floating=True)
    add("fdiv", OpCategory.FP_DIVIDE, 2, 20, 18.0, is_floating=True,
        pipelined=False)
    add("fsqrt", OpCategory.FP_DIVIDE, 1, 22, 16.0, is_floating=True,
        pipelined=False)

    # Special functions for NN kernels (piecewise-linear implementations).
    add("sigmoid", OpCategory.SPECIAL, 1, 4, 8.0, is_floating=True,
        decomposable=False)
    add("tanh", OpCategory.SPECIAL, 1, 4, 8.0, is_floating=True,
        decomposable=False)
    add("exp", OpCategory.SPECIAL, 1, 5, 9.0, is_floating=True,
        decomposable=False)

    # Control / dataflow steering.
    add("select", OpCategory.CONTROL, 3, 1, 0.7)
    add("copy", OpCategory.CONTROL, 1, 1, 0.1)
    # Stream-join control: compares two keys and emits reuse/pop decisions
    # for its operand streams (Section IV-E). Only dynamic PEs execute it.
    add("sjoin", OpCategory.CONTROL, 2, 1, 1.8)

    return {op.name: op for op in ops}


OPCODES = _build_registry()


def opcode(name):
    """Look up an :class:`Opcode` by mnemonic (raises ``KeyError``)."""
    return OPCODES[name]


def opcodes_in_category(category):
    """All opcodes of one :class:`OpCategory`, sorted by name."""
    return sorted(
        (op for op in OPCODES.values() if op.category is category),
        key=lambda op: op.name,
    )
